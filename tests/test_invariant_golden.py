"""Golden invariant maps for every Table 1 pair.

``tests/data/table1_invariants.json`` holds ``str(InvariantMap)`` of the
old and new program of each ``SUITE`` pair, computed at the pair's own
configuration.  Any change to the polyhedral domain (its LP kernel, its
normal forms, its pruning) must leave these strings byte-identical; a
deliberate change of invariants regenerates the file with::

    PYTHONPATH=src python tests/test_invariant_golden.py --regenerate
"""

import json
import sys
from pathlib import Path

import pytest

from repro.bench.suite import SUITE, get_pair, load_pair
from repro.invariants import generate_invariants

GOLDEN = Path(__file__).parent / "data" / "table1_invariants.json"


def render_pair(name: str) -> dict[str, str]:
    """``str(InvariantMap)`` of both versions of one Table 1 pair."""
    config = get_pair(name).config()
    rendered = {}
    for side, program in zip(("old", "new"), load_pair(name)):
        invariants = generate_invariants(
            program.system,
            hints=dict(program.invariant_hints),
            widening_delay=config.widening_delay,
            narrowing_passes=config.narrowing_passes,
        )
        rendered[side] = str(invariants)
    return rendered


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_the_suite():
    assert sorted(_golden()) == sorted(pair.name for pair in SUITE)


@pytest.mark.parametrize("name", [pair.name for pair in SUITE])
def test_invariant_map_byte_identical(name):
    assert render_pair(name) == _golden()[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: test_invariant_golden.py --regenerate")
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    golden = {pair.name: render_pair(pair.name) for pair in SUITE}
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
