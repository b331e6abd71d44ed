"""Golden encoded LP models for every Table 1 pair.

``tests/data/table1_lp_models.json`` holds, per ``SUITE`` pair at the
pair's own configuration, the sha256 of the encoded :class:`LPModel`'s
canonical rendering: variable names and bounds in declaration order,
every constraint's ``str`` in order, and the objective.  Any change to
constraint collection or the Handelman encoder must leave these models
byte-identical (so cached results and thresholds stay valid); a
deliberate change of the encoding regenerates the file with::

    PYTHONPATH=src python tests/test_encoding_golden.py --regenerate
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.bench.suite import SUITE, get_pair, load_pair
from repro.core.diffcost import THRESHOLD_SYMBOL, DiffCostAnalyzer
from repro.lp.model import LPModel
from repro.poly.linexpr import AffineExpr
from repro.poly.template import TemplatePolynomial

GOLDEN = Path(__file__).parent / "data" / "table1_lp_models.json"


def canonical_rendering(model: LPModel) -> str:
    """Variables with bounds, constraints and objective, one per line."""
    lines = []
    for name in model.variable_names:
        lower, upper = model.bounds(name)
        lines.append(f"var {name} [{lower}, {upper}]")
    lines.extend(f"con {constraint}" for constraint in model.constraints)
    lines.append(f"obj {model.objective}")
    return "\n".join(lines)


def encoded_model(name: str) -> LPModel:
    """The LP :meth:`DiffCostAnalyzer.compute_threshold` would solve."""
    old, new = load_pair(name)
    analyzer = DiffCostAnalyzer(old, new, get_pair(name).config())
    bound = TemplatePolynomial.from_symbol(THRESHOLD_SYMBOL)
    _, _, constraints = analyzer.build_constraints(bound)
    model = analyzer.encode(constraints)
    model.minimize(AffineExpr.variable(THRESHOLD_SYMBOL))
    return model


def digest_pair(name: str) -> str:
    rendering = canonical_rendering(encoded_model(name))
    return hashlib.sha256(rendering.encode()).hexdigest()


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_the_suite():
    assert sorted(_golden()) == sorted(pair.name for pair in SUITE)


def test_rendering_lists_bounds_constraints_and_objective():
    model = LPModel()
    model.add_variable("c", lower=0)
    model.add_equality(AffineExpr.variable("c") - AffineExpr.variable("u"),
                       name="row")
    model.minimize(AffineExpr.variable("u"))
    assert canonical_rendering(model) == (
        "var c [0, None]\nvar u [None, None]\n"
        "con [row] c - u == 0\nobj minimize u"
    )


@pytest.mark.parametrize("name", [pair.name for pair in SUITE])
def test_lp_model_byte_identical(name):
    assert digest_pair(name) == _golden()[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: test_encoding_golden.py --regenerate")
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    golden = {pair.name: digest_pair(pair.name) for pair in SUITE}
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
