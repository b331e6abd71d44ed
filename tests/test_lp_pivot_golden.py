"""Golden pivot traces of the exact LP solvers.

``tests/data/exact_lp_traces.json`` records, for the exact solves the
portfolio ladder and the tightness probe run on the witness-heavy
pairs, every pivot counter, the sha256 of the final basis and the
``Fraction`` objective:

- the ``exact-warm`` threshold LP at degree 2 / two products
  (``resumed`` paths and ``simple_multiple_dep``'s ``fallback``, a cold
  two-phase solve with phase 1 and the drive-out of artificials);
- the cold two-phase ``exact`` solve of the two smallest of those LPs;
- each pair's refutation :class:`~repro.lp.dual.IncrementalLP`
  sequence (one cold solve, ``certified`` or ``resumed``, then a primal
  re-solve per witness);
- :meth:`~repro.lp.dual.IncrementalLP.update_upper` dual-simplex
  repairs of the threshold cap.

Pricing, ratio tests and the basis kernel may get faster, but they must
keep choosing the same columns: any change to these traces is a change
of solver behaviour.  A deliberate change regenerates the file with::

    PYTHONPATH=src python tests/test_lp_pivot_golden.py --regenerate
"""

import hashlib
import json
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

import repro.core.refutation as refutation
from repro.bench.suite import get_pair, load_pair
from repro.config import AnalysisConfig
from repro.core.diffcost import THRESHOLD_SYMBOL, DiffCostAnalyzer
from repro.lp.certify import solve_form_exact
from repro.lp.dual import IncrementalLP
from repro.lp.revised import RevisedSimplex
from repro.lp.standard import model_objective_value, recover_values, standardize
from repro.poly.linexpr import AffineExpr
from repro.poly.template import TemplatePolynomial

GOLDEN = Path(__file__).parent / "data" / "exact_lp_traces.json"

#: The ladder-refute pairs; the first two have the smallest LPs.
PAIRS = ("dis2", "simple_single2", "simple_multiple", "simple_multiple_dep")
COLD_PAIRS = PAIRS[:2]

COUNTERS = (
    "pivots", "phase1_pivots", "phase2_pivots", "dual_pivots",
    "degenerate_pivots", "bland_pivots", "refactorizations",
)

#: The ladder's exact rung (degree 2, two products) on default knobs.
D2K2 = AnalysisConfig(degree=2, max_products=2, lp_backend="exact-warm")


def _trace(path, stats: dict, basis, objective) -> dict:
    entry = {"path": path}
    entry.update((key, stats.get(key, 0)) for key in COUNTERS)
    entry["basis"] = hashlib.sha256(
        ",".join(map(str, basis)).encode()).hexdigest()
    entry["objective"] = None if objective is None else str(objective)
    return entry


def threshold_model(name: str):
    old, new = load_pair(name)
    analyzer = DiffCostAnalyzer(old, new, D2K2)
    bound = TemplatePolynomial.from_symbol(THRESHOLD_SYMBOL)
    _, _, constraints = analyzer.build_constraints(bound)
    model = analyzer.encode(constraints)
    model.minimize(AffineExpr.variable(THRESHOLD_SYMBOL))
    return model


def _objective(model, form, solver):
    return model_objective_value(model, recover_values(form,
                                                       solver.assignment()))


def warm_trace(name: str) -> dict:
    model = threshold_model(name)
    form = standardize(model)
    stats: dict = {}
    solver, status = solve_form_exact(form, stats)
    assert status == "optimal", status
    return _trace(stats["path"], solver.stats, solver.basis,
                  _objective(model, form, solver))


def cold_trace(name: str) -> dict:
    model = threshold_model(name)
    form = standardize(model)
    solver = RevisedSimplex(form)
    assert solver.solve_two_phase() == "optimal"
    return _trace("two-phase", solver.stats, solver.basis,
                  _objective(model, form, solver))


@contextmanager
def recording_incremental(traces: list):
    """Swap the refutation loop's ``IncrementalLP`` for one that
    appends a trace per solve."""

    class Recording(IncrementalLP):
        def solve(self, objective=None, *, maximize=False):
            solution = super().solve(objective, maximize=maximize)
            traces.append(_trace(solution.stats.get("path"), solution.stats,
                                 self.solver.basis, solution.objective_value))
            return solution

    original = refutation.IncrementalLP
    refutation.IncrementalLP = Recording
    try:
        yield
    finally:
        refutation.IncrementalLP = original


def refutation_traces(name: str) -> list[dict]:
    traces: list[dict] = []
    old, new = load_pair(name)
    with recording_incremental(traces):
        refutation.refute_threshold(old, new, 0, D2K2)
    return traces


def update_upper_traces(name: str = "simple_multiple") -> list[dict]:
    """Maximize the capped threshold, then lower the cap twice: the
    dual simplex repairs the basis to the new optimum, and then into a
    Farkas proof once the cap drops below the tight threshold."""
    tight = get_pair(name).tight
    model = threshold_model(name)
    model.add_variable(THRESHOLD_SYMBOL, upper=3 * tight)
    incremental = IncrementalLP(model)
    traces = []

    def record(solution):
        traces.append(_trace(solution.stats.get("path"), solution.stats,
                             incremental.solver.basis,
                             solution.objective_value))

    record(incremental.maximize(AffineExpr.variable(THRESHOLD_SYMBOL)))
    for cap in (2 * tight, tight - 1):
        record(incremental.update_upper(THRESHOLD_SYMBOL, cap))
    return traces


def build_traces() -> dict:
    return {
        "exact-warm": {name: warm_trace(name) for name in PAIRS},
        "exact": {name: cold_trace(name) for name in COLD_PAIRS},
        "refutation": {name: refutation_traces(name) for name in PAIRS},
        "update-upper": update_upper_traces(),
    }


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", PAIRS)
def test_exact_warm_trace(name):
    assert warm_trace(name) == _golden()["exact-warm"][name]


@pytest.mark.parametrize("name", COLD_PAIRS)
def test_exact_cold_trace(name):
    assert cold_trace(name) == _golden()["exact"][name]


@pytest.mark.parametrize("name", PAIRS)
def test_refutation_trace(name):
    assert refutation_traces(name) == _golden()["refutation"][name]


def test_update_upper_trace():
    assert update_upper_traces() == _golden()["update-upper"]


def test_traces_cover_every_path():
    golden = _golden()
    paths = {entry["path"] for entry in golden["exact-warm"].values()}
    paths.update(entry["path"] for entries in golden["refutation"].values()
                 for entry in entries)
    assert {"resumed", "fallback", "cold:certified", "resolve"} <= paths
    fallback = [entry for entry in golden["exact-warm"].values()
                if entry["path"] == "fallback"]
    assert all(entry["phase1_pivots"] for entry in fallback)
    assert any(entry["dual_pivots"] for entry in golden["update-upper"])


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: test_lp_pivot_golden.py --regenerate")
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(json.dumps(build_traces(), indent=2, sort_keys=True)
                      + "\n")
