"""Property-based differential tests of the polyhedral LP kernel.

A seeded generator of small integer systems ``a_i·x + b_i >= 0`` (1–5
free variables, 0–30 rows, coefficients in [-5, 5]) drives
:func:`repro.invariants.kernel.minimize` against the exact rational
backends :class:`~repro.lp.RevisedSimplexBackend` and
:class:`~repro.lp.DenseSimplexBackend`:

- identical status on every instance and a bit-identical ``Fraction``
  optimum whenever one exists;
- every reported optimum carries dual multipliers ``y >= 0`` with
  ``Σ y_i·a_i = c`` and ``-Σ y_i·b_i`` equal to the optimum — a Farkas
  certificate checked here in plain ``Fraction`` arithmetic, with no
  LP solver involved.

The population covers empty systems (contradictory row pairs),
unbounded objectives, duplicated rows and degenerate vertices (several
rows tight at one point), the zero objective and fractional objectives;
the tests assert that each of these was exercised.  Plain ``random``
with fixed seeds — deterministic, stdlib only.
"""

import random
from dataclasses import dataclass
from fractions import Fraction

from repro.invariants import kernel
from repro.lp import (
    DenseSimplexBackend,
    LPModel,
    LPStatus,
    RevisedSimplexBackend,
)
from repro.poly.linexpr import AffineExpr

SEED = 20261017


@dataclass(frozen=True)
class System:
    """``min objective·x`` over ``rows[i]·x + offsets[i] >= 0``."""

    rows: tuple
    offsets: tuple
    objective: tuple
    tags: frozenset


def make_system(rng: random.Random) -> System:
    n = rng.randint(1, 5)
    tags = set()
    # Rows around an integer point p keep most systems feasible; slack 0
    # makes the row tight at p, so several of them form a degenerate
    # vertex.
    point = [rng.randint(-5, 5) for _ in range(n)]
    rows, offsets = [], []
    for _ in range(rng.randint(0, 30)):
        if rows and rng.random() < 0.1:
            pick = rng.randrange(len(rows))
            rows.append(rows[pick])
            offsets.append(offsets[pick])
            tags.add("duplicate")
            continue
        row = tuple(rng.randint(-5, 5) for _ in range(n))
        slack = 0 if rng.random() < 0.3 else rng.randint(1, 6)
        rows.append(row)
        offsets.append(slack - sum(a * x for a, x in zip(row, point)))
    if rows and rng.random() < 0.2:
        # Contradict a row: a·x + b >= 0 and -a·x - b - k >= 0.
        pick = rng.randrange(len(rows))
        if any(rows[pick]):
            rows.append(tuple(-a for a in rows[pick]))
            offsets.append(-offsets[pick] - rng.randint(1, 3))
            tags.add("contradiction")
    kind = rng.random()
    if kind < 0.15:
        objective = (0,) * n
        tags.add("zero-objective")
    elif kind < 0.5:
        objective = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 6))
                          for _ in range(n))
        if any(c.denominator > 1 for c in objective):
            tags.add("fractional-objective")
    else:
        objective = tuple(rng.randint(-5, 5) for _ in range(n))
    return System(tuple(rows), tuple(offsets), objective, frozenset(tags))


def build_model(system: System) -> LPModel:
    names = [f"x{k}" for k in range(len(system.objective))]
    model = LPModel()
    for name in names:
        model.add_variable(name)
    for row, offset in zip(system.rows, system.offsets):
        model.add_inequality(AffineExpr(dict(zip(names, row)), offset))
    model.minimize(AffineExpr(dict(zip(names, system.objective))))
    return model


def systems(seed: int, count: int):
    rng = random.Random(seed)
    return [make_system(rng) for _ in range(count)]


class TestKernelProperty:
    def test_matches_exact_backends(self):
        statuses_seen = set()
        tags_seen = set()
        for trial, system in enumerate(systems(SEED, 80)):
            got = kernel.minimize(system.rows, system.offsets,
                                  system.objective)
            statuses_seen.add(got.status)
            tags_seen |= system.tags
            for backend in (RevisedSimplexBackend, DenseSimplexBackend):
                reference = backend().solve(build_model(system))
                assert got.status == reference.status.value, \
                    (trial, backend, system)
                if reference.status is LPStatus.OPTIMAL:
                    assert isinstance(got.value, Fraction)
                    assert got.value == reference.objective_value, \
                        (trial, backend, system)
        # The population must exercise every outcome and every shape,
        # or the property quietly stops meaning anything.
        assert statuses_seen == {
            kernel.OPTIMAL, kernel.INFEASIBLE, kernel.UNBOUNDED
        }
        assert tags_seen == {"duplicate", "contradiction", "zero-objective",
                             "fractional-objective"}

    def test_optimal_multipliers_are_farkas_certificates(self):
        certified = 0
        for trial, system in enumerate(systems(SEED + 1, 300)):
            got = kernel.minimize(system.rows, system.offsets,
                                  system.objective)
            if got.status != kernel.OPTIMAL:
                assert got.value is None and got.multipliers is None
                continue
            certified += 1
            y = got.multipliers
            assert len(y) == len(system.rows)
            assert all(isinstance(v, Fraction) and v >= 0 for v in y), trial
            for k, cost in enumerate(system.objective):
                combined = sum((y[i] * row[k]
                                for i, row in enumerate(system.rows)),
                               Fraction(0))
                assert combined == cost, (trial, k, system)
            bound = -sum((y[i] * b for i, b in enumerate(system.offsets)),
                         Fraction(0))
            assert bound == got.value, (trial, system)
        assert certified >= 50, "generator stopped producing optima"


class TestKernelCases:
    def test_no_rows(self):
        assert kernel.minimize([], [], [0, 0]) == (kernel.OPTIMAL, 0, ())
        assert kernel.minimize([], [], [1, 0]).status == kernel.UNBOUNDED

    def test_contradiction_is_infeasible_for_every_objective(self):
        rows = [(1, 0), (-1, 0)]  # x >= 1 and x <= 0
        for objective in ([0, 0], [1, 0], [0, 1], [Fraction(-1, 3), 2]):
            assert kernel.minimize(rows, [-1, 0], objective).status \
                == kernel.INFEASIBLE

    def test_unconstrained_direction_is_unbounded(self):
        # 0 <= x <= 4, y free: min y is unbounded, min x is 0.
        rows = [(1, 0), (-1, 0)]
        assert kernel.minimize(rows, [0, 4], [0, 1]).status \
            == kernel.UNBOUNDED
        result = kernel.minimize(rows, [0, 4], [1, 0])
        assert result.status == kernel.OPTIMAL and result.value == 0

    def test_fractional_vertex(self):
        # 2x >= 1, 3y >= 1, minimise x + y = 1/2 + 1/3.
        result = kernel.minimize([(2, 0), (0, 3)], [-1, -1], [1, 1])
        assert result.value == Fraction(5, 6)
        assert result.multipliers == (Fraction(1, 2), Fraction(1, 3))

    def test_degenerate_vertex_terminates(self):
        # Many rows through the origin (Bland's rule must not cycle).
        rows = [(1, 0), (0, 1), (1, 1), (2, 1), (1, 2), (1, 1), (3, 2)]
        result = kernel.minimize(rows, [0] * len(rows), [3, 4])
        assert result.status == kernel.OPTIMAL and result.value == 0
