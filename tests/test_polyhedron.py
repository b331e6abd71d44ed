"""Unit and property tests for the polyhedra-lite domain."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.invariants.polyhedron import Polyhedron, _eliminate, _integer_row
from repro.poly.linexpr import AffineExpr
from repro.poly.polynomial import Polynomial
from repro.ts.guards import LinIneq, box
from repro.ts.system import Transition, Location, NondetUpdate

X = Polynomial.variable("x")
Y = Polynomial.variable("y")
N = Polynomial.variable("n")


def poly_box(**bounds):
    return Polyhedron(box({k: v for k, v in bounds.items()}))


class TestBasics:
    def test_top_and_bottom(self):
        assert not Polyhedron.top().is_empty()
        assert Polyhedron.bottom().is_empty()
        assert Polyhedron.bottom().entails(LinIneq.geq(X, 10**6))

    def test_syntactic_contradiction_detected(self):
        polyhedron = Polyhedron([LinIneq.geq(Polynomial.constant(-1), 0)])
        assert polyhedron.is_bottom()

    def test_semantic_emptiness(self):
        polyhedron = Polyhedron([LinIneq.geq(X, 1), LinIneq.leq(X, 0)])
        assert not polyhedron.is_bottom()  # not syntactic
        assert polyhedron.is_empty()

    def test_contains_point(self):
        assert poly_box(x=(0, 5)).contains_point({"x": 3})
        assert not poly_box(x=(0, 5)).contains_point({"x": 6})

    def test_duplicates_normalized_away(self):
        polyhedron = Polyhedron([
            LinIneq.geq(X, 1),
            LinIneq.geq(2 * X, 2),
        ])
        assert len(polyhedron.ineqs) == 1


class TestQueries:
    def test_entailment(self):
        polyhedron = poly_box(x=(1, 10))
        assert polyhedron.entails(LinIneq.geq(X, 0))
        assert polyhedron.entails(LinIneq.leq(X, 10))
        assert not polyhedron.entails(LinIneq.geq(X, 2))

    def test_relational_entailment(self):
        polyhedron = Polyhedron([LinIneq.leq(X, Y), LinIneq.leq(Y, N)])
        assert polyhedron.entails(LinIneq.leq(X, N))
        assert not polyhedron.entails(LinIneq.leq(N, X))

    def test_entails_all_inclusion(self):
        small = poly_box(x=(2, 3))
        big = poly_box(x=(0, 5))
        assert small.entails_all(big)
        assert not big.entails_all(small)

    def test_var_bounds(self):
        interval = poly_box(x=(3, 8)).var_bounds("x")
        assert interval.lower == 3 and interval.upper == 8

    def test_var_bounds_unbounded(self):
        polyhedron = Polyhedron([LinIneq.geq(X, 0)])
        interval = polyhedron.var_bounds("x")
        assert interval.lower == 0 and interval.upper is None

    def test_minimize(self):
        assert poly_box(x=(2, 9)).minimize(
            LinIneq.geq(X, 0).expr
        ) == Fraction(2)


class TestExactDecisions:
    """Verdicts near the decision boundary are exact sign tests."""

    def test_tiny_positive_minimum_is_entailed_and_pruned(self):
        # x >= 1/10^7 forces x > 0 by a margin no float tolerance sees.
        tiny = LinIneq.geq(10**7 * X, 1)
        assert Polyhedron([tiny]).entails(LinIneq.geq(X, 0))
        reduced = Polyhedron([tiny, LinIneq.geq(X, 0)]).reduce()
        assert reduced.ineqs == (tiny.normalize(),)

    def test_tiny_negative_minimum_is_not_entailed(self):
        polyhedron = Polyhedron([LinIneq.geq(10**7 * X, -1)])
        assert not polyhedron.entails(LinIneq.geq(X, 0))
        assert polyhedron.minimize(LinIneq.geq(X, 0).expr) \
            == Fraction(-1, 10**7)

    def test_zero_minimum_is_entailed_but_kept_by_reduce(self):
        rows = [LinIneq.geq(X, Y), LinIneq.geq(Y, 0), LinIneq.geq(X, 0)]
        assert Polyhedron(rows[:2]).entails(rows[2])
        assert len(Polyhedron(rows).reduce().ineqs) == 3

    def test_unconstrained_variable(self):
        polyhedron = poly_box(x=(0, 1))
        assert not polyhedron.entails(LinIneq.geq(Y, 0))
        assert polyhedron.minimize(LinIneq.geq(Y, 0).expr) is None
        empty = Polyhedron([LinIneq.geq(X, 1), LinIneq.leq(X, 0)])
        assert empty.entails(LinIneq.geq(Y, 0))


class TestLattice:
    def test_meet(self):
        met = poly_box(x=(0, 10)).meet(poly_box(x=(5, 20)).ineqs)
        assert met.var_bounds("x").lower == 5
        assert met.var_bounds("x").upper == 10

    def test_join_keeps_mutually_entailed(self):
        a = Polyhedron(LinIneq.equals(X, Polynomial.constant(0)) +
                       box({"n": (1, 10)}))
        b = Polyhedron(LinIneq.equals(X, N) + box({"n": (1, 10)}))
        joined = a.join(b)
        assert joined.entails(LinIneq.geq(X, 0))
        assert joined.entails(LinIneq.leq(X, N))
        assert not joined.entails(LinIneq.leq(X, 0))

    def test_join_with_bottom(self):
        polyhedron = poly_box(x=(1, 2))
        assert polyhedron.join(Polyhedron.bottom()) == polyhedron
        assert Polyhedron.bottom().join(polyhedron) == polyhedron

    def test_join_keeps_redundant_stable_bounds(self):
        # The nested_single regression: i <= n+1 must survive the join
        # even though the transient i <= 1 makes it redundant.
        a = Polyhedron([LinIneq.geq(X, 0), LinIneq.leq(X, 0)]
                       + list(box({"n": (1, 100)})))
        b = Polyhedron([LinIneq.geq(X, 1), LinIneq.leq(X, 1),
                        LinIneq.leq(X, N + 1)] + list(box({"n": (1, 100)})))
        joined = a.join(b)
        assert any("n" in str(i) and "x" in str(i) for i in joined.ineqs)

    def test_widen_drops_unstable(self):
        old = poly_box(x=(0, 1))
        new = poly_box(x=(0, 2))
        widened = old.widen(new)
        assert widened.entails(LinIneq.geq(X, 0))
        assert not widened.entails(LinIneq.leq(X, 2))

    def test_reduce_removes_redundant(self):
        polyhedron = Polyhedron([
            LinIneq.geq(X, 0), LinIneq.geq(X, -5), LinIneq.leq(X, 3),
        ])
        assert len(polyhedron.reduce().ineqs) == 2

    def test_reduce_detects_empty(self):
        polyhedron = Polyhedron([LinIneq.geq(X, 1), LinIneq.leq(X, 0)])
        assert polyhedron.reduce().is_bottom()


class TestProjection:
    def test_project_out_transfers_bounds(self):
        polyhedron = Polyhedron([
            LinIneq.leq(X, Y), LinIneq.leq(Y, 5), LinIneq.geq(Y, 0),
        ])
        projected = polyhedron.project_out(["y"])
        assert projected.entails(LinIneq.leq(X, 5))
        assert "y" not in projected.variables

    def test_projection_is_sound_overapproximation(self):
        polyhedron = Polyhedron([
            LinIneq.geq(X + Y, 2), LinIneq.leq(X - Y, 0),
            LinIneq.leq(X, 4), LinIneq.geq(Y, -1), LinIneq.leq(Y, 6),
        ])
        projected = polyhedron.project_out(["y"])
        for x in range(-10, 11):
            for y in range(-10, 11):
                if polyhedron.contains_point({"x": x, "y": y}):
                    assert projected.contains_point({"x": x})


class TestTransfer:
    def _transition(self, guard=(), updates=None):
        return Transition(Location("a"), Location("b"),
                          tuple(guard), updates or {})

    def test_affine_assignment(self):
        polyhedron = poly_box(x=(0, 5))
        post = polyhedron.transfer(
            self._transition(updates={"x": X + 1}), ["x"]
        )
        interval = post.var_bounds("x")
        assert (interval.lower, interval.upper) == (1, 6)

    def test_guard_restricts(self):
        polyhedron = poly_box(x=(0, 5))
        post = polyhedron.transfer(
            self._transition(guard=[LinIneq.geq(X, 3)]), ["x"]
        )
        assert post.var_bounds("x").lower == 3

    def test_blocked_guard_gives_bottom(self):
        polyhedron = poly_box(x=(0, 5))
        post = polyhedron.transfer(
            self._transition(guard=[LinIneq.geq(X, 7)]), ["x"]
        )
        assert post.is_bottom()

    def test_nondet_update_bounded_by_expressions(self):
        polyhedron = poly_box(n=(1, 10))
        post = polyhedron.transfer(
            self._transition(
                updates={"x": NondetUpdate(Polynomial.constant(0), N)}
            ),
            ["x", "n"],
        )
        assert post.entails(LinIneq.geq(X, 0))
        assert post.entails(LinIneq.leq(X, N))

    def test_nonaffine_update_falls_back_to_intervals(self):
        polyhedron = poly_box(n=(2, 4))
        post = polyhedron.transfer(
            self._transition(updates={"x": N * N}), ["x", "n"]
        )
        interval = post.var_bounds("x")
        assert interval.lower <= 4 and interval.upper >= 16

    def test_relational_fact_preserved(self):
        polyhedron = Polyhedron([LinIneq.leq(X, N)] + list(box({"n": (1, 9)})))
        post = polyhedron.transfer(
            self._transition(updates={"x": X - 1}), ["x", "n"]
        )
        assert post.entails(LinIneq.leq(X, N - 1))


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3),
                          st.integers(-6, 6)), min_size=1, max_size=5))
def test_join_contains_both_operands(rows):
    ineqs = [
        LinIneq(Fraction(a) * LinIneq.geq(X, 0).expr
                + Fraction(b) * LinIneq.geq(Y, 0).expr
                + Fraction(c))
        for a, b, c in rows
    ]
    base = list(box({"x": (-5, 5), "y": (-5, 5)}))
    a_side = Polyhedron(base + ineqs[: len(ineqs) // 2 + 1])
    b_side = Polyhedron(base + ineqs[len(ineqs) // 2:])
    joined = a_side.join(b_side)
    for x in range(-5, 6):
        for y in range(-5, 6):
            point = {"x": x, "y": y}
            if a_side.contains_point(point) or b_side.contains_point(point):
                assert joined.contains_point(point)


# -- seeded differential tests of the integer-row operations ---------------
#
# Random canonical systems (1-4 variables, 0-12 rows, coefficients in
# [-4, 4]) are built around an integer point of the box [-2, 2]^n, so
# most are feasible; slack 0 makes a row tight at that point (its
# minimum over the others is often exactly zero), and the population
# also carries duplicated rows, scaled copies and contradictory pairs.
# Fourier-Motzkin and reduce() are compared with oracles written the
# way the domain used to compute them, on AffineExpr arithmetic and
# one fresh Polyhedron per redundancy test.

SYSTEM_SEED = 20261018
NAMES = ("w", "x", "y", "z")


def random_system(rng: random.Random) -> tuple[list[LinIneq], set[str]]:
    names = NAMES[:rng.randint(1, 4)]
    point = {name: rng.randint(-2, 2) for name in names}
    rows: list[LinIneq] = []
    tags: set[str] = set()
    for _ in range(rng.randint(0, 12)):
        if rows and rng.random() < 0.15:
            tags.add("duplicate")
            rows.append(LinIneq(rows[rng.randrange(len(rows))].expr
                                .scale(rng.randint(1, 3))))
            continue
        coeffs = {name: rng.randint(-4, 4) for name in names}
        slack = 0 if rng.random() < 0.4 else rng.randint(1, 5)
        constant = slack - sum(coeffs[n] * point[n] for n in names)
        rows.append(LinIneq(AffineExpr(coeffs, constant)))
    if rows and rng.random() < 0.2:
        tags.add("contradiction")
        expr = rows[rng.randrange(len(rows))].expr
        rows.append(LinIneq(-expr - rng.randint(1, 3)))
    return [row.normalize() for row in rows], tags


def systems(count: int, seed: int = SYSTEM_SEED):
    rng = random.Random(seed)
    return [random_system(rng) for _ in range(count)]


def old_eliminate(ineqs: list[LinIneq], var: str) -> list[LinIneq]:
    """Fourier-Motzkin as the domain used to compute it: scale, add and
    normalize AffineExpr rows."""
    free, positive, negative = [], [], []
    for ineq in ineqs:
        coefficient = ineq.expr.coefficient(var)
        if coefficient > 0:
            positive.append(ineq)
        elif coefficient < 0:
            negative.append(ineq)
        else:
            free.append(ineq)
    for pos in positive:
        a_pos = pos.expr.coefficient(var)
        for neg in negative:
            a_neg = neg.expr.coefficient(var)
            combined = pos.expr.scale(-a_neg) + neg.expr.scale(a_pos)
            free.append(LinIneq(combined).normalize())
    result, seen = [], set()
    for ineq in free:
        if ineq.is_trivial() or ineq in seen:
            continue
        seen.add(ineq)
        result.append(ineq)
    return result


def old_entails_for_pruning(polyhedron: Polyhedron, ineq: LinIneq) -> bool:
    """The redundancy test reduce() used to ask of a rebuilt polyhedron."""
    if polyhedron.is_bottom():
        return True
    canonical = ineq.normalize()
    if canonical.is_trivial():
        return True
    if not polyhedron.ineqs:
        return False
    if canonical in polyhedron.ineqs:
        return True
    if polyhedron.is_empty():
        return True
    minimum = polyhedron.minimize(canonical.expr)
    return minimum is not None and minimum > 0


def old_reduce(polyhedron: Polyhedron) -> Polyhedron:
    if polyhedron.is_bottom():
        return polyhedron
    if polyhedron.is_empty():
        return Polyhedron.bottom()
    kept = list(polyhedron.ineqs)
    index = 0
    while index < len(kept):
        rest = Polyhedron(kept[:index] + kept[index + 1:])
        if old_entails_for_pruning(rest, kept[index]):
            kept.pop(index)
        else:
            index += 1
    return Polyhedron(kept)


class TestIntegerRowOperations:
    def test_eliminate_matches_affine_arithmetic(self):
        tags, resolvents = set(), 0
        for rows, system_tags in systems(300):
            tags |= system_tags
            integer_rows = [_integer_row(row) for row in rows]
            for var in NAMES:
                expected = old_eliminate(rows, var)
                got = _eliminate(integer_rows, var)
                assert got == expected
                assert [str(r) for r in got] == [str(r) for r in expected]
                resolvents += len(got)
        assert {"duplicate", "contradiction"} <= tags
        assert resolvents > 1000

    def test_reduce_matches_rebuilt_polyhedra(self):
        seen = set()
        for rows, _ in systems(300):
            polyhedron = Polyhedron(rows)
            expected = old_reduce(polyhedron)
            reduced = polyhedron.reduce()
            assert reduced.is_bottom() == expected.is_bottom()
            assert reduced.ineqs == expected.ineqs
            if reduced.is_bottom():
                seen.add("bottom")
            elif len(reduced.ineqs) == 1:
                seen.add("single")
            for row in reduced.ineqs:
                rest = Polyhedron(r for r in reduced.ineqs if r != row)
                if (rest.ineqs and not rest.is_empty()
                        and rest.minimize(row.expr) == 0):
                    seen.add("tight")
        assert seen == {"bottom", "single", "tight"}

    def test_reduce_edge_cases(self):
        assert Polyhedron.bottom().reduce().is_bottom()
        lone = Polyhedron([LinIneq.geq(X, 3)])
        assert lone.reduce().ineqs == lone.ineqs
        # Each of x >= y, y >= x is tight (minimum 0) given the other:
        # both stay.
        tight = Polyhedron([LinIneq.geq(X, Y), LinIneq.geq(Y, X)])
        assert tight.reduce().ineqs == tight.ineqs
        # A row on a variable no other row mentions is unbounded: kept.
        free_var = Polyhedron([LinIneq.geq(X, 0), LinIneq.geq(Y, 0)])
        assert free_var.reduce().ineqs == free_var.ineqs

    @pytest.mark.parametrize("max_constraints", [64, 3])
    def test_project_out_is_sound(self, max_constraints):
        rng = random.Random(SYSTEM_SEED + max_constraints)
        for rows, _ in systems(40, seed=SYSTEM_SEED + max_constraints):
            polyhedron = Polyhedron(rows)
            names = sorted(polyhedron.variables)
            if not names:
                continue
            dropped = rng.sample(names, rng.randint(1, len(names)))
            kept = [name for name in names if name not in dropped]
            projected = polyhedron.project_out(dropped, max_constraints)
            assert projected.variables <= set(kept)
            for values in itertools.product(range(-2, 3), repeat=len(names)):
                point = dict(zip(names, values))
                if polyhedron.contains_point(point):
                    assert projected.contains_point(
                        {name: point[name] for name in kept}
                    )
