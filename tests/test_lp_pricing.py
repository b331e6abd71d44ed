"""The exact simplex's column-sweep kernel against plain ``Fraction`` loops.

:meth:`RevisedSimplex._price` serves primal pricing (Dantzig and
Bland), the dual-feasibility test, the drive-out of artificials and the
dual ratio test, on integer-scaled columns.  The oracles below are the
four per-caller loops it replaced, run over the solver's ``Fraction``
columns; the kernel must choose exactly the columns they choose.

Instances are seeded sparse columns whose denominators are the ones the
Handelman LPs carry, with mixed-denominator multiplier vectors, zeros,
nonzero costs, basic columns to skip, and duplicate or scaled columns
that force ties.
"""

import random
from fractions import Fraction

import pytest

from repro.lp.revised import RevisedSimplex
from repro.lp.standard import SparseStandardForm, integer_scaled

#: Denominators seen in the encoded Table 1 LPs.
DENOMINATORS = (1, 2, 50, 100, 101, 5000, 10000, 10001, 10**6, 10**8)


# -- oracles: the per-caller loops the kernel replaced --------------------

def oracle_price(solver, costs, y, bland):
    best_j, best_reduced = -1, None
    threshold = -solver.dual_tol
    for j in range(solver.n):
        if solver.in_basis[j]:
            continue
        reduced = costs[j]
        for i, a in solver.cols[j].items():
            yi = y[i]
            if yi:
                reduced = reduced - yi * a
        if reduced < threshold:
            if bland:
                return j
            if best_reduced is None or reduced < best_reduced:
                best_j, best_reduced = j, reduced
    return best_j


def oracle_dual_feasible(solver, costs, y):
    threshold = -solver.dual_tol
    for j in range(solver.n):
        if solver.in_basis[j]:
            continue
        reduced = costs[j]
        for i, a in solver.cols[j].items():
            yi = y[i]
            if yi:
                reduced = reduced - yi * a
        if reduced < threshold:
            return False
    return True


def oracle_drive_out(solver, binv_row):
    for j in range(solver.n):
        if solver.in_basis[j]:
            continue
        value = solver.zero
        for i, a in solver.cols[j].items():
            ri = binv_row[i]
            if ri:
                value = value + ri * a
        if value > solver.pivot_tol or value < -solver.pivot_tol:
            return j
    return -1


def oracle_dual_ratio(solver, costs, y, rho):
    best_j, best_ratio = -1, None
    for j in range(solver.n):
        if solver.in_basis[j]:
            continue
        col = solver.cols[j]
        alpha = solver.zero
        for i, a in col.items():
            ri = rho[i]
            if ri:
                alpha = alpha + ri * a
        if alpha >= -solver.pivot_tol:
            continue
        reduced = costs[j]
        for i, a in col.items():
            yi = y[i]
            if yi:
                reduced = reduced - yi * a
        ratio = reduced / (-alpha)
        if best_ratio is None or ratio < best_ratio:
            best_j, best_ratio = j, ratio
    return best_j, best_ratio


# -- instances -------------------------------------------------------------

def rational(rng, zero_share=0.0):
    if rng.random() < zero_share:
        return Fraction(0)
    numerator = rng.choice((1, 1, 2, 3, 7, 99, 100, 101, 9999, 10**6 + 3))
    return Fraction(rng.choice((-1, 1)) * numerator, rng.choice(DENOMINATORS))


def build_form(rng, m, n):
    """Random sparse columns; a third of them copy (a multiple of) an
    earlier column, some with an extra entry in ``tie_row``, which the
    multiplier vectors below keep at zero, so prices tie across
    different column scales."""
    form = SparseStandardForm()
    form.rhs = [rational(rng) for _ in range(m)]  # negative rows get flipped
    tie_row = m - 1
    for j in range(n):
        if j >= 3 and rng.random() < 0.35:
            source = form.cols[rng.randrange(j)]
            factor = rng.choice((Fraction(1), Fraction(1), Fraction(3, 2),
                                 Fraction(1, 101), Fraction(10**4)))
            col = {i: factor * a for i, a in source.items()}
            if rng.random() < 0.5:
                col[tie_row] = rational(rng)
        else:
            rows = rng.sample(range(m), rng.randint(1, min(4, m)))
            col = {i: rational(rng) for i in sorted(rows)}
        form.cols.append(col)
        form.col_names.append(f"x{j}")
        form.costs.append(rational(rng, zero_share=0.7))
    return form


def vector(rng, m, zero_share=0.3):
    """A multiplier vector over mixed denominators, zero in the tie row."""
    values = [rational(rng, zero_share) for _ in range(m)]
    values[m - 1] = Fraction(0)
    return values


def solver_for(form, rng, float_mode=False):
    solver = RevisedSimplex(form, float_mode=float_mode)
    basic = set(rng.sample(range(solver.n), rng.randint(0, solver.m)))
    solver.in_basis = [j in basic for j in range(solver.n)] + [True] * solver.m
    return solver


def instances(count, float_mode=False):
    for seed in range(count):
        rng = random.Random(seed)
        m, n = rng.randint(2, 9), rng.randint(4, 40)
        form = build_form(rng, m, n)
        solver = solver_for(form, rng, float_mode)
        yield rng, solver, solver.phase2_costs()


def as_solver_vector(solver, values):
    return [float(v) for v in values] if solver.float_mode else values


# -- tests -------------------------------------------------------------------

def test_integer_scaled_puts_values_over_their_lcm():
    values = [Fraction(1, 50), Fraction(-3, 101), Fraction(0), Fraction(7)]
    numerators, scale = integer_scaled(values)
    assert scale == 5050
    assert [Fraction(v, scale) for v in numerators] == values
    assert integer_scaled([]) == ([], 1)


def test_columns_are_scaled_after_the_row_flip():
    for _rng, solver, _costs in instances(20):
        for j in range(solver.n):
            scale = solver.col_scales[j]
            assert scale > 0
            assert {i: Fraction(a, scale) for i, a in solver.scaled_cols[j]} \
                == solver.cols[j]


@pytest.mark.parametrize("bland", [False, True])
def test_pricing_matches_fraction_loop(bland):
    found = 0
    for rng, solver, costs in instances(150):
        for _ in range(4):
            y = vector(rng, solver.m)
            expected = oracle_price(solver, costs, y, bland)
            assert solver._price(costs, y, first=bland)[0] == expected
            found += expected >= 0
    assert found > 300  # most sweeps find an improving column


def test_dantzig_ties_go_to_the_lowest_index():
    form = SparseStandardForm()
    form.rhs = [Fraction(1), Fraction(1)]
    # Equal reduced costs -1/2 at different column scales (2, 100, 10^8).
    form.cols = [{0: Fraction(1, 2)}, {0: Fraction(1, 2), 1: Fraction(3, 100)},
                 {0: Fraction(1, 2), 1: Fraction(1, 10**8)}]
    form.col_names = ["a", "b", "c"]
    form.costs = [Fraction(0)] * 3
    solver = RevisedSimplex(form)
    costs = solver.phase2_costs()
    y = [Fraction(1), Fraction(0)]
    assert oracle_price(solver, costs, y, False) == 0
    assert solver._price(costs, y) == (0, -1, 2)
    solver.in_basis[0] = True
    assert solver._price(costs, y)[0] == 1


def test_dual_feasible_sweep_returns_minus_one():
    feasible = 0
    for rng, solver, costs in instances(150):
        y = vector(rng, solver.m, zero_share=0.8)
        expected = oracle_dual_feasible(solver, costs, y)
        assert (solver._price(costs, y, first=True)[0] < 0) == expected
        feasible += expected
        zero_y = [Fraction(0)] * solver.m
        nonnegative = [abs(c) for c in costs]
        assert solver._price(nonnegative, zero_y) == (-1, None, None)
    assert feasible > 5


def test_drive_out_matches_fraction_loop():
    for rng, solver, _costs in instances(150):
        for zero_share in (0.3, 0.9, 1.0):
            rho = vector(rng, solver.m, zero_share)
            expected = oracle_drive_out(solver, rho)
            assert solver._price(None, None, rho, first=True,
                                 nonzero=True)[0] == expected


def test_dual_ratio_matches_fraction_loop():
    ties = none = 0
    for rng, solver, costs in instances(200):
        for _ in range(4):
            y = vector(rng, solver.m)
            rho = vector(rng, solver.m, zero_share=0.5)
            best_j, best_ratio = oracle_dual_ratio(solver, costs, y, rho)
            j, num, den = solver._price(costs, y, rho)
            assert j == best_j
            if best_j < 0:
                none += 1
                assert (num, den) == (None, None)
                continue
            assert den > 0
            assert (not num) == (not best_ratio)
            assert (num > 0) == (best_ratio > 0)
            # The runner-up: equal to the best ratio when it tied.
            solver.in_basis[best_j] = True
            runner_up, ratio = oracle_dual_ratio(solver, costs, y, rho)
            assert solver._price(costs, y, rho)[0] == runner_up
            solver.in_basis[best_j] = False
            ties += ratio == best_ratio
    assert ties > 10 and none > 10


def test_dual_ratio_without_candidates():
    for _rng, solver, costs in instances(30):
        zero_rho = [Fraction(0)] * solver.m
        y = [Fraction(0)] * solver.m
        assert solver._price(costs, y, zero_rho) == (-1, None, None)
        assert solver._price(None, None, zero_rho, first=True,
                             nonzero=True)[0] == -1


@pytest.mark.parametrize("bland", [False, True])
def test_float_pricing_matches_float_loop(bland):
    for rng, solver, costs in instances(150, float_mode=True):
        for _ in range(3):
            y = as_solver_vector(solver, vector(rng, solver.m))
            assert solver._price(costs, y, first=bland)[0] == \
                oracle_price(solver, costs, y, bland)
            rho = as_solver_vector(solver, vector(rng, solver.m, 0.5))
            assert solver._price(None, None, rho, first=True,
                                 nonzero=True)[0] == \
                oracle_drive_out(solver, rho)
            assert (solver._price(costs, y, first=True)[0] < 0) == \
                oracle_dual_feasible(solver, costs, y)


def test_float_dual_ratio_matches_float_loop():
    """Small-integer floats keep the cross-multiplied comparison and
    the float quotients in the same order."""
    for seed in range(100):
        rng = random.Random(seed)
        m, n = rng.randint(2, 8), rng.randint(4, 30)
        form = SparseStandardForm()
        form.rhs = [Fraction(rng.randint(0, 5)) for _ in range(m)]
        for j in range(n):
            rows = rng.sample(range(m), rng.randint(1, min(3, m)))
            form.cols.append({i: Fraction(rng.choice((-3, -2, -1, 1, 2, 5)))
                              for i in sorted(rows)})
            form.col_names.append(f"x{j}")
            form.costs.append(Fraction(rng.randint(0, 4)))
        solver = solver_for(form, rng, float_mode=True)
        costs = solver.phase2_costs()
        for _ in range(3):
            y = [float(rng.randint(-2, 2)) for _ in range(m)]
            rho = [float(rng.randint(-2, 2)) for _ in range(m)]
            best_j, best_ratio = oracle_dual_ratio(solver, costs, y, rho)
            j, num, den = solver._price(costs, y, rho)
            assert j == best_j
            if j >= 0:
                assert num / den == best_ratio
