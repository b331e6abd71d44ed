"""Exact integer simplex for the polyhedral domain's small LPs.

Every query the domain asks — emptiness, an affine minimum, an
entailment — is an LP over a handful of free variables and a few dozen
rows ``a_i·x + b_i >= 0`` with coprime integer coefficients.  Such a
primal has ``n`` free columns and ``m`` rows; its dual

    min  b·y   s.t.  Aᵀy = c,  y >= 0

has only ``n`` equality rows, so the tableau is ``n`` rows tall however
many constraints the polyhedron carries.  Duality gives every answer:

- dual optimal: the primal is feasible with ``min c·x = -min b·y``, and
  the optimal ``y`` is a Farkas certificate (``Σ y_i·a_i = c``);
- dual unbounded: the primal is empty;
- dual infeasible: the primal is empty or unbounded; the ``c = 0``
  dual, which ``y = 0`` always satisfies, separates the two.

The tableau is fraction-free: entries are integers over one common
denominator (the basis determinant) updated by Bareiss' exact-division
step, and pivots follow Bland's rule, so the method terminates on
degenerate systems without any tolerance.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence

from repro.lint.sanitizer import exact_region

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


class KernelResult(NamedTuple):
    """Outcome of :func:`minimize`.

    ``value`` is the exact minimum and ``multipliers`` the optimal dual
    ``y`` (one per row, ``y >= 0``, ``Σ y_i·a_i = c``); both are ``None``
    unless ``status`` is :data:`OPTIMAL`.
    """

    status: str
    value: Fraction | None = None
    multipliers: tuple[Fraction, ...] | None = None


def minimize(rows: Sequence[Sequence[int]], offsets: Sequence[int],
             objective: Sequence[int | Fraction]) -> KernelResult:
    """Minimise ``objective·x`` over ``{x : rows[i]·x + offsets[i] >= 0}``.

    ``rows`` and ``offsets`` are integers; ``objective`` (one entry per
    column, ``x`` free) may be rational.  The status names the primal
    outcome: :data:`OPTIMAL`, :data:`INFEASIBLE` (empty polyhedron) or
    :data:`UNBOUNDED`.
    """
    with exact_region("invariants.kernel"):
        objective = [Fraction(c) for c in objective]
        # Any common multiple of the denominators makes the costs
        # integral; objectives are almost always integral already.
        scale = 1
        for c in objective:
            if scale % c.denominator:
                scale *= c.denominator
        costs = [c.numerator * (scale // c.denominator) for c in objective]
        solved = _solve_dual(rows, offsets, costs)
        if solved is None:
            return KernelResult(INFEASIBLE)
        if solved is _DUAL_INFEASIBLE:
            # Empty or unbounded; the c = 0 dual is feasible (y = 0),
            # so it is unbounded exactly when the polyhedron is empty.
            if _solve_dual(rows, offsets, [0] * len(costs)) is None:
                return KernelResult(INFEASIBLE)
            return KernelResult(UNBOUNDED)
        numerator, denominator, duals = solved
        return KernelResult(
            OPTIMAL,
            Fraction(numerator, denominator * scale),
            tuple(Fraction(y, denominator * scale) for y in duals),
        )


#: Sentinel: the dual has no feasible point (phase 1 optimum > 0).
_DUAL_INFEASIBLE = object()


def _solve_dual(rows: Sequence[Sequence[int]], offsets: Sequence[int],
                costs: list[int]):
    """Two-phase integer simplex on ``min b·y, Aᵀy = c, y >= 0``.

    Returns :data:`_DUAL_INFEASIBLE`, ``None`` when the dual is
    unbounded, or ``(num, det, duals)`` with primal optimum ``num/det``
    and dual solution ``duals[i]/det``.
    """
    m = len(rows)
    # One tableau row per primal variable, one column per primal row
    # plus the right-hand side; rows are sign-flipped so rhs >= 0.
    lines = []
    for k, cost in enumerate(costs):
        line = [row[k] for row in rows]
        line.append(cost)
        lines.append([-entry for entry in line] if cost < 0 else line)
    tableau = _Tableau(lines, m)
    # Phase-1 cost row (sum of artificials, reduced) and the phase-2
    # cost row, carried along so it never needs rebuilding.
    phase1 = [-sum(column) for column in zip(*lines)] if lines \
        else [0] * (m + 1)
    phase2 = [int(b) for b in offsets] + [0]
    tableau.run(phase1, (phase1, phase2))
    if phase1[m] != 0:
        return _DUAL_INFEASIBLE
    # Drive zero-level artificials out of the basis; a row with no
    # structural entry is redundant and keeps its artificial at zero.
    for r, line in enumerate(lines):
        if tableau.basis[r] >= m:
            column = next((j for j in range(m) if line[j] != 0), None)
            if column is not None:
                tableau.pivot(r, column, (phase2,))
    if not tableau.run(phase2, (phase2,)):
        return None
    duals = [0] * m
    for line, var in zip(lines, tableau.basis):
        if var < m:
            duals[var] = line[m]
    return phase2[m], tableau.det, duals


class _Tableau:
    """A fraction-free simplex tableau over columns ``0 .. width-1``
    plus a right-hand side; every entry is an integer over the common
    denominator ``det`` (the basis determinant, kept positive).

    The initial basis is an implicit artificial per row (column
    ``width + row``); an artificial that leaves is dropped, so
    artificial columns are never stored.
    """

    __slots__ = ("lines", "basis", "det", "width")

    def __init__(self, lines: list[list[int]], width: int):
        self.lines = lines
        self.basis = [width + k for k in range(len(lines))]
        self.det = 1
        self.width = width

    def run(self, cost: list[int], cost_rows) -> bool:
        """Bland's-rule simplex on ``cost`` (one of ``cost_rows``, which
        all follow the pivots); False iff unbounded."""
        m = self.width
        while True:
            entering = next((j for j in range(m) if cost[j] < 0), None)
            if entering is None:
                return True
            leaving = None
            for r, line in enumerate(self.lines):
                entry = line[entering]
                if entry <= 0:
                    continue
                if leaving is None:
                    leaving = r
                    continue
                best = self.lines[leaving]
                # rhs_r / entry vs rhs_best / best_entry, both over det.
                lhs = line[m] * best[entering]
                rhs = best[m] * entry
                if lhs < rhs or (lhs == rhs
                                 and self.basis[r] < self.basis[leaving]):
                    leaving = r
            if leaving is None:
                return False
            self.pivot(leaving, entering, cost_rows)

    def pivot(self, r: int, s: int, cost_rows) -> None:
        """Bareiss pivot on ``lines[r][s]``; a negative pivot (only
        taken on a zero-level row) negates every row afterwards so the
        determinant stays positive."""
        det = self.det
        pivot_line = self.lines[r]
        p = pivot_line[s]
        others = [line for i, line in enumerate(self.lines) if i != r]
        others.extend(cost_rows)
        for line in others:
            factor = line[s]
            if factor == 0:
                if p != det:
                    for j, entry in enumerate(line):
                        line[j] = entry * p // det
                continue
            for j, entry in enumerate(line):
                line[j] = (entry * p - factor * pivot_line[j]) // det
        self.basis[r] = s
        if p < 0:
            for line in others + [pivot_line]:
                for j, entry in enumerate(line):
                    line[j] = -entry
            p = -p
        self.det = p
