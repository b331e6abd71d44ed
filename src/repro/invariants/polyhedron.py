"""A polyhedra-lite abstract domain: conjunctions of affine inequalities.

Every semantic query — emptiness, an affine minimum, an entailment, the
redundancy test of :meth:`Polyhedron.reduce` — is one LP answered by the
exact integer dual simplex of :mod:`repro.invariants.kernel`, fed the
polyhedron's coprime integer rows (built once per immutable polyhedron).
Verdicts are exact sign tests, with no floating-point solver and no
tolerance anywhere in invariant generation:

- empty ⇔ the LP is infeasible;
- ``P`` entails ``e >= 0`` ⇔ ``P`` is empty or ``min_P e >= 0``;
- a row ``e >= 0`` is pruned as redundant w.r.t. the other rows ``R``
  ⇔ ``R`` is empty or ``min_R e > 0`` (keeping rows that are tight at
  zero).

The join is the *weak join* (mutual entailment filter), which
over-approximates the convex hull; widening is the standard
constraint-dropping widening.  Existential projection uses
Fourier-Motzkin elimination on the rows' coprime integer coefficients:
each resolvent is an integer multiply-add of two rows divided by the
gcd of its entries, built as a canonical :class:`LinIneq` once.
:meth:`Polyhedron.reduce` builds the polyhedron's integer system once
and asks the kernel about each candidate row over the indices of the
rows still kept.  Each polyhedron also carries a lazily built
``frozenset`` of its rows, which answers membership tests and keys the
memo tables.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from repro.invariants import kernel
from repro.invariants.intervals import Interval, polynomial_range
from repro.poly.linexpr import AffineExpr
from repro.poly.polynomial import Polynomial
from repro.ts.guards import LinIneq
from repro.ts.system import COST_VAR, NondetUpdate, Transition

_POST_SUFFIX = "!post"

# Memo tables (polyhedra are immutable value objects, so results are
# shared freely across instances with equal constraint sets).
_ENTAILS_CACHE: dict[tuple, bool] = {}
_EMPTY_CACHE: dict[frozenset, bool] = {}
_CACHE_LIMIT = 200_000


class Polyhedron:
    """An immutable conjunction of :class:`LinIneq` (or bottom)."""

    __slots__ = ("_ineqs", "_bottom", "_rows", "_rowset")

    def __init__(self, ineqs: Iterable[LinIneq] = (), bottom: bool = False):
        normalized: list[LinIneq] = []
        seen: set[LinIneq] = set()
        for ineq in ineqs:
            canonical = ineq.normalize()
            if canonical.is_trivial() or canonical in seen:
                continue
            if canonical.is_contradiction():
                bottom = True
                break
            seen.add(canonical)
            normalized.append(canonical)
        self._bottom = bottom
        self._ineqs: tuple[LinIneq, ...] = () if bottom else tuple(normalized)
        self._rows = None
        self._rowset: frozenset[LinIneq] | None = None

    # -- constructors ---------------------------------------------------

    @staticmethod
    def top() -> "Polyhedron":
        """The universe (no constraints)."""
        return Polyhedron()

    @staticmethod
    def bottom() -> "Polyhedron":
        """The empty polyhedron."""
        return Polyhedron(bottom=True)

    # -- inspection -----------------------------------------------------

    @property
    def ineqs(self) -> tuple[LinIneq, ...]:
        """The constraint conjunction (empty for top and bottom)."""
        return self._ineqs

    def is_bottom(self) -> bool:
        """True iff the polyhedron is (known) empty.

        The constructor only detects syntactic contradictions; call
        :meth:`reduce` to decide emptiness semantically.
        """
        return self._bottom

    @property
    def variables(self) -> frozenset[str]:
        """Variables mentioned by any constraint."""
        names: set[str] = set()
        for ineq in self._ineqs:
            names.update(ineq.variables)
        return frozenset(names)

    def _row_set(self) -> frozenset[LinIneq]:
        """The rows as a set, built once per polyhedron."""
        if self._rowset is None:
            self._rowset = frozenset(self._ineqs)
        return self._rowset

    def contains_point(self, valuation: Mapping[str, int]) -> bool:
        """Membership test for a concrete valuation."""
        if self._bottom:
            return False
        return all(ineq.holds(valuation) for ineq in self._ineqs)

    # -- LP-backed queries ------------------------------------------------

    def _system(self) -> tuple[dict[str, int], list[list[int]], list[int]]:
        """The rows as the kernel consumes them: a column index per
        variable, integer coefficient rows and integer offsets.  Rows are
        canonical (coprime integers), so this is exact; it is built once
        per polyhedron."""
        if self._rows is None:
            index = {name: k for k, name in enumerate(sorted(self.variables))}
            rows: list[list[int]] = []
            offsets: list[int] = []
            for ineq in self._ineqs:
                row = [0] * len(index)
                for name, coeff in ineq.expr.coefficients():
                    row[index[name]] = coeff.numerator
                rows.append(row)
                offsets.append(ineq.expr.constant_term.numerator)
            self._rows = (index, rows, offsets)
        return self._rows

    def _minimum(self, expr: AffineExpr) -> tuple[str, Fraction | None]:
        """Kernel status and exact minimum of ``expr`` over the
        polyhedron."""
        index, rows, offsets = self._system()
        objective = [0] * len(index)
        for name, coeff in expr.coefficients():
            if name not in index:
                # An unconstrained variable: unbounded unless empty.
                if self.is_empty():
                    return kernel.INFEASIBLE, None
                return kernel.UNBOUNDED, None
            objective[index[name]] = coeff
        result = kernel.minimize(rows, offsets, objective)
        if result.status != kernel.OPTIMAL:
            return result.status, None
        return result.status, result.value + expr.constant_term

    def is_empty(self) -> bool:
        """Semantic emptiness: the kernel proves the rows infeasible."""
        if self._bottom:
            return True
        if not self._ineqs:
            return False
        key = self._row_set()
        cached = _EMPTY_CACHE.get(key)
        if cached is not None:
            return cached
        result = self._minimum(AffineExpr.zero())[0] == kernel.INFEASIBLE
        if len(_EMPTY_CACHE) < _CACHE_LIMIT:
            _EMPTY_CACHE[key] = result  # lint: allow[mutable-global-write] pure memo cache; worker divergence is perf-only
        return result

    def minimize(self, expr: AffineExpr) -> Fraction | None:
        """Exact minimum of an affine expression over the polyhedron.

        Returns ``None`` when unbounded below and raises ``ValueError``
        on an empty polyhedron.
        """
        if self._bottom:
            raise ValueError("minimize called on an empty polyhedron")
        status, value = self._minimum(expr)
        if status == kernel.INFEASIBLE:
            raise ValueError("minimize called on an empty polyhedron")
        return value

    def entails(self, ineq: LinIneq) -> bool:
        """Does every point of the polyhedron satisfy ``ineq``?

        Exactly when the polyhedron is empty or the minimum of
        ``ineq``'s expression over it is nonnegative.
        """
        if self._bottom:
            return True
        canonical = ineq.normalize()
        if canonical.is_trivial():
            return True
        if not self._ineqs:
            return False
        rowset = self._row_set()
        if canonical in rowset:
            return True
        key = (rowset, canonical)
        cached = _ENTAILS_CACHE.get(key)
        if cached is not None:
            return cached
        status, value = self._minimum(canonical.expr)
        result = status == kernel.INFEASIBLE or (
            status == kernel.OPTIMAL and value >= 0
        )
        if len(_ENTAILS_CACHE) < _CACHE_LIMIT:
            _ENTAILS_CACHE[key] = result  # lint: allow[mutable-global-write] pure memo cache; worker divergence is perf-only
        return result

    def entails_all(self, other: "Polyhedron") -> bool:
        """Inclusion check ``self ⊆ other``."""
        if self._bottom:
            return True
        if other._bottom:
            return self.is_empty()
        return all(self.entails(ineq) for ineq in other._ineqs)

    def var_bounds(self, var: str) -> Interval:
        """Exact interval bounds of ``var`` over the polyhedron."""
        if self._bottom:
            return Interval.point(0)
        expr = AffineExpr.variable(var)
        lower = self.minimize(expr)
        negated_upper = self.minimize(-expr)
        upper = None if negated_upper is None else -negated_upper
        if lower is not None and upper is not None and lower > upper:
            return Interval.point(0)  # empty; callers treat as degenerate
        return Interval(lower, upper)

    def all_bounds(self) -> dict[str, Interval]:
        """Interval bounds for every mentioned variable."""
        return {var: self.var_bounds(var) for var in sorted(self.variables)}

    # -- lattice operations --------------------------------------------------

    def meet(self, other: "Polyhedron | Iterable[LinIneq]") -> "Polyhedron":
        """Conjunction."""
        if isinstance(other, Polyhedron):
            if self._bottom or other._bottom:
                return Polyhedron.bottom()
            return Polyhedron(self._ineqs + other._ineqs)
        if self._bottom:
            return Polyhedron.bottom()
        return Polyhedron(self._ineqs + tuple(other))

    def join(self, other: "Polyhedron") -> "Polyhedron":
        """Weak join: keep each side's constraints entailed by the other.

        Sound (the result contains both operands) though weaker than the
        convex hull.  All mutually entailed constraints are kept, even
        mutually redundant ones: a constraint such as ``i <= n + 1`` may
        be redundant w.r.t. a transient ``i <= 1`` now but must survive
        the widening that later drops the transient one — eager
        redundancy elimination here is exactly what loses loop bounds.
        """
        if self._bottom or self.is_empty():
            return other
        if other._bottom or other.is_empty():
            return self
        kept = [ineq for ineq in self._ineqs if other.entails(ineq)]
        present = set(kept)
        for ineq in other._ineqs:
            canonical = ineq.normalize()
            if canonical not in present and self.entails(ineq):
                present.add(canonical)
                kept.append(ineq)
        return Polyhedron(kept)

    def widen(self, newer: "Polyhedron") -> "Polyhedron":
        """Standard widening: drop constraints not entailed by ``newer``."""
        if self._bottom:
            return newer
        if newer._bottom:
            return self
        return Polyhedron(
            ineq for ineq in self._ineqs if newer.entails(ineq)
        )

    def reduce(self) -> "Polyhedron":
        """Remove redundant constraints; detect emptiness.

        Rows are visited in order; a row is dropped when the rows still
        kept, ``R``, entail it strictly: ``R`` is empty or the row's
        minimum over ``R`` is positive.  A row whose minimum is exactly
        zero is kept, as is a row with no other row left (the Table 1
        invariant maps pinned by the golden test depend on this strict
        rule).  The result describes the same set of points.
        """
        if self._bottom:
            return self
        if self.is_empty():
            return Polyhedron.bottom()
        _, rows, offsets = self._system()
        kept = list(range(len(rows)))
        position = 0
        while position < len(kept):
            candidate = kept[position]
            rest = kept[:position] + kept[position + 1:]
            if rest and _redundant(rows, offsets, rest, candidate):
                kept.pop(position)
            else:
                position += 1
        return Polyhedron(self._ineqs[k] for k in kept)

    # -- projection -------------------------------------------------------------

    def project_out(self, variables: Sequence[str],
                    max_constraints: int = 64) -> "Polyhedron":
        """Existentially quantify ``variables`` via Fourier-Motzkin.

        Whenever an elimination leaves more than ``max_constraints``
        rows, they are pruned with :meth:`reduce`; if still too many,
        only the first ``max_constraints`` rows are kept (sound:
        dropping constraints only enlarges the polyhedron).
        """
        if self._bottom:
            return self
        current = list(self._ineqs)
        remaining = list(variables)
        while remaining:
            rows = [_integer_row(ineq) for ineq in current]

            # Pick the variable with the fewest pairings to limit growth.
            def elimination_size(var: str) -> int:
                pos = sum(1 for _, coeffs, _ in rows if coeffs.get(var, 0) > 0)
                neg = sum(1 for _, coeffs, _ in rows if coeffs.get(var, 0) < 0)
                return pos * neg

            remaining.sort(key=elimination_size)
            var = remaining.pop(0)
            current = _eliminate(rows, var)
            if len(current) > max_constraints:
                reduced = Polyhedron(current).reduce()
                current = list(reduced.ineqs)
                if len(current) > max_constraints:
                    current = current[:max_constraints]
        return Polyhedron(current)

    # -- transfer function ---------------------------------------------------------

    def transfer(self, transition: Transition,
                 state_variables: Sequence[str]) -> "Polyhedron":
        """Strongest affine postcondition (over-approximated).

        The pre-state is constrained by the guard; post-state variables
        are introduced as primed copies related to the pre-state by the
        updates (equalities for affine updates, interval bounds for
        non-affine ones, bound inequalities for nondet); pre-state
        variables are then projected out.  The ``cost`` variable is not
        tracked (potentials never mention it).
        """
        guarded = self.meet(transition.guard)
        if guarded.is_empty():
            return Polyhedron.bottom()

        constraints: list[LinIneq] = list(guarded.ineqs)
        primed: list[str] = []
        interval_cache: dict[str, Interval] | None = None
        for var in state_variables:
            if var == COST_VAR:
                continue
            update = transition.update_of(var)
            post = var + _POST_SUFFIX
            primed.append(var)
            if isinstance(update, NondetUpdate):
                post_poly = Polynomial.variable(post)
                if update.lower is not None:
                    constraints.append(LinIneq.geq(post_poly, update.lower))
                if update.upper is not None:
                    constraints.append(LinIneq.leq(post_poly, update.upper))
                continue
            if update.is_affine():
                post_poly = Polynomial.variable(post)
                constraints.extend(LinIneq.equals(post_poly, update))
                continue
            # Non-affine polynomial update: fall back to interval bounds.
            if interval_cache is None:
                interval_cache = guarded.all_bounds()
            value_range = polynomial_range(update, interval_cache)
            post_poly = Polynomial.variable(post)
            if value_range.lower is not None:
                constraints.append(
                    LinIneq.geq(post_poly, Polynomial.constant(value_range.lower))
                )
            if value_range.upper is not None:
                constraints.append(
                    LinIneq.leq(post_poly, Polynomial.constant(value_range.upper))
                )

        polyhedron = Polyhedron(constraints)
        polyhedron = polyhedron.project_out(
            [var for var in state_variables if var != COST_VAR]
        )
        renaming = {var + _POST_SUFFIX: var for var in primed}
        return Polyhedron(ineq.rename(renaming) for ineq in polyhedron.ineqs)

    # -- dunder plumbing ---------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polyhedron):
            return NotImplemented
        if self._bottom or other._bottom:
            return self._bottom == other._bottom
        return self._row_set() == other._row_set()

    def __hash__(self) -> int:
        return hash((self._bottom, self._row_set()))

    def __str__(self) -> str:
        if self._bottom:
            return "false"
        if not self._ineqs:
            return "true"
        return " and ".join(str(ineq) for ineq in self._ineqs)

    def __repr__(self) -> str:
        return f"Polyhedron({str(self)!r})"


#: A canonical row with its coprime integer coefficients and constant.
_IntegerRow = tuple[LinIneq, dict[str, int], int]


def _integer_row(ineq: LinIneq) -> _IntegerRow:
    """``ineq`` (canonical) with its integer coefficients and constant."""
    expr = ineq.expr
    coeffs = {name: coeff.numerator for name, coeff in expr.coefficients()}
    return ineq, coeffs, expr.constant_term.numerator


def _eliminate(rows: Sequence[_IntegerRow], var: str) -> list[LinIneq]:
    """One Fourier-Motzkin elimination step over canonical integer rows.

    Rows free of ``var`` come first, then one resolvent per (positive,
    negative) pair in order: ``pos·(-a_neg) + neg·a_pos`` computed on
    integers and divided by the gcd of its entries, i.e. the canonical
    form of the combination.  Trivial rows and repeats are dropped.
    """
    free: list[LinIneq] = []
    positive: list[_IntegerRow] = []
    negative: list[_IntegerRow] = []
    for row in rows:
        coefficient = row[1].get(var, 0)
        if coefficient > 0:
            positive.append(row)
        elif coefficient < 0:
            negative.append(row)
        else:
            free.append(row[0])
    for _, pos_coeffs, pos_constant in positive:
        a_pos = pos_coeffs[var]
        for _, neg_coeffs, neg_constant in negative:
            factor = -neg_coeffs[var]
            combined = {name: coeff * factor
                        for name, coeff in pos_coeffs.items() if name != var}
            for name, coeff in neg_coeffs.items():
                if name != var:
                    combined[name] = combined.get(name, 0) + coeff * a_pos
            free.append(LinIneq.from_integer_row(
                combined, pos_constant * factor + neg_constant * a_pos
            ))
    # Drop syntactic duplicates and trivia.
    result: list[LinIneq] = []
    seen: set[LinIneq] = set()
    for ineq in free:
        if ineq.is_trivial() or ineq in seen:
            continue
        seen.add(ineq)
        result.append(ineq)
    return result


def _redundant(rows: Sequence[Sequence[int]], offsets: Sequence[int],
               rest: Sequence[int], candidate: int) -> bool:
    """The pruning rule of :meth:`Polyhedron.reduce`: the rows indexed
    by ``rest`` are empty or the candidate row's minimum over them is
    strictly positive."""
    result = kernel.minimize([rows[k] for k in rest],
                             [offsets[k] for k in rest], rows[candidate])
    return result.status == kernel.INFEASIBLE or (
        result.status == kernel.OPTIMAL
        and result.value + offsets[candidate] > 0
    )
