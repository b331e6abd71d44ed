"""Affine inequalities used in guards, Θ0 and invariants.

A :class:`LinIneq` represents ``expr >= 0`` for an affine expression over
program variables.  The paper assumes all transition guards, Θ0 and
invariants are conjunctions of such inequalities (assumptions 1-3 of the
algorithm); keeping one normal form everywhere simplifies the Handelman
step, which consumes exactly these ``aff_i >= 0`` premises.

Because program variables range over integers, strict inequalities
normalize exactly: ``a < b`` becomes ``b - a - 1 >= 0``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Mapping

from repro.errors import PolynomialError
from repro.poly.linexpr import AffineExpr
from repro.poly.polynomial import Polynomial
from repro.utils.rationals import Numeric, as_fraction


class LinIneq:
    """The constraint ``expr >= 0`` for an affine ``expr``.

    >>> x = Polynomial.variable("x")
    >>> str(LinIneq.less_than(x, 10))
    '-x + 9 >= 0'
    """

    __slots__ = ("_expr", "_canonical")

    def __init__(self, expr: AffineExpr):
        self._expr = expr
        # Set by normalize() on rows known to be in canonical form, so
        # re-normalizing them (the common case in the invariant domain,
        # which copies canonical rows between polyhedra) is free.
        self._canonical = False

    # -- constructors ---------------------------------------------------

    @staticmethod
    def _affine(value: Polynomial | AffineExpr | Numeric) -> AffineExpr:
        if isinstance(value, AffineExpr):
            return value
        if isinstance(value, Polynomial):
            return AffineExpr.from_polynomial(value)
        if isinstance(value, (int, float, Fraction)):
            return AffineExpr.constant(value)
        raise PolynomialError(f"not an affine expression: {value!r}")

    @classmethod
    def geq(cls, lhs, rhs) -> "LinIneq":
        """``lhs >= rhs``."""
        return cls(cls._affine(lhs) - cls._affine(rhs))

    @classmethod
    def leq(cls, lhs, rhs) -> "LinIneq":
        """``lhs <= rhs``."""
        return cls(cls._affine(rhs) - cls._affine(lhs))

    @classmethod
    def greater_than(cls, lhs, rhs) -> "LinIneq":
        """``lhs > rhs`` over the integers (``lhs - rhs - 1 >= 0``)."""
        return cls(cls._affine(lhs) - cls._affine(rhs) - 1)

    @classmethod
    def less_than(cls, lhs, rhs) -> "LinIneq":
        """``lhs < rhs`` over the integers (``rhs - lhs - 1 >= 0``)."""
        return cls(cls._affine(rhs) - cls._affine(lhs) - 1)

    @classmethod
    def equals(cls, lhs, rhs) -> tuple["LinIneq", "LinIneq"]:
        """``lhs == rhs`` as a pair of opposite inequalities."""
        return (cls.geq(lhs, rhs), cls.leq(lhs, rhs))

    @classmethod
    def from_integer_row(cls, coeffs: Mapping[str, int],
                         constant: int) -> "LinIneq":
        """The canonical form of ``Σ coeffs·x + constant >= 0`` for
        integer entries: divided by their gcd and built once.

        Equal to ``LinIneq(AffineExpr(coeffs, constant)).normalize()``.

        >>> str(LinIneq.from_integer_row({"x": 4, "y": 0}, -6))
        '2*x - 3 >= 0'
        """
        divisor = gcd(constant, *coeffs.values())
        if divisor > 1:
            coeffs = {name: c // divisor for name, c in coeffs.items()}
            constant //= divisor
        canonical = cls(AffineExpr(coeffs, constant))
        canonical._canonical = True
        return canonical

    @staticmethod
    def always_true() -> "LinIneq":
        """The trivially satisfied inequality ``0 >= 0``."""
        return LinIneq(AffineExpr.zero())

    # -- inspection -----------------------------------------------------

    @property
    def expr(self) -> AffineExpr:
        """The affine expression constrained to be nonnegative."""
        return self._expr

    @property
    def variables(self) -> frozenset[str]:
        """Variables mentioned by the inequality."""
        return self._expr.symbols

    def is_trivial(self) -> bool:
        """True iff the inequality is variable-free and satisfied."""
        return self._expr.is_constant() and self._expr.constant_term >= 0

    def is_contradiction(self) -> bool:
        """True iff the inequality is variable-free and violated."""
        return self._expr.is_constant() and self._expr.constant_term < 0

    # -- logic ----------------------------------------------------------

    def negate(self) -> "LinIneq":
        """Integer negation: ``¬(e >= 0)`` is ``-e - 1 >= 0``.

        Sound and complete for integer-valued variables with rational
        coefficients scaled to integers; our frontend produces integer
        coefficients so the ``-1`` slack is exact.
        """
        return LinIneq(-self._expr - 1)

    def holds(self, valuation: Mapping[str, Numeric]) -> bool:
        """Evaluate at an (integer) valuation."""
        return self._expr.evaluate(valuation) >= 0

    def substitute(self, mapping: Mapping[str, Polynomial]) -> "LinIneq":
        """Substitute affine polynomials for variables.

        Raises if the result would not be affine.
        """
        substituted = self._expr.to_polynomial().substitute(mapping)
        return LinIneq(AffineExpr.from_polynomial(substituted))

    def rename(self, mapping: Mapping[str, str]) -> "LinIneq":
        """Rename variables."""
        return LinIneq(self._expr.rename(mapping))

    def normalize(self) -> "LinIneq":
        """Scale so coefficients are coprime integers (canonical form).

        Useful for deduplication in invariants: ``2x - 4 >= 0`` and
        ``x - 2 >= 0`` normalize identically.
        """
        if self._canonical:
            return self
        coeffs = [coeff for _, coeff in self._expr.coefficients()]
        coeffs.append(self._expr.constant_term)
        nonzero = [c for c in coeffs if c != 0]
        denominator_lcm = 1
        for c in nonzero:
            denominator_lcm = denominator_lcm * c.denominator // gcd(
                denominator_lcm, c.denominator
            )
        divisor = 0
        for c in nonzero:
            divisor = gcd(divisor, abs(c.numerator * denominator_lcm
                                       // c.denominator))
        if denominator_lcm == 1 and divisor <= 1:
            self._canonical = True
            return self
        canonical = LinIneq(self._expr.scale(Fraction(denominator_lcm,
                                                      divisor)))
        canonical._canonical = True
        return canonical

    # -- dunder plumbing --------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LinIneq):
            return NotImplemented
        return self._expr == other._expr

    def __hash__(self) -> int:
        return hash(("LinIneq", self._expr))

    def __str__(self) -> str:
        return f"{self._expr} >= 0"

    def __repr__(self) -> str:
        return f"LinIneq({self._expr!r})"


def all_hold(ineqs: Iterable[LinIneq], valuation: Mapping[str, Numeric]) -> bool:
    """True iff every inequality holds at ``valuation``."""
    return all(ineq.holds(valuation) for ineq in ineqs)


def box(bounds: Mapping[str, tuple[Numeric, Numeric]]) -> tuple[LinIneq, ...]:
    """Inequalities for a box ``lo <= v <= hi`` per variable.

    Convenience for Θ0 sets such as the paper's ``1 <= lenA <= 100``.
    """
    ineqs: list[LinIneq] = []
    for var in sorted(bounds):
        low, high = bounds[var]
        poly = Polynomial.variable(var)
        ineqs.append(LinIneq.geq(poly, as_fraction(low)))
        ineqs.append(LinIneq.leq(poly, as_fraction(high)))
    return tuple(ineqs)
