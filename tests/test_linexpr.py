"""Unit and property tests for affine expressions."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import PolynomialError
from repro.poly.linexpr import AffineExpr
from repro.poly.polynomial import Polynomial

A = AffineExpr.variable("a")
B = AffineExpr.variable("b")


class TestAffineExprBasics:
    def test_zero(self):
        assert AffineExpr.zero().is_zero()
        assert AffineExpr.zero().is_constant()

    def test_constant(self):
        expr = AffineExpr.constant(Fraction(3, 2))
        assert expr.constant_term == Fraction(3, 2)
        assert expr.is_constant()

    def test_coefficients_normalized(self):
        expr = AffineExpr({"a": 0, "b": 2})
        assert expr.symbols == frozenset({"b"})

    def test_coefficient_lookup(self):
        expr = 2 * A - B
        assert expr.coefficient("a") == 2
        assert expr.coefficient("b") == -1
        assert expr.coefficient("missing") == 0


class TestAffineExprArithmetic:
    def test_add_sub(self):
        assert (A + B) - B == A

    def test_scalar_multiplication(self):
        assert 2 * A == A + A
        assert A * Fraction(1, 2) == A.scale(Fraction(1, 2))

    def test_right_subtraction(self):
        assert (3 - A).constant_term == 3
        assert (3 - A).coefficient("a") == -1

    def test_negation(self):
        assert -(A - B) == B - A

    def test_combination_equals_sum_of_scaled(self):
        terms = [(A + 1, Fraction(2)), (B - A, Fraction(3)),
                 (A - B, Fraction(3))]
        assert AffineExpr.combination(terms) == A.scale(2) + 2
        assert AffineExpr.combination([(A, Fraction(1)),
                                       (A, Fraction(-1))]).is_zero()
        assert AffineExpr.combination([]) == AffineExpr.zero()


class TestAffineExprEvaluation:
    def test_evaluate(self):
        assert (A - 2 * B + 3).evaluate({"a": 1, "b": 2}) == 0

    def test_evaluate_partial(self):
        partial = (A + B + 1).evaluate_partial({"a": 2})
        assert partial == B + 3

    def test_rename_merges(self):
        assert (A + B).rename({"a": "b"}) == 2 * B


class TestAffineExprConversions:
    def test_to_polynomial_roundtrip(self):
        expr = 2 * A - B + 5
        assert AffineExpr.from_polynomial(expr.to_polynomial()) == expr

    def test_from_polynomial_rejects_nonaffine(self):
        x = Polynomial.variable("x")
        with pytest.raises(PolynomialError):
            AffineExpr.from_polynomial(x * x)


symbols = st.sampled_from(["a", "b", "c"])


@st.composite
def affine_exprs(draw):
    coeffs = draw(st.dictionaries(symbols, st.integers(-5, 5), max_size=3))
    return AffineExpr(coeffs, draw(st.integers(-5, 5)))


@settings(max_examples=60, deadline=None)
@given(affine_exprs(), affine_exprs())
def test_vector_space_laws(x, y):
    assert x + y == y + x
    assert x - x == AffineExpr.zero()
    assert (x + y).scale(2) == x.scale(2) + y.scale(2)


@settings(max_examples=60, deadline=None)
@given(affine_exprs(),
       st.dictionaries(symbols, st.integers(-5, 5), min_size=3, max_size=3))
def test_evaluation_linear(x, point):
    assert x.scale(3).evaluate(point) == 3 * x.evaluate(point)
    assert x.to_polynomial().evaluate(point) == x.evaluate(point)
