"""Unit and property tests for affine guard inequalities."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.poly.linexpr import AffineExpr
from repro.poly.polynomial import Polynomial
from repro.ts.guards import LinIneq, all_hold, box

X = Polynomial.variable("x")
Y = Polynomial.variable("y")


class TestConstruction:
    def test_geq_leq(self):
        assert LinIneq.geq(X, 3).holds({"x": 3})
        assert not LinIneq.geq(X, 3).holds({"x": 2})
        assert LinIneq.leq(X, 3).holds({"x": 3})
        assert not LinIneq.leq(X, 3).holds({"x": 4})

    def test_strict_integer_semantics(self):
        less = LinIneq.less_than(X, 3)
        assert less.holds({"x": 2})
        assert not less.holds({"x": 3})
        greater = LinIneq.greater_than(X, 3)
        assert greater.holds({"x": 4})
        assert not greater.holds({"x": 3})

    def test_equals_pair(self):
        pair = LinIneq.equals(X, Y)
        assert all_hold(pair, {"x": 2, "y": 2})
        assert not all_hold(pair, {"x": 2, "y": 3})

    def test_nonaffine_rejected(self):
        from repro.errors import PolynomialError

        with pytest.raises(PolynomialError):
            LinIneq.geq(X * X, 0)

    def test_constants(self):
        assert LinIneq.geq(1, 0).is_trivial()
        assert LinIneq.geq(-1, 0).is_contradiction()
        assert LinIneq.always_true().is_trivial()


class TestLogic:
    def test_negation_partitions_integers(self):
        ineq = LinIneq.leq(X, 5)
        for value in range(-10, 10):
            assert ineq.holds({"x": value}) != ineq.negate().holds({"x": value})

    def test_double_negation_equivalent(self):
        ineq = LinIneq.geq(2 * X - Y, 3)
        double = ineq.negate().negate()
        for x in range(-5, 6):
            for y in range(-5, 6):
                point = {"x": x, "y": y}
                assert ineq.holds(point) == double.holds(point)

    def test_substitute(self):
        ineq = LinIneq.geq(X, 1).substitute({"x": Y + 1})
        assert ineq.holds({"y": 0})
        assert not ineq.holds({"y": -1})

    def test_normalize_scales_to_coprime_integers(self):
        a = LinIneq(AffineExpr({"x": 2}, -4))
        b = LinIneq(AffineExpr({"x": 1}, -2))
        assert a.normalize() == b.normalize()

    def test_normalize_fractions(self):
        a = LinIneq(AffineExpr({"x": Fraction(1, 2)}, Fraction(1, 3)))
        normalized = a.normalize()
        coeffs = [c for _, c in normalized.expr.coefficients()]
        assert all(c.denominator == 1 for c in coeffs)
        assert normalized.expr.constant_term.denominator == 1


class TestBox:
    def test_box_inequalities(self):
        constraints = box({"n": (1, 100)})
        assert all_hold(constraints, {"n": 1})
        assert all_hold(constraints, {"n": 100})
        assert not all_hold(constraints, {"n": 0})
        assert not all_hold(constraints, {"n": 101})


@settings(max_examples=50, deadline=None)
@given(st.integers(-10, 10), st.integers(-10, 10), st.integers(-10, 10))
def test_comparison_constructors_match_python(a, b, x):
    point = {"x": x}
    lhs = a * X + b
    assert LinIneq.geq(lhs, 0).holds(point) == (a * x + b >= 0)
    assert LinIneq.leq(lhs, 0).holds(point) == (a * x + b <= 0)
    assert LinIneq.less_than(lhs, 0).holds(point) == (a * x + b < 0)
    assert LinIneq.greater_than(lhs, 0).holds(point) == (a * x + b > 0)


@given(st.dictionaries(st.sampled_from("wxyz"), st.integers(-12, 12)),
       st.integers(-12, 12))
def test_from_integer_row_is_the_normal_form(coeffs, constant):
    built = LinIneq.from_integer_row(coeffs, constant)
    expected = LinIneq(AffineExpr(coeffs, constant)).normalize()
    assert built == expected
    assert str(built) == str(expected)
    assert built.normalize() is built
