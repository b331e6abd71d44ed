"""Unit tests for symbolic polynomial templates."""

from fractions import Fraction

from repro.poly.linexpr import AffineExpr
from repro.poly.monomial import Monomial
from repro.poly.polynomial import Polynomial
from repro.poly.template import TemplatePolynomial

X = Polynomial.variable("x")


def fresh_template(degree=1, variables=("x",)):
    return TemplatePolynomial.fresh(
        list(variables), degree, name_of=lambda m: f"u[{m}]"
    )


class TestTemplateConstruction:
    def test_fresh_has_one_symbol_per_monomial(self):
        template = fresh_template(degree=2, variables=("x", "y"))
        assert len(template.monomials()) == 6
        assert len(template.symbols) == 6

    def test_from_polynomial_embeds_constants(self):
        template = TemplatePolynomial.from_polynomial(2 * X + 1)
        assert template.coefficient(Monomial.of("x")) == AffineExpr.constant(2)
        assert template.symbols == frozenset()

    def test_from_symbol(self):
        template = TemplatePolynomial.from_symbol("t")
        assert template.coefficient(Monomial.one()) == AffineExpr.variable("t")


class TestTemplateArithmetic:
    def test_add_and_subtract_polynomial(self):
        template = fresh_template()
        assert (template + X) - X == template

    def test_subtraction_of_equal_templates_is_zero(self):
        template = fresh_template()
        assert (template - template).is_zero()

    def test_scale(self):
        template = fresh_template()
        doubled = template.scale(2)
        for mono in template.monomials():
            assert doubled.coefficient(mono) == template.coefficient(mono).scale(2)


class TestTemplateSubstitution:
    def test_substitute_shifts_linearly(self):
        template = fresh_template()
        shifted = template.substitute({"x": X + 1})
        # Coefficient of x stays u[x]; the constant becomes u[1] + u[x].
        assert shifted.coefficient(Monomial.of("x")) == AffineExpr.variable("u[x]")
        assert shifted.coefficient(Monomial.one()) == (
            AffineExpr.variable("u[1]") + AffineExpr.variable("u[x]")
        )

    def test_substitution_commutes_with_instantiation(self):
        template = fresh_template(degree=2)
        assignment = {"u[1]": Fraction(1), "u[x]": Fraction(-2),
                      "u[x^2]": Fraction(3)}
        update = {"x": 2 * X - 1}
        via_template = template.substitute(update).instantiate(assignment)
        via_polynomial = template.instantiate(assignment).substitute(update)
        assert via_template == via_polynomial

    def test_instantiate_drops_zero_coefficients(self):
        template = fresh_template()
        poly = template.instantiate({"u[1]": Fraction(0), "u[x]": Fraction(1)})
        assert poly == X

    def test_evaluate_program_vars(self):
        template = fresh_template(degree=2)
        expr = template.evaluate_program_vars({"x": 3})
        assert expr == (AffineExpr.variable("u[1]")
                        + AffineExpr.variable("u[x]").scale(3)
                        + AffineExpr.variable("u[x^2]").scale(9))
