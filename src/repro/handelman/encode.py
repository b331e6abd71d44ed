"""Encoding of implication constraints into LP equalities.

Each :class:`ImplicationConstraint` ``⋀ aff_i >= 0 ⇒ poly >= 0`` becomes

    poly(x)  ==  Σ_{g ∈ Prod_K(Aff)} c_g · g(x),   c_g >= 0

as a polynomial identity: for every monomial, the (template-linear)
coefficient on the left equals the linear combination of the products'
coefficients on the right.  All generated constraints are linear in the
template symbols and the fresh ``c_g``, so the result is an LP.

The identity is accumulated in one pass: a mutable map from monomial to
``{symbol: coefficient}`` is seeded with the consequent and each product
subtracts its ``c_g`` column into it, so encoding is linear in the total
size of the products.  One :class:`AffineExpr` is built per monomial at
the end, and the equalities are emitted in sorted-monomial order, rows
that cancel to zero skipped.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from repro.handelman.products import generate_products
from repro.lint.sanitizer import exact_region
from repro.lp.model import LPModel
from repro.poly.linexpr import AffineExpr
from repro.poly.monomial import Monomial
from repro.poly.template import TemplatePolynomial
from repro.ts.guards import LinIneq
from repro.utils.naming import FreshNameGenerator


@dataclass
class ImplicationConstraint:
    """``premise ⇒ consequent >= 0`` with a template-linear consequent."""

    premise: tuple[LinIneq, ...]
    consequent: TemplatePolynomial
    name: str

    def __str__(self) -> str:
        premise = " and ".join(str(p) for p in self.premise) or "true"
        return f"[{self.name}] {premise} => {self.consequent} >= 0"


@dataclass
class EncodingStats:
    """Size accounting for one encoded implication."""

    products: int
    monomials: int


def encode_implication(constraint: ImplicationConstraint, model: LPModel,
                       fresh: FreshNameGenerator,
                       max_factors: int) -> EncodingStats:
    """Encode one implication into ``model``; returns size statistics.

    Fresh nonnegative multiplier variables are named
    ``c[<constraint name>]!<index>``.
    """
    with exact_region("handelman.encode"):
        affine_polys = [ineq.expr.to_polynomial()
                        for ineq in constraint.premise]
        products = generate_products(affine_polys, max_factors)

        # monomial -> symbol -> coefficient of ``consequent - Σ c_g·g``;
        # only the consequent contributes constants.
        rows: dict[Monomial, dict[str, Fraction]] = {}
        constants: dict[Monomial, Fraction] = {}
        for mono, expr in constraint.consequent.terms():
            rows[mono] = dict(expr.coefficients())
            constants[mono] = expr.constant_term
        for product in products:
            multiplier = fresh.fresh(f"c[{constraint.name}]")
            model.add_variable(multiplier, lower=0)
            # Normalize the product to unit max-coefficient: mathematically
            # a reparametrization of c_g (which is nonnegative either way)
            # but it keeps the LP matrix well-conditioned — degree-3
            # products of [1,100]-box constraints otherwise reach 1e6-scale
            # coefficients that make HiGHS fail.
            terms = list(product.terms())
            largest = max(abs(coeff) for _, coeff in terms)
            if largest > 1:
                terms = [(mono, coeff / largest) for mono, coeff in terms]
            for mono, coeff in terms:
                row = rows.get(mono)
                if row is None:
                    row = rows[mono] = {}
                row[multiplier] = row.get(multiplier, 0) - coeff

        emitted = 0
        for mono in sorted(rows):
            coefficient = AffineExpr(rows[mono], constants.get(mono, 0))
            if coefficient.is_zero():
                continue
            model.add_equality(coefficient, name=f"{constraint.name}:{mono}")
            emitted += 1
    return EncodingStats(products=len(products), monomials=emitted)
