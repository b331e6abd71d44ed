"""Single-program cost bounds with precision guarantees (Section 7).

Simultaneously synthesize a PF ``φ`` (upper bound) and an anti-PF ``χ``
(lower bound) for *one* program, together with a value ``p`` minimized
subject to

    ∀x ∈ Θ0.  φ(ℓ0,x) − χ(ℓ0,x) ≤ p

By Theorem 7.1, ``p`` bounds the distance of either bound from the true
cost of any run — a precision guarantee no prior unary cost analysis
provides.
"""

from __future__ import annotations

from repro.config import DEFAULT_CONFIG, AnalysisConfig
from repro.core.constraints import (
    LOWER,
    UPPER,
    TemplateSet,
    collect_certificate_constraints,
    differential_constraint,
)
from repro.core.diffcost import (
    ProgramLike,
    _unpack,
    extract_certificate,
    program_invariants,
)
from repro.core.potentials import ANTI_POTENTIAL, POTENTIAL
from repro.core.results import AnalysisStatus, SingleProgramResult
from repro.handelman.encode import encode_implication
from repro.invariants.generator import InvariantMap
from repro.lp.backend import get_backend
from repro.lp.model import LPModel
from repro.lp.solution import LPStatus
from repro.poly.linexpr import AffineExpr
from repro.poly.template import TemplatePolynomial
from repro.utils.naming import FreshNameGenerator

PRECISION_SYMBOL = "p"


def analyze_single_program(program: ProgramLike,
                           config: AnalysisConfig | None = None,
                           invariants: InvariantMap | None = None,
                           ) -> SingleProgramResult:
    """Compute upper/lower cost bounds with a minimized precision gap."""
    config = config or DEFAULT_CONFIG
    system, hints = _unpack(program)
    if invariants is None:
        invariants = program_invariants(system, hints, config)

    fresh = FreshNameGenerator()
    upper_templates = TemplateSet.build(system, config.degree, prefix="ub")
    lower_templates = TemplateSet.build(system, config.degree, prefix="lb")
    constraints = collect_certificate_constraints(
        system, invariants, upper_templates, UPPER, fresh
    )
    constraints.extend(
        collect_certificate_constraints(
            system, invariants, lower_templates, LOWER, fresh
        )
    )
    # Precision constraint: x ∈ Θ0 ⇒ p − φ(ℓ0,x) + χ(ℓ0,x) >= 0.  This
    # is the differential constraint applied to the program against
    # itself, which is exactly how Section 7 derives it.
    constraints.append(
        differential_constraint(
            tuple(system.init_constraint),
            upper_templates.at(system.initial_location),
            lower_templates.at(system.initial_location),
            TemplatePolynomial.from_symbol(PRECISION_SYMBOL),
            name="precision",
        )
    )

    model = LPModel()
    encoding_fresh = FreshNameGenerator()
    for constraint in constraints:
        encode_implication(constraint, model, encoding_fresh, config.max_products)
    model.minimize(AffineExpr.variable(PRECISION_SYMBOL))

    solution = get_backend(config.lp_backend).solve(model)
    if solution.status is not LPStatus.OPTIMAL:
        return SingleProgramResult(
            status=AnalysisStatus.UNKNOWN,
            message=(
                f"LP {solution.status.value}: no certificate of the "
                f"requested shape (d={config.degree}, K={config.max_products})"
            ),
        )
    return SingleProgramResult(
        status=AnalysisStatus.THRESHOLD,
        precision=solution.value(PRECISION_SYMBOL),
        upper=extract_certificate(upper_templates, solution, POTENTIAL),
        lower=extract_certificate(lower_templates, solution, ANTI_POTENTIAL),
    )
