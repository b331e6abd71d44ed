"""Proving symbolic polynomial bounds on the cost difference (Section 5).

Instead of a constant threshold ``t``, a polynomial ``p(x)`` over the
program inputs is verified:

    ∀x ∈ Θ0. CostSup_new(ℓ0,x) − CostInf_old(ℓ0,x) ≤ p(x)

This drops the minimization objective (polynomials over a set of inputs
have no canonical optimization order — the paper's motivation for
thresholds) and embeds ``p`` in the differential constraint.
"""

from __future__ import annotations

from repro.config import AnalysisConfig
from repro.core.diffcost import (
    DiffCostAnalyzer,
    ProgramLike,
    extract_certificate,
)
from repro.core.potentials import ANTI_POTENTIAL, POTENTIAL
from repro.core.results import AnalysisStatus, BoundProofResult
from repro.errors import AnalysisError
from repro.invariants.generator import InvariantMap
from repro.lp.solution import LPStatus
from repro.poly.polynomial import Polynomial
from repro.poly.template import TemplatePolynomial


def prove_symbolic_bound(old: ProgramLike, new: ProgramLike,
                         bound: Polynomial,
                         config: AnalysisConfig | None = None,
                         old_invariants: InvariantMap | None = None,
                         new_invariants: InvariantMap | None = None,
                         ) -> BoundProofResult:
    """Attempt to prove ``cost_new − cost_old ≤ bound(x)`` for all
    inputs in Θ0.

    The template degree must be at least ``bound``'s degree (the paper's
    requirement d ≥ deg p); a too-small configured degree is raised as
    an error rather than silently failing.  Precomputed invariant maps
    are used as given.
    """
    analyzer = DiffCostAnalyzer(old, new, config, old_invariants,
                                new_invariants)
    if bound.degree > analyzer.config.degree:
        raise AnalysisError(
            f"template degree {analyzer.config.degree} is smaller than the "
            f"bound's degree {bound.degree}; raise AnalysisConfig.degree"
        )
    unknown_vars = bound.variables - set(analyzer.old_system.variables).union(
        analyzer.new_system.variables
    )
    if unknown_vars:
        raise AnalysisError(
            f"bound mentions unknown variables {sorted(unknown_vars)}"
        )

    embedded = TemplatePolynomial.from_polynomial(bound)
    old_templates, new_templates, constraints = analyzer.build_constraints(embedded)
    model = analyzer.encode(constraints)
    # Pure feasibility: any solution is a proof.
    solution = analyzer.solve(model)

    if solution.status is not LPStatus.OPTIMAL:
        return BoundProofResult(
            status=AnalysisStatus.UNKNOWN,
            bound=bound,
            message=(
                f"LP {solution.status.value}: no certificate of the requested "
                f"shape; the bound may still hold"
            ),
        )
    return BoundProofResult(
        status=AnalysisStatus.PROVED,
        bound=bound,
        potential_new=extract_certificate(new_templates, solution, POTENTIAL),
        anti_potential_old=extract_certificate(
            old_templates, solution, ANTI_POTENTIAL
        ),
    )
