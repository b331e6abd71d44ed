"""The simultaneous PF / anti-PF / threshold synthesis (paper Section 5).

:class:`DiffCostAnalyzer` wires the whole pipeline together:

1. affine invariants for both program versions (or user-supplied maps);
2. symbolic templates per location plus the threshold symbol ``t``;
3. PF constraints on the new version, anti-PF constraints on the old
   version, and the differential cost constraint over Θ0;
4. Handelman conversion to an LP and a solve with ``minimize t``.

The analyzer also exposes the machinery reused by the symbolic-bound,
refutation and single-program entry points.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable

from repro.config import DEFAULT_CONFIG, AnalysisConfig
from repro.core.constraints import (
    LOWER,
    UPPER,
    TemplateSet,
    collect_certificate_constraints,
    differential_constraint,
)
from repro.core.potentials import (
    ANTI_POTENTIAL,
    POTENTIAL,
    PotentialFunction,
)
from repro.core.results import AnalysisStatus, DiffCostResult
from repro.errors import AnalysisError
from repro.handelman.encode import ImplicationConstraint, encode_implication
from repro.invariants.generator import InvariantMap, generate_invariants
from repro.lang.lower import LoweredProgram
from repro.lp.backend import get_backend
from repro.lp.dual import IncrementalLP
from repro.lp.model import LPModel
from repro.lp.solution import LPSolution, LPStatus
from repro.poly.linexpr import AffineExpr
from repro.poly.polynomial import Polynomial
from repro.poly.template import TemplatePolynomial
from repro.ts.guards import LinIneq
from repro.ts.system import TransitionSystem
from repro.utils.naming import FreshNameGenerator
from repro.utils.rationals import Numeric, as_fraction, rationalize
from repro.utils.timers import Stopwatch

THRESHOLD_SYMBOL = "t"

ProgramLike = TransitionSystem | LoweredProgram


@dataclass
class ThresholdSearchResult:
    """Outcome of probing a set of threshold caps (see
    :meth:`DiffCostAnalyzer.threshold_search`)."""

    #: The minimized threshold under the loosest probed cap (``None``
    #: when even the loosest cap admits no certificate).
    threshold: Fraction | None
    #: cap -> does a certificate with ``t <= cap`` exist?
    feasible: dict[Fraction, bool] = field(default_factory=dict)
    #: Aggregated :class:`~repro.lp.dual.IncrementalLP` counters.
    lp_stats: dict = field(default_factory=dict)

    def tightest_feasible(self) -> Fraction | None:
        """The smallest cap that still admits a certificate."""
        admitted = [cap for cap, ok in self.feasible.items() if ok]
        return min(admitted) if admitted else None


def _unpack(program: ProgramLike) -> tuple[TransitionSystem, dict]:
    if isinstance(program, LoweredProgram):
        return program.system, dict(program.invariant_hints)
    if isinstance(program, TransitionSystem):
        return program, {}
    raise AnalysisError(
        f"expected a TransitionSystem or LoweredProgram, got {program!r}"
    )


def program_invariants(system: TransitionSystem, hints: dict,
                       config: AnalysisConfig) -> InvariantMap:
    """The affine invariant map of one program under ``config``.

    Only the widening knobs (``widening_delay``, ``narrowing_passes``)
    and the program itself (its system plus ``invariant(...)`` hints)
    determine the map: template degree, Handelman ``K`` and the LP
    backend do not, which is what lets every rung of a portfolio share
    one map per program (:func:`repro.engine.jobs.run_job`).
    """
    return generate_invariants(
        system,
        hints=hints,
        widening_delay=config.widening_delay,
        narrowing_passes=config.narrowing_passes,
    )


class DiffCostAnalyzer:
    """Synthesizes a differential threshold for a program pair.

    ``old`` and ``new`` may be :class:`TransitionSystem` or
    :class:`~repro.lang.lower.LoweredProgram` (whose ``invariant(...)``
    hints are then used during invariant generation).
    """

    def __init__(self, old: ProgramLike, new: ProgramLike,
                 config: AnalysisConfig | None = None,
                 old_invariants: InvariantMap | None = None,
                 new_invariants: InvariantMap | None = None):
        self.config = config or DEFAULT_CONFIG
        self.old_system, self._old_hints = _unpack(old)
        self.new_system, self._new_hints = _unpack(new)
        self._old_invariants = old_invariants
        self._new_invariants = new_invariants
        self.stopwatch = Stopwatch()

    # -- pipeline pieces -------------------------------------------------

    def invariants(self) -> tuple[InvariantMap, InvariantMap]:
        """Compute (and cache) the invariant maps of both versions that
        were not supplied to the constructor."""
        with self.stopwatch.phase("invariants"):
            if self._old_invariants is None:
                self._old_invariants = program_invariants(
                    self.old_system, self._old_hints, self.config
                )
            if self._new_invariants is None:
                self._new_invariants = program_invariants(
                    self.new_system, self._new_hints, self.config
                )
        return self._old_invariants, self._new_invariants

    def combined_theta0(self) -> tuple[LinIneq, ...]:
        """Θ0 of the pair: the union of both versions' constraints.

        The paper requires both versions to share Θ0; in practice the
        versions may declare different local variables (zero-initialized
        by the frontend), so the union keeps the shared input box plus
        each side's local facts.
        """
        seen: set[LinIneq] = set()
        combined: list[LinIneq] = []
        for ineq in self.old_system.init_constraint + self.new_system.init_constraint:
            canonical = ineq.normalize()
            if canonical not in seen:
                seen.add(canonical)
                combined.append(canonical)
        return tuple(combined)

    def build_constraints(self, bound: TemplatePolynomial) -> tuple[
            TemplateSet, TemplateSet, list[ImplicationConstraint]]:
        """Steps 1-2: templates plus all implication constraints."""
        old_invariants, new_invariants = self.invariants()
        with self.stopwatch.phase("constraints"):
            fresh = FreshNameGenerator()
            new_templates = TemplateSet.build(
                self.new_system, self.config.degree, prefix="new"
            )
            old_templates = TemplateSet.build(
                self.old_system, self.config.degree, prefix="old"
            )
            constraints = collect_certificate_constraints(
                self.new_system, new_invariants, new_templates, UPPER, fresh
            )
            constraints.extend(
                collect_certificate_constraints(
                    self.old_system, old_invariants, old_templates, LOWER, fresh
                )
            )
            constraints.append(
                differential_constraint(
                    self.combined_theta0(),
                    new_templates.at(self.new_system.initial_location),
                    old_templates.at(self.old_system.initial_location),
                    bound,
                )
            )
        return old_templates, new_templates, constraints

    def encode(self, constraints: list[ImplicationConstraint]) -> LPModel:
        """Step 3: Handelman conversion of every implication."""
        with self.stopwatch.phase("encoding"):
            model = LPModel()
            fresh = FreshNameGenerator()
            for constraint in constraints:
                encode_implication(
                    constraint, model, fresh, self.config.max_products
                )
        return model

    def solve(self, model: LPModel) -> LPSolution:
        """Step 4: LP solve with the configured backend."""
        from repro.obs import span

        with self.stopwatch.phase("lp"):
            backend = get_backend(self.config.lp_backend)
            with span("lp-solve", cat="lp",
                      args={"backend": self.config.lp_backend,
                            "variables": model.num_variables,
                            "constraints": model.num_constraints}):
                return backend.solve(model)

    # -- main entry point -------------------------------------------------------

    def compute_threshold(self) -> DiffCostResult:
        """Synthesize and minimize a differential threshold."""
        bound = TemplatePolynomial.from_symbol(THRESHOLD_SYMBOL)
        old_templates, new_templates, constraints = self.build_constraints(bound)
        model = self.encode(constraints)
        model.minimize(AffineExpr.variable(THRESHOLD_SYMBOL))
        solution = self.solve(model)

        result = DiffCostResult(
            status=AnalysisStatus.UNKNOWN,
            lp_variables=model.num_variables,
            lp_constraints=model.num_constraints,
        )
        if solution.status is not LPStatus.OPTIMAL:
            result.message = (
                f"LP {solution.status.value}: no certificate of the "
                f"requested shape (d={self.config.degree}, "
                f"K={self.config.max_products}); {solution.message}"
            )
            result.timings = self.stopwatch.as_dict()
            return result

        result.status = AnalysisStatus.THRESHOLD
        threshold = solution.value(THRESHOLD_SYMBOL)
        if isinstance(threshold, float):
            threshold += 0.0  # a float LP's -0.0 optimum reports as 0.0
        result.threshold = threshold
        result.potential_new = extract_certificate(
            new_templates, solution, POTENTIAL
        )
        result.anti_potential_old = extract_certificate(
            old_templates, solution, ANTI_POTENTIAL
        )
        if self.config.check_certificates:
            self._check_result(result)
        result.timings = self.stopwatch.as_dict()
        return result

    def threshold_search(self, candidates: Iterable[Numeric]
                         ) -> ThresholdSearchResult:
        """Probe which caps ``t <= c`` admit a certificate, sharing one
        encoding and one factorized basis across every probe.

        The loosest candidate solves cold (and yields the minimized
        threshold); each tighter candidate is an rhs patch on the
        threshold variable's bound row followed by a dual-simplex
        re-solve from the previous optimal basis — no re-encoding, no
        fresh factorization (see :class:`~repro.lp.dual.IncrementalLP`).
        Feasibility is monotone in the cap, so probing stops at the
        first infeasible candidate (every tighter cap is recorded
        infeasible without a solve); probed caps are still *verified*
        exactly by the LP rather than inferred from the minimum.

        Always exact — probes go through the incremental exact solver
        regardless of ``config.lp_backend``.
        """
        caps = sorted({as_fraction(c) for c in candidates}, reverse=True)
        if not caps:
            raise AnalysisError("threshold_search needs at least one "
                                "candidate cap")
        bound = TemplatePolynomial.from_symbol(THRESHOLD_SYMBOL)
        _, _, constraints = self.build_constraints(bound)
        model = self.encode(constraints)
        model.add_variable(THRESHOLD_SYMBOL, upper=caps[0])
        model.minimize(AffineExpr.variable(THRESHOLD_SYMBOL))
        feasible: dict[Fraction, bool] = {}
        threshold: Fraction | None = None
        with self.stopwatch.phase("lp"):
            incremental = IncrementalLP(model)
            for index, cap in enumerate(caps):
                solution = (incremental.solve() if index == 0
                            else incremental.update_upper(
                                THRESHOLD_SYMBOL, cap))
                admitted = solution.status is LPStatus.OPTIMAL
                feasible[cap] = admitted
                if admitted and threshold is None:
                    threshold = solution.value(THRESHOLD_SYMBOL)
                if not admitted:
                    for tighter in caps[index + 1:]:
                        feasible[tighter] = False
                    break
        return ThresholdSearchResult(
            threshold=threshold, feasible=feasible,
            lp_stats=dict(incremental.stats),
        )

    def _check_result(self, result: DiffCostResult) -> None:
        """Run-based certificate check on sampled Θ0 inputs (opt-in via
        ``AnalysisConfig.check_certificates``)."""
        import random

        from repro.core.checker import CertificateChecker, sample_inputs

        with self.stopwatch.phase("checking"):
            checker = CertificateChecker(
                tolerance=self.config.check_tolerance
            )
            rng = random.Random(self.config.check_seed)
            inputs = sample_inputs(
                self.new_system, self.config.check_samples, rng,
                max_range=self.config.check_max_range,
            )
            report = checker.check_diffcost(
                self.old_system, self.new_system, float(result.threshold),
                result.potential_new, result.anti_potential_old, inputs,
            )
            result.check_report = report
            if not report.ok:
                result.message = (
                    f"certificate check found {len(report.violations)} "
                    f"violation(s): {report.violations[0]}"
                )


def extract_certificate(templates: TemplateSet, solution: LPSolution,
                        kind: str) -> PotentialFunction:
    """Instantiate a template set with LP solution values.

    Float backend values are rationalized; coefficients smaller than
    1e-9 are snapped to zero to keep certificates readable.
    """
    assignment: dict[str, Fraction] = {}
    for symbol in templates.symbols:
        value = solution.value(symbol)
        if isinstance(value, Fraction):
            assignment[symbol] = value
        else:
            value = float(value)
            assignment[symbol] = (
                Fraction(0) if abs(value) < 1e-9 else rationalize(value)
            )
    mapping = {
        location: template.instantiate(assignment)
        for location, template in templates.templates.items()
    }
    return PotentialFunction(templates.system, mapping, kind)


def analyze_diffcost(old: ProgramLike, new: ProgramLike,
                     config: AnalysisConfig | None = None,
                     old_invariants: InvariantMap | None = None,
                     new_invariants: InvariantMap | None = None,
                     ) -> DiffCostResult:
    """One-call convenience wrapper around :class:`DiffCostAnalyzer`
    (precomputed invariant maps are used as given)."""
    return DiffCostAnalyzer(old, new, config, old_invariants,
                            new_invariants).compute_threshold()
