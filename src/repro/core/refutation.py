"""Threshold refutation via PFs and anti-PFs (Theorem 4.3).

Dual use of the machinery: an *anti*-potential for the **new** version
(lower bound on its cost) and a potential for the **old** version (upper
bound on its cost).  If for some input ``x ∈ Θ0``

    χ_new(ℓ0,x) − φ_old(ℓ0,x) > t

then every pair of runs on ``x`` differs by more than ``t``, so ``t`` is
not a threshold.  For a *fixed* witness input the left-hand side is
linear in the template symbols, so maximizing it is again an LP; we try
a set of witness candidates (box corners and the center of Θ0 by
default) and keep the best certified gap.

Every witness shares the same constraint system — only the objective
(the gap at that witness) changes.  With
``AnalysisConfig.lp_incremental`` (the default) the loop therefore runs
the Handelman expansion and ``encode_implication`` **once** and swaps
objectives: exact backends re-solve through
:class:`~repro.lp.dual.IncrementalLP`, which re-optimizes each witness
from the previous optimal basis (primal phase-2 pivots on one LU/eta
factorization) instead of solving cold — one factorization amortized
over up to 33 witness LPs; float backends re-solve the shared model.
``lp_incremental=False`` restores the original loop verbatim
(re-encode and solve cold per witness), kept as the A/B baseline the
perf harness measures against.  The certified gaps are bit-identical
either way: the optimal value of an LP is unique, whatever basis path
reaches it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from repro.config import AnalysisConfig
from repro.core.constraints import (
    LOWER,
    UPPER,
    TemplateSet,
    collect_certificate_constraints,
)
from repro.core.diffcost import DiffCostAnalyzer, ProgramLike, extract_certificate
from repro.core.potentials import ANTI_POTENTIAL, POTENTIAL
from repro.core.results import AnalysisStatus, RefutationResult
from repro.handelman.encode import encode_implication
from repro.invariants.generator import InvariantMap
from repro.invariants.polyhedron import Polyhedron
from repro.lp.backend import backend_is_exact, get_backend
from repro.lp.dual import IncrementalLP
from repro.lp.model import LPModel
from repro.lp.solution import LPStatus
from repro.ts.system import COST_VAR, TransitionSystem
from repro.utils.naming import FreshNameGenerator
from repro.utils.rationals import Numeric


def default_witnesses(old_system: TransitionSystem,
                      new_system: TransitionSystem,
                      theta0: Polyhedron,
                      limit: int = 33) -> list[dict[str, int]]:
    """Candidate witness inputs: Θ0-box corners plus the box center.

    Variables without finite bounds default to 0.  Points violating Θ0
    (e.g. ordering side constraints) are filtered out.
    """
    variables = sorted(
        (set(old_system.variables) | set(new_system.variables)) - {COST_VAR}
    )
    choices: list[list[int]] = []
    for var in variables:
        interval = theta0.var_bounds(var)
        low = 0 if interval.lower is None else int(interval.lower)
        high = low if interval.upper is None else int(interval.upper)
        choices.append([low] if low == high else [low, high])

    candidates: list[dict[str, int]] = []

    def expand(index: int, current: dict[str, int]) -> None:
        if len(candidates) >= limit - 1:
            return
        if index == len(variables):
            candidates.append(dict(current))
            return
        for value in choices[index]:
            current[variables[index]] = value
            expand(index + 1, current)

    expand(0, {})
    center = {
        var: (values[0] + values[-1]) // 2
        for var, values in zip(variables, choices)
    }
    candidates.append(center)
    # Degenerate boxes (or center == corner along every axis) duplicate
    # candidates; each duplicate would cost a full LP solve downstream.
    seen: set[tuple] = set()
    unique: list[dict[str, int]] = []
    for candidate in candidates:
        key = tuple(sorted(candidate.items()))
        if key not in seen:
            seen.add(key)
            unique.append(candidate)
    return [c for c in unique if theta0.contains_point(c)]


#: Solver counters worth aggregating across the cold per-witness solves
#: (mirrors what IncrementalLP totals on the incremental path).
_LP_COUNTER_KEYS = (
    "pivots", "phase1_pivots", "phase2_pivots", "dual_pivots",
    "degenerate_pivots", "bland_pivots", "refactorizations",
    "factorizations", "eta_pivots", "float_pivots", "float_factorizations",
)


def _accumulate_lp_stats(total: dict, stats: dict) -> None:
    for key in _LP_COUNTER_KEYS:
        value = stats.get(key)
        if value:
            total[key] = total.get(key, 0) + value
    for key, value in stats.items():
        if key.startswith("time_") and isinstance(value, float) and value > 0:
            total[key] = total.get(key, 0.0) + value
    max_eta = stats.get("max_eta", 0)
    if max_eta > total.get("max_eta", 0):
        total["max_eta"] = max_eta


def refute_threshold(old: ProgramLike, new: ProgramLike,
                     candidate: Numeric,
                     config: AnalysisConfig | None = None,
                     witnesses: Iterable[dict[str, int]] | None = None,
                     old_invariants: InvariantMap | None = None,
                     new_invariants: InvariantMap | None = None,
                     ) -> RefutationResult:
    """Try to prove that ``candidate`` is *not* a valid threshold.

    Sound for nondeterministic programs; complete only for deterministic
    ones (paper discussion after Theorem 4.3).  Precomputed invariant
    maps are used as given.
    """
    analyzer = DiffCostAnalyzer(old, new, config, old_invariants,
                                new_invariants)
    old_invariants, new_invariants = analyzer.invariants()
    theta0 = Polyhedron(analyzer.combined_theta0())
    if witnesses is None:
        witnesses = default_witnesses(
            analyzer.old_system, analyzer.new_system, theta0
        )
    witnesses = list(witnesses)
    if not witnesses:
        return RefutationResult(
            status=AnalysisStatus.UNKNOWN,
            candidate=candidate,
            message="no witness candidates inside Theta0",
        )

    # Certificate constraints are witness-independent: build them once.
    fresh = FreshNameGenerator()
    new_templates = TemplateSet.build(
        analyzer.new_system, analyzer.config.degree, prefix="refute-new"
    )
    old_templates = TemplateSet.build(
        analyzer.old_system, analyzer.config.degree, prefix="refute-old"
    )
    constraints = collect_certificate_constraints(
        analyzer.new_system, new_invariants, new_templates, LOWER, fresh
    )
    constraints.extend(
        collect_certificate_constraints(
            analyzer.old_system, old_invariants, old_templates, UPPER, fresh
        )
    )

    # One encoding for the whole loop: the Handelman expansion is
    # witness-independent, only the objective changes per witness.
    # With ``lp_incremental`` off the loop reproduces the pre-LU
    # behaviour verbatim — re-encode and solve cold per witness — which
    # is the A/B baseline `BENCH_lp.json`'s refutation section tracks.
    exact = backend_is_exact(analyzer.config.lp_backend)
    incremental = analyzer.config.lp_incremental

    def encode_model() -> LPModel:
        model = LPModel()
        encoding_fresh = FreshNameGenerator()
        for constraint in constraints:
            encode_implication(
                constraint, model, encoding_fresh,
                analyzer.config.max_products,
            )
        return model

    inc = None
    backend = None
    shared_model = None
    if incremental:
        shared_model = encode_model()
        if exact:
            inc = IncrementalLP(shared_model)
        else:
            backend = get_backend(analyzer.config.lp_backend)
    else:
        backend = get_backend(analyzer.config.lp_backend)
    lp_stats: dict = {"incremental": incremental, "solves": 0}

    best_gap: Fraction | float | None = None
    best_witness: dict[str, int] | None = None
    best_solution = None
    for witness in witnesses:
        chi_at_witness = new_templates.at(
            analyzer.new_system.initial_location
        ).evaluate_program_vars(witness)
        phi_at_witness = old_templates.at(
            analyzer.old_system.initial_location
        ).evaluate_program_vars(witness)
        objective = chi_at_witness - phi_at_witness
        if inc is not None:
            solution = inc.maximize(objective)
        else:
            model = shared_model if shared_model is not None else (
                encode_model()
            )
            model.maximize(objective)
            solution = backend.solve(model)
            _accumulate_lp_stats(lp_stats, solution.stats)
        lp_stats["solves"] += 1
        if solution.status is not LPStatus.OPTIMAL:
            continue
        gap = objective.evaluate(
            {name: solution.value(name) for name in objective.symbols}
        ) if exact else -float(  # lint: allow[float-cast] float-LP branch only
            solution.objective_value  # objective was negated by maximize()
        )
        # Exact comparison: Fractions (and mixed Fraction/float) compare
        # exactly in Python; casting exact gaps through float could rank
        # two distinct rationals as equal and mis-pick the witness.
        if best_gap is None or gap > best_gap:
            best_gap = gap
            best_witness = witness
            best_solution = solution
    if inc is not None:
        for key, value in inc.stats.items():
            lp_stats.setdefault(key, value)

    if best_gap is None:
        return RefutationResult(
            status=AnalysisStatus.UNKNOWN,
            candidate=candidate,
            message="no refutation certificate found (LP infeasible)",
            lp_stats=lp_stats,
        )

    refuted = best_gap > candidate
    result = RefutationResult(
        status=AnalysisStatus.REFUTED if refuted else AnalysisStatus.UNKNOWN,
        candidate=candidate,
        witness_input=best_witness,
        guaranteed_difference=best_gap,
        anti_potential_new=extract_certificate(
            new_templates, best_solution, ANTI_POTENTIAL
        ),
        potential_old=extract_certificate(
            old_templates, best_solution, POTENTIAL
        ),
        lp_stats=lp_stats,
    )
    if not refuted:
        result.message = (
            f"best certified difference {best_gap} does not exceed "
            f"candidate {candidate}"
        )
    return result
