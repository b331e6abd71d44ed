"""Portfolio strategy: race an escalating ladder of configurations.

For one program pair, the portfolio expands a ladder of analysis
configurations — cheap low-degree templates first, richer (and slower)
ones after, with an exact-arithmetic fallback rung at the end:

    d=1, K=1 (scipy)  →  d=2, K=2 (scipy)  →  d=3, K=2 (scipy)
                      →  d=2, K=2 (exact-warm)

and runs the rungs through a :class:`~repro.engine.executor.ParallelExecutor`.
Two selection modes:

- ``"first"`` (default): the first rung *in ladder order* that produces
  a threshold wins; later rungs are cancelled.  Deterministic and
  fastest — the mode to use when any sound threshold unblocks a gate.
- ``"best"``: every rung runs; the minimal threshold among succeeding
  rungs wins (ties broken by ladder order).  Use when tightness matters
  more than latency — richer templates can only tighten the bound.

An optional **refutation stage** (``refute=True`` /
``EngineConfig.refute``) follows selection: for every pair that won a
threshold ``T``, a ``refute`` job probes the candidate ``T - margin``
with the winning rung's template shape and the exact backend.  A
refuted probe certifies the threshold tight to within ``margin``
(Theorem 4.3); an unknown probe flags slack worth escalating for.  The
probe solves one LP per witness over one shared constraint system —
exactly the shape `~repro.lp.dual.IncrementalLP` re-solves from a
single factorized basis, which is what keeps this stage affordable.

Rungs differ only in template degree, Handelman ``K`` and LP backend,
none of which the affine invariants depend on, so every rung and the
probe share one invariant map per program: the first job of a pair to
run in a process generates the old and new maps and every later one
reuses them (the content-keyed memo in :func:`repro.engine.jobs.run_job`).
Pool workers each keep their own memo.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.config import AnalysisConfig
from repro.engine.executor import ParallelExecutor
from repro.engine.jobs import AnalysisJob, JobResult
from repro.errors import AnalysisError
from repro.obs import get_logger, get_registry

_LOG = get_logger("engine.portfolio")

#: The escalation ladder as (degree, max_products, lp_backend) triples.
#: The exact rung uses the warm-started certified backend: identical
#: Fraction thresholds to plain ``exact`` (both stop at an exactly
#: verified optimal basis of the same LP) at a fraction of the latency.
DEFAULT_LADDER: tuple[tuple[int, int, str], ...] = (
    (1, 1, "scipy"),
    (2, 2, "scipy"),
    (3, 2, "scipy"),
    (2, 2, "exact-warm"),
)

PORTFOLIO_MODES = ("first", "best")


def ladder_configs(base: AnalysisConfig | None = None,
                   ladder: tuple[tuple[int, int, str], ...] = DEFAULT_LADDER,
                   ) -> list[AnalysisConfig]:
    """Instantiate the ladder, inheriting every non-raced knob of
    ``base`` (invariant tuning, certificate checking, ...)."""
    base = base or AnalysisConfig()
    return [
        replace(base, degree=degree, max_products=max_products,
                lp_backend=lp_backend)
        for degree, max_products, lp_backend in ladder
    ]


@dataclass
class PortfolioResult:
    """The outcome of racing one pair through the ladder."""

    name: str
    mode: str
    chosen: JobResult | None
    rungs: list[JobResult] = field(default_factory=list)
    #: Tightness probe of the chosen threshold (``None`` when the stage
    #: was not requested, the pair has no threshold, or the probe job
    #: failed to execute).
    refutation: JobResult | None = None

    @property
    def succeeded(self) -> bool:
        return self.chosen is not None

    @property
    def threshold(self) -> float | None:
        return self.chosen.threshold if self.chosen else None

    @property
    def seconds(self) -> float:
        """Analysis seconds actually spent on this pair *in this run*
        (summed across rungs, so parallel rungs count their combined
        compute; cached rungs arrive with 0)."""
        total = sum(rung.seconds for rung in self.rungs)
        if self.refutation is not None:
            total += self.refutation.seconds
        return total

    @property
    def tight(self) -> bool | None:
        """Did the refutation stage certify the chosen threshold tight
        (no smaller threshold within the probe margin)?  ``None`` when
        no probe completed."""
        if self.refutation is None or self.refutation.status != "ok":
            return None
        return self.refutation.outcome == "refuted"

    def chosen_rung_index(self) -> int | None:
        """Index of the winning rung in the ladder, if any."""
        if self.chosen is None:
            return None
        return self.rungs.index(self.chosen)


def record_portfolio_metrics(portfolios: list["PortfolioResult"]) -> None:
    """Count decided portfolios by outcome (observability only: called
    after selection, so it cannot influence which rung was chosen)."""
    counter = get_registry().counter(
        "repro_portfolio_pairs_total",
        "Portfolio pairs decided, by outcome.",
        ("outcome",),
    )
    for portfolio in portfolios:
        if portfolio.succeeded:
            outcome = "chosen"
        elif any(rung.failed for rung in portfolio.rungs):
            outcome = "failed"
        else:
            outcome = "unknown"
        counter.inc(outcome=outcome)


def select_result(results: list[JobResult], mode: str) -> JobResult | None:
    """Pick the portfolio winner from per-rung results.

    ``"first"``: the first success in ladder order.  ``"best"``: the
    minimal threshold among succeeding rungs (ladder order breaks ties);
    successes without a recorded threshold (e.g. ``bound`` jobs) rank
    after thresholded ones.

    Ranking uses :meth:`~repro.engine.jobs.JobResult.exact_threshold`:
    exact-backend rungs carry a ``Fraction`` whose ``float`` rendering
    can collide with (or cross) a neighbouring rung's value, and
    ranking the rounded floats would mis-pick the rung.  Fractions and
    floats compare exactly in Python, so mixed ladders order soundly.
    """
    if mode not in PORTFOLIO_MODES:
        raise AnalysisError(
            f"unknown portfolio mode {mode!r} (use one of {PORTFOLIO_MODES})"
        )
    successes = [
        (index, result) for index, result in enumerate(results)
        if result.succeeded
    ]
    if not successes:
        return None
    if mode == "first":
        return successes[0][1]

    def rank(pair):
        index, result = pair
        exact = result.exact_threshold()
        return (exact is None, 0 if exact is None else exact, index)

    return min(successes, key=rank)[1]


def portfolio_jobs(old_source: str, new_source: str, name: str,
                   base: AnalysisConfig | None = None,
                   ladder: tuple[tuple[int, int, str], ...] = DEFAULT_LADDER,
                   ) -> list[AnalysisJob]:
    """The per-rung ``diff`` jobs of one pair."""
    jobs = []
    for config in ladder_configs(base, ladder):
        rung = f"d{config.degree}K{config.max_products}:{config.lp_backend}"
        jobs.append(
            AnalysisJob(
                kind="diff",
                old_source=old_source,
                new_source=new_source,
                config=config,
                name=f"{name}[{rung}]",
            )
        )
    return jobs


#: Exact backend used by refutation probes: the gap certificates must
#: be `Fraction`s for the tightness comparison to be sound, and the
#: warm-started rung is the fastest exact solver.
REFUTE_BACKEND = "exact-warm"


def refutation_job(old_source: str, new_source: str, name: str,
                   chosen: JobResult,
                   base: AnalysisConfig | None = None,
                   margin: float = 1.0) -> AnalysisJob | None:
    """The tightness probe for a pair whose portfolio chose ``chosen``.

    Probes the candidate ``threshold - margin`` with the winning rung's
    template shape (degree / max products) and the exact backend, so a
    ``refuted`` outcome certifies no smaller threshold exists within
    ``margin`` — for integer-cost programs, ``margin=1`` means the
    computed threshold is exactly tight.  Returns ``None`` when the
    rung carries no threshold to probe.
    """
    exact = chosen.exact_threshold()
    if exact is None:
        return None
    config = replace(
        base or AnalysisConfig(),
        degree=chosen.config_summary.get("degree", 2),
        max_products=chosen.config_summary.get("max_products", 2),
        lp_backend=REFUTE_BACKEND,
    )
    return AnalysisJob(
        kind="refute",
        old_source=old_source,
        new_source=new_source,
        config=config,
        name=f"{name}[refute]",
        candidate=float(exact) - margin,
    )


def attach_refutations(portfolios: list[PortfolioResult],
                       sources: dict[str, tuple[str, str]],
                       executor: ParallelExecutor,
                       base: AnalysisConfig | None = None,
                       margin: float = 1.0) -> None:
    """Run the refutation stage for every succeeded portfolio in one
    executor wave (cache-aware) and attach the probe results."""
    jobs, owners = [], []
    for portfolio in portfolios:
        if portfolio.chosen is None:
            continue
        old_source, new_source = sources[portfolio.name]
        job = refutation_job(old_source, new_source, portfolio.name,
                             portfolio.chosen, base, margin)
        if job is not None:
            jobs.append(job)
            owners.append(portfolio)
    if not jobs:
        return
    _LOG.debug("refutation stage: probing %d pair(s)", len(jobs))
    for portfolio, result in zip(owners, executor.run(jobs)):
        portfolio.refutation = result


def run_portfolio(old_source: str, new_source: str, name: str,
                  executor: ParallelExecutor,
                  base: AnalysisConfig | None = None,
                  ladder: tuple[tuple[int, int, str], ...] = DEFAULT_LADDER,
                  mode: str = "first", refute: bool = False,
                  refute_margin: float = 1.0) -> PortfolioResult:
    """Race one pair through the ladder on ``executor``."""
    jobs = portfolio_jobs(old_source, new_source, name, base, ladder)
    if mode == "first":
        results = executor.run_escalating(jobs)
    else:
        results = executor.run(jobs)
    portfolio = PortfolioResult(
        name=name,
        mode=mode,
        chosen=select_result(results, mode),
        rungs=results,
    )
    if refute:
        attach_refutations(
            [portfolio], {name: (old_source, new_source)}, executor,
            base, refute_margin,
        )
    record_portfolio_metrics([portfolio])
    return portfolio
