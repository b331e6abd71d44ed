"""The engine's job model.

An :class:`AnalysisJob` is one self-contained unit of analysis work: a
program pair (as source text, so jobs cross process boundaries without
pickling analyzer state), an :class:`~repro.config.AnalysisConfig`, and
the kind of analysis to run (``diff``/``bound``/``refute``/``single``).

Every job has a canonical, content-addressed :attr:`AnalysisJob.key`
(a SHA-256 over a canonical JSON rendering of everything that affects
the job's outcome).  Two jobs with the same key are guaranteed to
produce the same result, which is what makes the on-disk result cache
and cross-run deduplication sound.  Presentation-only attributes (the
display ``name``) are excluded from the key.

:func:`run_job` also keeps an in-process, content-keyed memo of
invariant maps: every rung of a portfolio and its refutation probe
analyze the same two programs with the same widening knobs, so each
program's invariants are generated once per process and shared by
every job that needs them.
"""

from __future__ import annotations

import hashlib
import json
import time
from collections import OrderedDict
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Any

from repro.config import AnalysisConfig
from repro.errors import AnalysisError
from repro.lp.backend import LP_SOLVER_REVISION

if TYPE_CHECKING:
    from repro.invariants.generator import InvariantMap
    from repro.lang import LoweredProgram

#: Bump when the meaning of a job (or the result schema) changes, so
#: stale cache entries are never replayed across incompatible versions.
JOB_SCHEMA_VERSION = 1

JOB_KINDS = ("diff", "bound", "refute", "single")


@dataclass(frozen=True)
class AnalysisJob:
    """One unit of analysis work, addressable by content.

    Attributes
    ----------
    kind:
        ``"diff"`` (threshold synthesis), ``"bound"`` (symbolic bound
        proof), ``"refute"`` (candidate refutation) or ``"single"``
        (single-program bounds; uses only ``old_source``).
    old_source / new_source:
        `imp` source text of the two versions (``new_source`` is
        ``None`` for ``single`` jobs).
    config:
        The analysis configuration; any field change changes the key.
    name:
        Display name (e.g. the benchmark pair name).  Not keyed.
    bound:
        Polynomial text for ``bound`` jobs.
    candidate:
        Candidate threshold for ``refute`` jobs.
    """

    kind: str
    old_source: str
    new_source: str | None = None
    config: AnalysisConfig = field(default_factory=AnalysisConfig)
    name: str = ""
    bound: str | None = None
    candidate: float | None = None

    def __post_init__(self):
        if self.kind not in JOB_KINDS:
            raise AnalysisError(
                f"unknown job kind {self.kind!r} (use one of {JOB_KINDS})"
            )
        if self.kind != "single" and self.new_source is None:
            raise AnalysisError(f"{self.kind} jobs need a new_source")
        if self.kind == "bound" and self.bound is None:
            raise AnalysisError("bound jobs need a bound polynomial")
        if self.kind == "refute" and self.candidate is None:
            raise AnalysisError("refute jobs need a candidate threshold")

    # -- content addressing ------------------------------------------------

    def canonical_payload(self) -> dict[str, Any]:
        """Everything that determines the job's outcome, canonically."""
        from repro import __version__ as analyzer_version

        return {
            "version": JOB_SCHEMA_VERSION,
            # Release upgrades may change analysis results (encoding
            # fixes, invariant improvements); keying on the package
            # version keeps the on-disk cache from replaying them.
            "analyzer": analyzer_version,
            # The backend *name* is keyed through config.lp_backend; the
            # solver revision additionally invalidates cached results
            # when a backend's algorithm changes under an unchanged name
            # (a result computed by the old solver must never be
            # replayed as if produced by the new one).
            "lp_solver": {
                "backend": self.config.lp_backend,
                "revision": LP_SOLVER_REVISION,
            },
            "kind": self.kind,
            "old_source": self.old_source,
            "new_source": self.new_source,
            "config": asdict(self.config),
            "bound": self.bound,
            "candidate": self.candidate,
        }

    @property
    def key(self) -> str:
        """Content-addressed job key (hex SHA-256)."""
        canonical = json.dumps(
            self.canonical_payload(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(canonical.encode()).hexdigest()

    # -- (de)serialization for process transport ---------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "old_source": self.old_source,
            "new_source": self.new_source,
            "config": asdict(self.config),
            "name": self.name,
            "bound": self.bound,
            "candidate": self.candidate,
        }

    @staticmethod
    def from_dict(data: dict[str, Any]) -> "AnalysisJob":
        payload = dict(data)
        payload["config"] = AnalysisConfig(**payload["config"])
        return AnalysisJob(**payload)


@dataclass
class JobResult:
    """Structured outcome of running one job.

    ``status`` describes the *execution*: ``"ok"`` (the analysis ran to
    completion, including a sound "no certificate" answer), ``"error"``
    (a structured failure was captured), ``"timeout"`` (the per-job
    budget expired) or ``"cancelled"`` (a portfolio raced past it).
    ``outcome`` is the analysis-level verdict (the
    :class:`~repro.core.results.AnalysisStatus` value) when the run
    completed.
    """

    job_key: str
    name: str
    kind: str
    status: str
    outcome: str | None = None
    threshold: float | None = None
    threshold_str: str | None = None
    message: str = ""
    error_type: str | None = None
    traceback: str | None = None
    seconds: float = 0.0
    timings: dict[str, float] = field(default_factory=dict)
    config_summary: dict[str, Any] = field(default_factory=dict)
    cached: bool = False
    #: Which execution attempt produced this result (0 = first try).
    #: A volatile machine condition like ``seconds`` — stripped from
    #: canonical reports, never cached (cache entries are attempt 0 by
    #: construction: only the final, successful attempt is stored).
    attempts: int = 0
    #: Metrics-snapshot delta from the worker process that ran the job
    #: (:meth:`repro.obs.metrics.MetricsRegistry.diff`).  Merged into
    #: the parent registry by the executor and cleared afterwards; a
    #: volatile side channel, stripped from canonical reports.
    metrics: dict[str, Any] = field(default_factory=dict)
    #: The full in-process analysis result object (e.g.
    #: :class:`~repro.core.results.DiffCostResult`).  Only populated on
    #: the inline execution path; never serialized.
    analysis: Any = None

    @property
    def succeeded(self) -> bool:
        """True iff the analysis completed with a positive verdict
        (threshold synthesized / bound proved / candidate refuted)."""
        return self.status == "ok" and self.outcome in (
            "threshold", "proved", "refuted"
        )

    @property
    def failed(self) -> bool:
        """True iff execution itself failed (error or timeout)."""
        return self.status in ("error", "timeout")

    def exact_threshold(self) -> Fraction | float | None:
        """The threshold as an exact value when one was recorded."""
        if self.threshold_str is not None:
            return Fraction(self.threshold_str)
        return self.threshold

    def to_dict(self) -> dict[str, Any]:
        # Not asdict(): it would recurse into the in-process `analysis`
        # object, which is deliberately excluded from serialization.
        return {
            "job_key": self.job_key,
            "name": self.name,
            "kind": self.kind,
            "status": self.status,
            "outcome": self.outcome,
            "threshold": self.threshold,
            "threshold_str": self.threshold_str,
            "message": self.message,
            "error_type": self.error_type,
            "traceback": self.traceback,
            "seconds": self.seconds,
            "timings": dict(self.timings),
            "config_summary": dict(self.config_summary),
            "cached": self.cached,
            "attempts": self.attempts,
            "metrics": dict(self.metrics),
        }

    @staticmethod
    def from_dict(data: dict[str, Any]) -> "JobResult":
        payload = {k: v for k, v in data.items() if k != "analysis"}
        return JobResult(**payload)


def _config_summary(config: AnalysisConfig) -> dict[str, Any]:
    return {
        "degree": config.degree,
        "max_products": config.max_products,
        "lp_backend": config.lp_backend,
    }


#: Most invariant maps the memo keeps per process, least recently used
#: evicted first.  A portfolio pair needs two; the cap covers a
#: worker's share of a large batch without growing with a long-lived
#: server's whole history.
INVARIANT_MEMO_SIZE = 64

#: (program text, widening_delay, narrowing_passes) -> the program's
#: ``Location -> Polyhedron`` map.  ``Polyhedron`` is immutable, so a
#: stored dict is shared read-only by every job that reuses it.  Jobs
#: of one process run on one thread (inline, a pool worker's main
#: thread, or the server's engine thread), so the memo takes no lock.
_INVARIANT_MEMO: OrderedDict[tuple[str, int, int], dict] = OrderedDict()


def clear_invariant_memo() -> None:
    """Forget every memoised invariant map of this process."""
    _INVARIANT_MEMO.clear()  # lint: allow[mutable-global-write] pure memo cache; worker divergence is perf-only


def _invariant_key(text: str, config: AnalysisConfig) -> tuple[str, int, int]:
    # The source text carries the frontend's invariant(...) hints; the
    # widening knobs are the only config fields invariants depend on.
    return (text, config.widening_delay, config.narrowing_passes)


def _count_invariant_maps(outcome: str) -> None:
    from repro.obs import get_registry

    get_registry().counter(
        "repro_invariant_maps_total",
        "Program invariant maps computed or reused from the memo.",
        ("outcome",),
    ).inc(outcome=outcome)


def _recall(text: str, program: LoweredProgram,
            config: AnalysisConfig) -> InvariantMap | None:
    """The memoised invariant map of ``program`` (loaded from
    ``text``), wrapped for its own transition system, or ``None``."""
    from repro.invariants.generator import InvariantMap

    key = _invariant_key(text, config)
    stored = _INVARIANT_MEMO.get(key)
    if stored is None:
        return None
    _INVARIANT_MEMO.move_to_end(key)
    _count_invariant_maps("reused")
    return InvariantMap(program.system, stored)


def _remember(text: str, config: AnalysisConfig,
              invariant_map: InvariantMap) -> None:
    """Store a freshly generated map.  Called only once generation has
    returned: a job that raises or times out inside it stores nothing."""
    _INVARIANT_MEMO[_invariant_key(text, config)] = invariant_map.invariants  # lint: allow[mutable-global-write] pure memo cache; worker divergence is perf-only
    _count_invariant_maps("computed")
    while len(_INVARIANT_MEMO) > INVARIANT_MEMO_SIZE:
        _INVARIANT_MEMO.popitem(last=False)  # lint: allow[mutable-global-write] pure memo cache; worker divergence is perf-only


def run_job(job: AnalysisJob) -> JobResult:
    """Execute ``job`` in-process and return its structured result.

    Analysis-level failures (LP infeasible) are *successful* runs with
    ``outcome == "unknown"``; genuine errors propagate to the caller
    (the executor turns them into structured ``"error"`` results).
    """
    from repro.core import (
        DiffCostAnalyzer,
        analyze_single_program,
        prove_symbolic_bound,
        refute_threshold,
    )
    from repro.core.diffcost import program_invariants
    from repro.lang import load_program, read_source
    from repro.obs import span
    from repro.poly import parse_polynomial

    start = time.perf_counter()
    old_text = read_source(job.old_source)
    old = load_program(old_text, name=f"{job.name or 'job'}_old")
    result = JobResult(
        job_key=job.key,
        name=job.name,
        kind=job.kind,
        status="ok",
        config_summary=_config_summary(job.config),
    )

    with span(f"job:{job.kind}", cat="engine",
              args={"job_key": job.key, "name": job.name,
                    "degree": job.config.degree}):
        if job.kind == "single":
            invariants = _recall(old_text, old, job.config)
            if invariants is None:
                invariants = program_invariants(
                    old.system, dict(old.invariant_hints), job.config)
                _remember(old_text, job.config, invariants)
            analysis = analyze_single_program(old, job.config,
                                              invariants=invariants)
            threshold = analysis.precision
        else:
            new_text = read_source(job.new_source)
            new = load_program(new_text, name=f"{job.name or 'job'}_new")
            texts = (old_text, new_text)
            recalled = (_recall(old_text, old, job.config),
                        _recall(new_text, new, job.config))
            # The analyzer generates the missing maps in its own
            # invariants stage, so its timings still account for them.
            analyzer = DiffCostAnalyzer(old, new, job.config, *recalled)
            maps = analyzer.invariants()
            for text, known, invariant_map in zip(texts, recalled, maps):
                if known is None:
                    _remember(text, job.config, invariant_map)
            old_invariants, new_invariants = maps
            if job.kind == "diff":
                analysis = analyzer.compute_threshold()
                threshold = analysis.threshold
            elif job.kind == "bound":
                analysis = prove_symbolic_bound(
                    old, new, parse_polynomial(job.bound), job.config,
                    old_invariants=old_invariants,
                    new_invariants=new_invariants,
                )
                threshold = None
            else:  # refute
                analysis = refute_threshold(
                    old, new, job.candidate, job.config,
                    old_invariants=old_invariants,
                    new_invariants=new_invariants,
                )
                threshold = analysis.guaranteed_difference

    result.outcome = analysis.status.value
    result.message = analysis.message
    if threshold is not None:
        # + 0.0 turns a float LP's -0.0 into 0.0 (exact values unchanged).
        result.threshold = float(threshold) + 0.0
        if isinstance(threshold, Fraction):
            result.threshold_str = str(threshold)
    result.timings = dict(getattr(analysis, "timings", {}) or {})
    result.seconds = time.perf_counter() - start
    result.analysis = analysis
    return result
