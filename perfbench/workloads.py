"""One benchmark process: set-up, then passes of one workload.

``run.py`` starts this file once per sample, so every pass sees the
cold process-global memo caches (polyhedron entailment/emptiness
tables, the polynomial ``lru_cache``) that a ``diff``/``suite``/``batch``
command line sees.  It writes one JSON document to ``--out``: the
set-up time, peak memory, and per pass its wall time, per-pair times
and verdicts, each verdict already checked by :func:`check_threshold`.

Usage (normally via ``run.py``)::

    python3 perfbench/workloads.py --workload table1 --seed 1 \
        --trace 0 --spawned-at <time.monotonic()> --out result.json
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

import tracing

WORKLOADS = ("table1", "nested-cubic", "ladder-refute", "replay")

#: Witness-heavy pairs raced through the portfolio ladder with the
#: refutation stage (``join`` is left out to fit the run budget; its
#: scipy path is still in ``table1``).
LADDER_PAIRS = ("dis2", "simple_multiple", "simple_multiple_dep",
                "simple_single2")

#: A threshold below the hand-derived tight value by more than this is
#: unsound (absorbs float-LP noise such as 9899.999999999995).
TOLERANCE = 1e-4

#: Fields of a cached result that legitimately differ between the run
#: that stored it and the run that replays it.
VOLATILE_FIELDS = ("cached", "seconds", "attempts", "metrics")


class GcClock:
    """Seconds spent in garbage-collector pauses, via ``gc.callbacks``."""

    def __init__(self):
        self.total = 0.0
        self._start = None
        gc.callbacks.append(self._callback)

    def _callback(self, phase, info):
        if phase == "start":
            self._start = time.perf_counter()
        elif self._start is not None:
            self.total += time.perf_counter() - self._start
            self._start = None


def exact_text(value) -> str | None:
    """A threshold in exact string form (``Fraction`` or float repr)."""
    if value is None:
        return None
    if isinstance(value, Fraction):
        return str(value)
    return repr(float(value))


def check_threshold(pair, threshold, executed: bool,
                    shape: bool = True) -> tuple[bool, str, bool]:
    """Oracle for one verdict against ``suite.py``'s hand-derived data.

    Returns ``(ok, reason, tight)``.  ``tight`` follows the paper's rule
    (a computed threshold within 1 of the true maximum).  With
    ``shape``, the verdict must also reproduce the paper's row: a ✗
    exactly where one is expected, and tight wherever the paper was.
    """
    if not executed:
        return False, "analysis errored or timed out", False
    if threshold is None:
        if shape and not pair.expect_failure:
            return False, "no threshold where one exists", False
        return True, "", False
    value = Fraction(threshold)
    tight = pair.tight is not None and value < pair.tight + 1
    if shape and pair.expect_failure:
        return False, f"threshold {threshold} where none is expected", tight
    if pair.tight is not None and value < pair.tight - Fraction(TOLERANCE):
        return False, f"unsound: {threshold} < tight {pair.tight}", tight
    paper_tight = (pair.paper_computed is not None
                   and pair.paper_computed < pair.paper_tight + 1)
    if shape and paper_tight and not tight:
        return False, f"{threshold} not tight (paper: tight)", tight
    return True, "", tight


def pair_record(name: str, seconds: float, verdict: dict,
                check: tuple[bool, str, bool]) -> dict:
    ok, reason, tight = check
    return {"name": name, "seconds": seconds, "verdict": verdict,
            "ok": ok, "reason": reason, "tight": tight}


# -- workloads -------------------------------------------------------------------
#
# Each workload is a class with ``setup()`` (counted in setup_s),
# ``run_pass()`` (one timed pass, returning raw results) and
# ``records(raw)``, the oracle applied outside the timed region.


class Table1:
    """``compute_threshold`` inline on Table 1 at per-pair configs."""

    def __init__(self, names, tracer):
        self.names = names
        self.tracer = tracer

    def setup(self):
        import repro.lang
        from repro.bench.suite import get_pair, pair_sources

        self.programs = {}
        for name in self.names:
            old_source, new_source = pair_sources(name)
            self.programs[name] = (
                get_pair(name),
                repro.lang.load_program(old_source, name=f"{name}_old"),
                repro.lang.load_program(new_source, name=f"{name}_new"),
            )

    def run_pass(self):
        from repro.core.diffcost import DiffCostAnalyzer

        raw = []
        for name in self.names:
            pair, old, new = self.programs[name]
            with pair_span(self.tracer, name, "core"):
                start = time.perf_counter()
                result = DiffCostAnalyzer(old, new,
                                          pair.config()).compute_threshold()
                seconds = time.perf_counter() - start
            raw.append((name, seconds, result))
        return raw

    def records(self, raw):
        records = []
        for name, seconds, result in raw:
            threshold = result.threshold if result.is_threshold else None
            records.append(pair_record(
                name, seconds, {"threshold": exact_text(threshold)},
                check_threshold(self.programs[name][0], threshold,
                                executed=True),
            ))
        return records


class LadderRefute:
    """``run_portfolio(mode="best", refute=True)`` on one inline
    executor (``jobs=1``) that writes through a fresh result cache, then
    the regression-gate re-run: a new cache handle and executor answer
    the same pairs, every rung and probe from the cache."""

    def __init__(self, names, tracer, cache_dir):
        self.names = names
        self.tracer = tracer
        self.cache_dir = cache_dir
        self.rungs_run = 0
        self.rungs_chosen = 0

    def setup(self):
        from repro.bench.suite import get_pair, pair_sources
        from repro.engine import ParallelExecutor, ResultCache

        self.sources = {name: pair_sources(name) for name in self.names}
        self.pairs = {name: get_pair(name) for name in self.names}
        self.executor = ParallelExecutor(
            jobs=1, cache=ResultCache(self.cache_dir))

    def _portfolios(self, executor, label):
        from repro.engine import run_portfolio

        runs = []
        with executor:
            for name in self.names:
                old_source, new_source = self.sources[name]
                with pair_span(self.tracer, label or name, "engine"):
                    start = time.perf_counter()
                    portfolio = run_portfolio(
                        old_source, new_source, name, executor,
                        mode="best", refute=True,
                    )
                    seconds = time.perf_counter() - start
                runs.append((name, seconds, portfolio))
        return runs

    def run_pass(self):
        from repro.engine import ParallelExecutor, ResultCache

        raw = self._portfolios(self.executor, None)
        self.retries = self.executor.stats.retries
        replayer = ParallelExecutor(jobs=1,
                                    cache=ResultCache(self.cache_dir))
        replayed = self._portfolios(replayer, "replay")
        return [entry + (again,) for entry, (_, _, again)
                in zip(raw, replayed)]

    def records(self, raw):
        return [self._record(*entry) for entry in raw]

    def _record(self, name, seconds, portfolio, replayed):
        pair = self.pairs[name]
        self.rungs_run += len(portfolio.rungs)
        self.rungs_chosen += portfolio.chosen is not None
        chosen = portfolio.chosen
        threshold = chosen.exact_threshold() if chosen is not None else None
        probe = portfolio.refutation
        gap = probe.exact_threshold() if probe is not None else None
        verdict = {"threshold": exact_text(threshold),
                   "rung": portfolio.chosen_rung_index(),
                   "refuted_gap": exact_text(gap),
                   "tight_certified": portfolio.tight}
        executed = not any(rung.failed for rung in portfolio.rungs)
        ok, reason, tight = check_threshold(pair, threshold, executed)
        if ok and threshold is not None:
            if probe is None or probe.status != "ok":
                ok, reason = False, "refutation probe did not complete"
            elif gap is not None and pair.tight is not None \
                    and Fraction(gap) > pair.tight:
                ok, reason = False, (f"refutation gap {gap} above tight "
                                     f"{pair.tight}")
        if ok:
            ok, reason = replay_matches(portfolio, replayed)
        return pair_record(name, seconds, verdict, (ok, reason, tight))


def replay_matches(portfolio, replayed) -> tuple[bool, str]:
    """Every rung and the probe of the cached re-run must be a cache hit
    whose bytes equal the cold run's."""
    def results(entry):
        extra = [entry.refutation] if entry.refutation is not None else []
        return list(entry.rungs) + extra

    cold, warm = results(portfolio), results(replayed)
    if len(cold) != len(warm):
        return False, "re-run from the cache has other jobs"
    for first, again in zip(cold, warm):
        if not again.cached:
            return False, f"{again.name}: not answered from the cache"
        if canonical(again) != canonical(first):
            return False, f"{again.name}: replayed bytes differ"
    return True, ""


class Replay:
    """``run_batch`` re-runs answered entirely from a filled cache."""

    def __init__(self, tracer, cache_dir):
        self.tracer = tracer
        self.cache_dir = cache_dir

    def setup(self):
        from importlib import resources

        import repro.bench.suite
        from repro.config import EngineConfig
        from repro.engine import run_batch

        self.directory = str(resources.files("repro.bench") / "programs")
        self.engine = EngineConfig(jobs=1, cache_dir=self.cache_dir)
        self.run_batch = run_batch
        self.suite = repro.bench.suite
        with open(os.path.join(self.cache_dir, "fill.json")) as handle:
            self.expected = json.load(handle)

    def run_pass(self):
        with pair_span(self.tracer, "replay", "engine"):
            start = time.perf_counter()
            report = self.run_batch(self.directory, engine=self.engine)
            seconds = time.perf_counter() - start
        return seconds, report

    def records(self, raw):
        seconds, report = raw
        share = seconds / max(1, len(report.results))
        records = []
        for result in report.results:
            pair = self.suite.get_pair(result.name)
            threshold = result.exact_threshold()
            ok, reason, tight = check_threshold(
                pair, threshold, executed=not result.failed, shape=False)
            if ok and not result.cached:
                ok, reason = False, "not answered from the cache"
            if ok and canonical(result) != self.expected.get(result.name):
                ok, reason = False, "replayed bytes differ from the fill"
            records.append(pair_record(
                result.name, share, {"threshold": exact_text(threshold)},
                (ok, reason, tight)))
        if len(records) != len(self.expected):
            records.append(pair_record(
                "<missing>", 0.0, {}, (False, "pairs missing", False)))
        return records


def canonical(result) -> str:
    """A result's bytes without the fields a replay may change."""
    data = {key: value for key, value in result.to_dict().items()
            if key not in VOLATILE_FIELDS}
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def fill(cache_dir: str) -> None:
    """Populate ``cache_dir`` from the shipped programs and record each
    pair's canonical result bytes in ``fill.json``."""
    from importlib import resources

    from repro.config import EngineConfig
    from repro.engine import run_batch

    directory = str(resources.files("repro.bench") / "programs")
    report = run_batch(directory,
                       engine=EngineConfig(jobs=2, cache_dir=cache_dir))
    if not report.ok:
        raise SystemExit("cache fill: some pairs failed to execute")
    expected = {result.name: canonical(result) for result in report.results}
    with open(os.path.join(cache_dir, "fill.json"), "w") as handle:
        json.dump(expected, handle, sort_keys=True, indent=1)


@contextmanager
def pair_span(tracer, name, layer):
    """The span of one pair (nothing when tracing is off)."""
    if tracer is None:
        yield
        return
    tracer.pair = name
    try:
        with tracer.span("pair", layer):
            yield
    finally:
        tracer.pair = None


# -- per-layer metrics -------------------------------------------------------------


def layer_metrics(summary: dict, costs: tuple[float, float], entry: dict,
                  workload) -> dict:
    """The per-layer metrics of one traced pass (see RATIONALE.md)."""
    from repro.poly.polynomial import _monomial_product

    layers, by_name = summary["layers"], summary["names"]
    counts = summary["counters"]
    info = _monomial_product.cache_info()
    lookups = info.hits + info.misses
    pairs = max(1, len(entry["pairs"]))
    rungs_run = getattr(workload, "rungs_run", 0)
    pair_wall = summary["pair_wall"]
    metrics = {
        "lang.load_s": layers.get("lang", 0.0),
        "ts.locations": counts.get("ts.locations", 0),
        "ts.transitions": counts.get("ts.transitions", 0),
        "invariants.s": layers.get("invariants", 0.0),
        "invariants.calls": counts.get("invariants.runs", 0),
        "invariants.lp_calls.float": counts.get(
            "invariants.lp_calls.float", 0),
        "invariants.lp_calls.exact": counts.get(
            "invariants.lp_calls.exact", 0),
        "invariants.lp_s": counts.get("invariants.lp_s", 0.0),
        "constraints.s": layers.get("constraints", 0.0),
        "constraints.implications": counts.get(
            "constraints.implications", 0),
        "core.unattributed_s": layers.get("core", 0.0),
        "encoding.s": layers.get("encoding", 0.0),
        "encoding.products": counts.get("encoding.products", 0),
        "encoding.lp_rows": counts.get("encoding.lp_rows", 0),
        "encoding.lp_cols": counts.get("encoding.lp_cols", 0),
        "poly.mul_cache_hit_ratio": info.hits / lookups if lookups else 0.0,
        "lp.s": layers.get("lp", 0.0),
        "lp.solves": counts.get("lp.solves", 0),
        "lp.pivots": counts.get("lp.pivots", 0),
        "refutation.s": layers.get("refutation", 0.0),
        "refutation.witnesses": counts.get("refutation.witnesses", 0),
        "refutation.factorizations": counts.get(
            "refutation.factorizations", 0),
        "engine.rungs_run": rungs_run,
        "engine.rung_useful_ratio": (workload.rungs_chosen / rungs_run
                                     if rungs_run else 0.0),
        "engine.invariant_runs_per_pair": (
            counts.get("invariants.runs", 0) / pairs),
        "engine.overhead_s": layers.get("engine", 0.0),
        "engine.retries": getattr(workload, "retries", 0),
        "cache.open_s": by_name.get("cache-open", 0.0),
        "cache.get_s": by_name.get("cache-get", 0.0),
        "cache.put_s": by_name.get("cache-put", 0.0),
        "cache.hits": counts.get("cache.hits", 0),
        "cache.misses": counts.get("cache.misses", 0),
        "host.gc_s": entry["gc_s"],
        "trace.wall_s": entry["wall_s"],
        "trace.overhead_s": (summary["spans"] * costs[0]
                             + summary["count_calls"] * costs[1]),
        "trace.stage_coverage": (summary["stage_in_pairs"] / pair_wall
                                 if pair_wall else 0.0),
    }
    for kind in ("certified", "resumed", "dual", "fallback"):
        metrics[f"lp.path.{kind}"] = counts.get(f"lp.path.{kind}", 0)
    return metrics


# -- main ---------------------------------------------------------------------------


def build(args, tracer):
    if args.workload == "table1":
        from repro.bench.suite import SUITE
        names = [pair.name for pair in SUITE if pair.name != "nested"]
    elif args.workload == "nested-cubic":
        names = ["nested"]
    elif args.workload == "ladder-refute":
        names = list(LADDER_PAIRS)
    else:
        return Replay(tracer, args.cache_dir)
    random.Random(args.seed).shuffle(names)
    if args.workload == "ladder-refute":
        # Inline (jobs=1): a 2-worker pool on a 2-core host times the
        # scheduler more than the analyzer, and a traced run records
        # every span in this process.
        return LadderRefute(names, tracer, args.cache_dir)
    return Table1(names, tracer)


def main(argv=None) -> int:
    clock = GcClock()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() just before this process "
                             "was started")
    parser.add_argument("--out", required=True)
    parser.add_argument("--events", help="traced runs: span output file")
    parser.add_argument("--cache-dir", help="replay: the filled cache; "
                        "ladder-refute: an empty cache directory")
    parser.add_argument("--budget", type=float, default=0.0,
                        help="replay: seconds of passes to run")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--fill", action="store_true",
                        help="replay: fill --cache-dir and exit")
    args = parser.parse_args(argv)

    import repro  # noqa: F401  (import time is part of set-up)

    if args.fill:
        fill(args.cache_dir)
        return 0

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    workload = build(args, tracer)
    workload.setup()
    # CLOCK_MONOTONIC is system-wide, so the parent's reading taken
    # before the spawn and ours are on one clock.
    setup_s = time.monotonic() - args.spawned_at

    passes = []
    deadline = time.perf_counter() + args.budget
    while not args.setup_only:
        if tracer is not None:
            tracer.pass_index = len(passes)
        gc_before = clock.total
        start = time.perf_counter()
        raw = workload.run_pass()
        wall_s = time.perf_counter() - start
        records = workload.records(raw)
        passes.append({"wall_s": wall_s, "gc_s": clock.total - gc_before,
                       "pairs": records})
        if time.perf_counter() >= deadline:
            break
    if tracer is not None and passes:
        summaries = tracer.pass_summaries()
        costs = tracing.bookkeeping_costs()
        for index, entry in enumerate(passes):
            entry["layers"] = layer_metrics(summaries[index], costs, entry,
                                            workload)

    self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    with open(args.out, "w") as handle:
        json.dump({"setup_s": setup_s,
                   "peak_rss_mb": max(self_rss, child_rss) / 1024.0,
                   "gc_s": clock.total, "passes": passes}, handle)
    if tracer is not None and args.events:
        epoch = time.time() - time.perf_counter()
        with open(args.events, "w") as handle:
            json.dump(tracer.chrome_events(os.getpid(), epoch), handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
