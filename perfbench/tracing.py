"""In-memory spans around the analyzer's public calls (traced runs only).

:func:`install` wraps the public entry point of each layer so that one
call becomes one span (name, layer, start, end, parent span, pair id),
and counts the work each layer does at the same boundary.  Nothing is
written while the workload runs: :meth:`Tracer.chrome_events` renders
the spans once, at exit, as Chrome ``trace_event`` complete events with
the same fields as the analyzer's own ``lp-solve`` spans, so both open
side by side in Perfetto.

Layers are the analyzer's modules.  A layer's *self time* is the time
its spans cover minus the part covered by their child spans, so the
self times of one pair add up to the pair's wall time.

The analyzer's own tracing (``REPRO_TRACE``) is not used: it writes and
flushes a file line per event, which would itself be measured.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

#: Layers whose self time counts as a pipeline stage (the rest is
#: harness, engine or analyzer glue).
STAGES = ("lang", "invariants", "constraints", "encoding", "lp",
          "refutation", "cache")


class Tracer:
    """A stack of open spans plus the list of finished ones."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        #: Identifier shared by the spans of one pair (``None`` outside
        #: a pair, e.g. during set-up).
        self.pair: str | None = None
        #: Index of the pass the spans belong to (0 includes set-up).
        self.pass_index = 0
        self.counters: dict[tuple[int, str], float] = defaultdict(int)
        #: Counter updates per pass (costed by :func:`bookkeeping_costs`).
        self.count_calls: dict[int, int] = defaultdict(int)

    @contextmanager
    def span(self, name: str, layer: str):
        parent = self._stack[-1]["id"] if self._stack else None
        record = {"id": len(self.spans), "name": name, "layer": layer,
                  "parent": parent, "pair": self.pair,
                  "pass": self.pass_index, "start": time.perf_counter(),
                  "end": None}
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def layer(self) -> str | None:
        """Layer of the innermost open span."""
        return self._stack[-1]["layer"] if self._stack else None

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[(self.pass_index, name)] += amount
        self.count_calls[self.pass_index] += 1

    # -- summaries ----------------------------------------------------------

    def pass_summaries(self) -> dict[int, dict]:
        """Per pass: self seconds by layer and by span name, the stage
        self time inside pair spans, the pairs' wall time, the span and
        counter-update counts, and the counters."""
        child_time: dict[int, float] = defaultdict(float)
        for record in self.spans:
            if record["parent"] is not None and record["end"] is not None:
                child_time[record["parent"]] += record["end"] - record["start"]
        summaries: dict[int, dict] = {}
        for record in self.spans:
            if record["end"] is None:
                continue
            summary = summaries.setdefault(record["pass"], {
                "layers": defaultdict(float), "names": defaultdict(float),
                "stage_in_pairs": 0.0, "pair_wall": 0.0, "spans": 0,
                "count_calls": self.count_calls[record["pass"]],
                "counters": {}})
            duration = record["end"] - record["start"]
            own = duration - child_time[record["id"]]
            summary["layers"][record["layer"]] += own
            summary["names"][record["name"]] += own
            summary["spans"] += 1
            if record["name"] == "pair":
                summary["pair_wall"] += duration
            elif record["pair"] is not None and record["layer"] in STAGES:
                summary["stage_in_pairs"] += own
        for (index, name), value in self.counters.items():
            if index in summaries:
                summaries[index]["counters"][name] = value
        return summaries

    def chrome_events(self, pid: int, epoch: float,
                      limit: int = 100_000) -> list[dict]:
        """Finished spans as Chrome ``trace_event`` complete events.

        ``epoch`` is the wall-clock time (seconds) at which
        ``time.perf_counter()`` read 0, so timestamps line up with the
        analyzer's own wall-clock spans.
        """
        events = []
        for record in self.spans[:limit]:
            if record["end"] is None:
                continue
            events.append({
                "name": record["name"],
                "cat": record["layer"],
                "ph": "X",
                "ts": int((epoch + record["start"]) * 1_000_000),
                "dur": max(1, int((record["end"] - record["start"])
                                  * 1_000_000)),
                "pid": pid,
                "tid": 1,
                "args": {"span": record["id"], "parent": record["parent"],
                         "pair": record["pair"], "pass": record["pass"]},
            })
        return events


def bookkeeping_costs(repeat: int = 20_000) -> tuple[float, float]:
    """Seconds per wrapped call and per counter update, timed on a
    scratch tracer.  Multiplied by a pass's span and update counts they
    give the instrumentation's own share of the pass; a
    traced-minus-untraced wall difference is dominated by host noise at
    this size, this estimate is not."""
    scratch = Tracer()
    noop = _spanned(scratch, lambda: None, "probe", "probe")
    start = time.perf_counter()
    for _ in range(repeat):
        noop()
    per_span = (time.perf_counter() - start) / repeat
    start = time.perf_counter()
    for _ in range(repeat):
        scratch.count("probe")
    per_count = (time.perf_counter() - start) / repeat
    return per_span, per_count


# -- instrumentation -----------------------------------------------------------


def _replace_everywhere(original, replacement) -> None:
    """Point every loaded ``repro`` module's reference to ``original``
    (including ``from x import f`` copies) at ``replacement``."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro"
                                  or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _spanned(tracer: Tracer, fn, name: str, layer: str, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name, layer):
            result = fn(*args, **kwargs)
        if after is not None:
            after(args, result)
        return result
    return wrapper


def _wrap_method(tracer: Tracer, cls, method: str, name: str, layer: str,
                 after=None) -> None:
    setattr(cls, method,
            _spanned(tracer, getattr(cls, method), name, layer, after))


def _wrap_function(tracer: Tracer, module, attr: str, name: str, layer: str,
                   after=None) -> None:
    original = getattr(module, attr)
    _replace_everywhere(original,
                        _spanned(tracer, original, name, layer, after))


def install(tracer: Tracer) -> None:
    """Wrap the analyzer's public calls; call once, after importing
    :mod:`repro` and before loading any program."""
    # Load every module whose copies of the wrapped functions must be
    # replaced before the replacement runs.
    import repro.core
    import repro.engine
    import repro.handelman.encode
    import repro.invariants.generator
    import repro.lang
    from repro.core.diffcost import DiffCostAnalyzer
    from repro.engine.cache import ResultCache
    from repro.lp.backend import available_backends, backend_is_exact, \
        get_backend
    from repro.lp.dual import IncrementalLP

    def after_load(args, program):
        tracer.count("ts.locations", len(program.system.locations))
        tracer.count("ts.transitions", len(program.system.transitions))

    def after_constraints(args, result):
        tracer.count("constraints.implications", len(result[2]))

    def after_encode(args, model):
        tracer.count("encoding.lp_rows", model.num_constraints)
        tracer.count("encoding.lp_cols", model.num_variables)

    def after_solve(args, solution):
        if tracer.layer() == "lp":
            return  # nested solve (maximize -> solve): counted once
        tracer.count("lp.solves")
        tracer.count("lp.pivots", solution.stats.get("pivots", 0))
        path = str(solution.stats.get("path") or "")
        kind = path.rsplit(":", 1)[-1]
        if kind in ("certified", "resumed", "dual", "fallback"):
            tracer.count(f"lp.path.{kind}")

    def after_refute(args, result):
        tracer.count("refutation.witnesses",
                     result.lp_stats.get("solves", 0))
        tracer.count("refutation.factorizations",
                     result.lp_stats.get("factorizations", 0))

    def after_get(args, result):
        tracer.count("cache.misses" if result is None else "cache.hits")

    _wrap_function(tracer, repro.lang, "load_program", "load_program",
                   "lang", after_load)
    _wrap_function(tracer, repro.core, "refute_threshold",
                   "refute_threshold", "refutation", after_refute)
    _wrap_method(tracer, DiffCostAnalyzer, "compute_threshold",
                 "compute_threshold", "core")
    _wrap_method(tracer, DiffCostAnalyzer, "invariants", "invariants",
                 "invariants")
    _wrap_method(tracer, DiffCostAnalyzer, "build_constraints",
                 "build_constraints", "constraints", after_constraints)
    _wrap_method(tracer, DiffCostAnalyzer, "encode", "encode", "encoding",
                 after_encode)
    _wrap_method(tracer, DiffCostAnalyzer, "solve", "lp-solve", "lp",
                 after_solve)
    _wrap_method(tracer, IncrementalLP, "solve", "incremental-lp", "lp",
                 after_solve)
    _wrap_method(tracer, IncrementalLP, "update_upper", "incremental-lp",
                 "lp", after_solve)
    _wrap_method(tracer, ResultCache, "__init__", "cache-open", "cache")
    _wrap_method(tracer, ResultCache, "get", "cache-get", "cache", after_get)
    _wrap_method(tracer, ResultCache, "put", "cache-put", "cache")

    # Counters only (too many calls for one span each).
    generate = repro.invariants.generator.generate_invariants

    @functools.wraps(generate)
    def counted_generate(*args, **kwargs):
        tracer.count("invariants.runs")
        return generate(*args, **kwargs)

    _replace_everywhere(generate, counted_generate)

    encode = repro.handelman.encode.encode_implication

    @functools.wraps(encode)
    def counted_encode(*args, **kwargs):
        stats = encode(*args, **kwargs)
        tracer.count("encoding.products", stats.products)
        return stats

    _replace_everywhere(encode, counted_encode)

    # Every LP a layer issues, attributed to the innermost open span's
    # layer; a backend calling another backend is counted once.
    depth = [0]

    def counted_backend(solve, kind):
        @functools.wraps(solve)
        def wrapper(self, model):
            depth[0] += 1
            start = time.perf_counter()
            try:
                return solve(self, model)
            finally:
                depth[0] -= 1
                if depth[0] == 0:
                    layer = tracer.layer() or "none"
                    tracer.count(f"{layer}.lp_calls.{kind}")
                    tracer.count(f"{layer}.lp_s",
                                 time.perf_counter() - start)
        return wrapper

    for backend_name in available_backends():
        cls = type(get_backend(backend_name))
        if getattr(cls.solve, "__perfbench_counted__", False):
            continue
        kind = "exact" if backend_is_exact(backend_name) else "float"
        cls.solve = counted_backend(cls.solve, kind)
        cls.solve.__perfbench_counted__ = True
