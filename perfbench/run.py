"""End-to-end and per-layer benchmark of the differential-cost analyzer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 10 --trace 0

Workloads (see ``perfbench/RATIONALE.md``): ``table1`` and
``ladder-refute`` are in ``BENCHMARK.json``; ``nested-cubic`` (one ~25 s
pass) and ``replay`` (the cache-hit path alone) are for runs by hand.
The seed sets the pair order.  Every sample is a fresh process
(``workloads.py``), because the analyzer keeps process-global memo
caches that a second pass in one process would find warm.  Heavy
workloads run one whole pass per sample, two samples side by side (one
per CPU), and start another round while one fits in ``--seconds``;
``replay`` splits ``--seconds`` over two rounds of side-by-side samples
of many passes each.  ``wall_s`` and each pair's time are the low tail
of the run's passes (:func:`low_quantile`).  Set-up is measured in at
least three processes per run and reported as a median.

The last line of standard output is one JSON object: ``correct``,
``attempted`` (pairs analyzed), ``failed`` (pairs that errored, timed
out or failed the oracle) and ``metrics`` — the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Traced runs
also write ``.bench_build/perfbench/trace-<workload>-<seed>.json``
(Chrome ``trace_event``) and every run writes its verdicts and per-pass
figures to ``.bench_build/perfbench/last-<workload>-<seed>-<trace>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("table1", "nested-cubic", "ladder-refute", "replay")

#: Set-up samples per run (extra set-up-only processes make up the
#: difference when fewer passes fit).
SETUP_SAMPLES = 3
#: ``replay`` splits its seconds over this many rounds of processes.
REPLAY_ROUNDS = 2
#: Each round starts this many sample processes at once, one per CPU,
#: so one run times passes on each CPU.
SIDE_BY_SIDE = min(2, len(os.sched_getaffinity(0))
                   if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)
#: A sample that runs longer than this is killed and fails the run.
SAMPLE_TIMEOUT_S = 150.0
#: A fixed pure-Python loop timed once per run (``host.calib_s``).
CALIBRATION_ITERATIONS = 2_000_000



def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: tells a slow host apart
    from a regression."""
    start = time.perf_counter()
    total = 0
    for index in range(CALIBRATION_ITERATIONS):
        total += index * index % 7
    elapsed = time.perf_counter() - start
    if total < 0:  # keeps the loop from being optimised away
        raise AssertionError
    return elapsed


def source_digest() -> str:
    """Hash of the analyzer's source tree: a filled replay cache is
    reused only by the code that filled it."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def spawn(arg_lists: list[list[str]], label: str) -> None:
    """Run sample processes side by side to completion, killing every
    one (and its process group) on a timeout or any other way out."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
    env.pop("REPRO_TRACE", None)
    deadline = time.monotonic() + SAMPLE_TIMEOUT_S
    processes = []
    try:
        for args in arg_lists:
            processes.append(subprocess.Popen(
                [sys.executable, str(HERE / "workloads.py")] + args,
                cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                start_new_session=True))
        for process in processes:
            try:
                process.wait(timeout=max(0.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                raise SystemExit(f"{label}: sample exceeded "
                                 f"{SAMPLE_TIMEOUT_S:.0f}s and was killed")
    finally:
        for process in processes:
            try:
                os.killpg(process.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
            process.wait()
    for process in processes:
        if process.returncode != 0:
            raise SystemExit(f"{label}: sample exited with code "
                             f"{process.returncode}")


def ensure_fill() -> Path:
    """The replay cache, filled once per source tree (preparation,
    not set-up: it is neither in ``setup_s`` nor in ``wall_s``)."""
    digest = source_digest()
    cache_dir = WORKDIR / "replay-cache"
    marker = cache_dir / "source.sha256"
    if marker.is_file() and marker.read_text() == digest \
            and (cache_dir / "fill.json").is_file():
        return cache_dir
    shutil.rmtree(cache_dir, ignore_errors=True)
    cache_dir.mkdir(parents=True)
    spawn([["--workload", "replay", "--seed", "0", "--fill",
            "--spawned-at", str(time.monotonic()),
            "--out", str(WORKDIR / "fill.out"),
            "--cache-dir", str(cache_dir)]], "replay fill")
    marker.write_text(digest)
    return cache_dir


def samples_side_by_side(options: argparse.Namespace, first: int,
                         count: int, extra: list[str]) -> list[dict]:
    """Run ``count`` sample processes at once; their result documents."""
    files, arg_lists, caches = [], [], []
    for index in range(first, first + count):
        out = WORKDIR / f"sample-{os.getpid()}-{index}.json"
        events = WORKDIR / f"events-{os.getpid()}-{index}.json"
        args = ["--workload", options.workload, "--seed", str(options.seed),
                "--trace", str(options.trace), "--out", str(out)] + extra
        if options.trace:
            args += ["--events", str(events)]
        if options.workload == "ladder-refute":
            # Every sample writes through a cache of its own, empty.
            cache = WORKDIR / f"ladder-cache-{os.getpid()}-{index}"
            shutil.rmtree(cache, ignore_errors=True)
            caches.append(cache)
            args += ["--cache-dir", str(cache)]
        arg_lists.append(args + ["--spawned-at", str(time.monotonic())])
        files.append((out, events))
    try:
        spawn(arg_lists, f"{options.workload} samples {first}..")
    finally:
        for cache in caches:
            shutil.rmtree(cache, ignore_errors=True)
    results = []
    for out, events in files:
        with open(out) as handle:
            data = json.load(handle)
        out.unlink()
        data["events"] = []
        if events.is_file():
            with open(events) as handle:
                data["events"] = json.load(handle)
            events.unlink()
        results.append(data)
    return results


def run_samples(options: argparse.Namespace) -> list[dict]:
    samples = []
    if options.workload == "replay":
        cache_dir = ensure_fill()
        budget = options.seconds / REPLAY_ROUNDS
        for _ in range(REPLAY_ROUNDS):
            samples += samples_side_by_side(
                options, len(samples), SIDE_BY_SIDE,
                ["--cache-dir", str(cache_dir), "--budget", str(budget)])
        return samples
    start = time.monotonic()
    rounds = 0
    while True:
        samples += samples_side_by_side(options, len(samples), SIDE_BY_SIDE,
                                        [])
        rounds += 1
        elapsed = time.monotonic() - start
        if elapsed + elapsed / rounds > options.seconds:
            break
    while len(samples) < SETUP_SAMPLES:
        samples += samples_side_by_side(options, len(samples), 1,
                                        ["--setup-only"])
    return samples


def pair_seconds(records) -> dict:
    """Pair name -> its time in the run: the low tail of its passes."""
    times: dict = {}
    for record in records:
        times.setdefault(record["name"], []).append(record["seconds"])
    return {name: low_quantile(values) for name, values in times.items()}


def median(values):
    return statistics.median(values) if values else 0.0


def geometric_mean(values):
    return statistics.geometric_mean(values) if values else 0.0


def low_quantile(values):
    """The 10th percentile of a run's pass timings, or the fastest pass
    when there are fewer than ten.  Each CPU of the measuring host runs
    at one of two speeds ~1.6x apart and switches every few seconds, on
    its own; interference only ever slows a pass, so the low tail tracks
    the cost of the code, where the median lands on either speed."""
    if len(values) >= 10:
        return statistics.quantiles(values, n=10)[0]
    return min(values) if values else 0.0


def summarize(options, samples, calib_s):
    passes = [entry for data in samples for entry in data["passes"]]
    records = [record for entry in passes for record in entry["pairs"]]
    attempted = len(records)
    failed = sum(not record["ok"] for record in records)
    # Every pass must reach the same verdicts (pair order may differ).
    verdicts = [
        {record["name"]: record["verdict"] for record in entry["pairs"]}
        for entry in passes
    ]
    consistent = all(verdict == verdicts[0] for verdict in verdicts)
    tight = [sum(record["tight"] for record in entry["pairs"])
             / len(entry["pairs"]) for entry in passes]
    end_to_end = {
        "wall_s": low_quantile([entry["wall_s"] for entry in passes]),
        "pair_s.geomean": geometric_mean(list(
            pair_seconds(records).values())),
        "setup_s": median([data["setup_s"] for data in samples]),
        "peak_rss_mb": median([data["peak_rss_mb"] for data in samples
                               if data["passes"]]),
        "tight_frac": median(tight),
    }
    per_layer = {}
    if options.trace:
        names = sorted({name for entry in passes for name in entry["layers"]})
        for name in names:
            reduce = low_quantile if name == "trace.wall_s" else median
            per_layer[name] = reduce([entry["layers"][name]
                                      for entry in passes])
        per_layer["host.calib_s"] = calib_s
    details = {
        "workload": options.workload, "seed": options.seed,
        "trace": options.trace, "calib_s": calib_s,
        "end_to_end": end_to_end, "per_layer": per_layer,
        "verdicts": verdicts[0] if verdicts else {},
        "consistent": consistent,
        "failures": [record for record in records if not record["ok"]],
        "pair_seconds": pair_seconds(records),
        "passes": len(passes), "pair_samples": attempted,
        "setup_samples": [data["setup_s"] for data in samples],
        "gc_s": [data["gc_s"] for data in samples],
    }
    return attempted, failed, consistent, end_to_end, per_layer, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    options = parser.parse_args(argv)
    # A terminated run unwinds through spawn(), which stops its samples.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no analyzer sources under {ROOT / 'src'}; run "
              "from the root of a checkout", file=sys.stderr)
        return 2
    WORKDIR.mkdir(parents=True, exist_ok=True)

    calib_s = calibrate()
    samples = run_samples(options)
    attempted, failed, consistent, end_to_end, per_layer, details = \
        summarize(options, samples, calib_s)
    tag = f"{options.workload}-{options.seed}"
    with open(WORKDIR / f"last-{tag}-{options.trace}.json", "w") as handle:
        json.dump(details, handle, indent=1, sort_keys=True)
    if options.trace:
        events = [event for data in samples for event in data["events"]]
        with open(WORKDIR / f"trace-{tag}.json", "w") as handle:
            json.dump(events, handle)

    for record in details["failures"]:
        print(f"FAILED {record['name']}: {record['reason']}")
    if not consistent:
        print("FAILED: passes of this run reached different verdicts")
    print(f"{options.workload}: {details['passes']} pass(es), "
          f"{attempted} pair sample(s), {len(samples)} process(es); "
          f"failed_frac={failed / max(1, attempted):.4g} "
          f"({failed}/{attempted}); host.calib_s={calib_s:.3f}")
    # BENCHMARK.json names the metrics each mode reports, with units.
    with open(ROOT / "BENCHMARK.json") as handle:
        declared = json.load(handle)["per_layer" if options.trace
                                     else "end_to_end"]
    values = per_layer if options.trace else end_to_end
    metrics = {metric["name"]: {"value": values[metric["name"]],
                                "unit": metric["unit"]}
               for metric in declared}
    for name, metric in metrics.items():
        print(f"  {name:<28} {metric['value']:>14.6g} {metric['unit']}")
    print(json.dumps({"correct": failed == 0 and consistent,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
