"""Every workload with two seeds: metrics, determinism and trace overhead.

Usage, from the root of a checkout::

    python3 perfbench/check.py [--seconds 10] [--seeds 1 2] [--workloads ...]

For each workload and seed this runs ``run.py`` untraced and traced,
prints every end-to-end metric by name and unit, and the tracing
overhead: traced minus untraced pass wall (host noise dominates it) and
the traced run's own bookkeeping estimate, ``trace.overhead_s``.  It
then asserts that the two seeds (two pair orders) reach identical
verdicts, in exact string form, and an identical ``tight_frac``, and
compares the per-run totals
of the work counters named in :data:`COUNTERS`.  Per-pair counts may
move with the order because the analyzer's memo caches are
process-global; a moved total is reported by name.  Exits 1 when a run
fails or a verdict or ``tight_frac`` differs.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("table1", "nested-cubic", "ladder-refute", "replay")

COUNTERS = ("invariants.calls", "invariants.lp_calls.float",
            "invariants.lp_calls.exact", "lp.pivots", "encoding.products",
            "encoding.lp_rows", "encoding.lp_cols",
            "constraints.implications")


def run(workload: str, seed: int, trace: int, seconds: float) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    completed = subprocess.run(command, cwd=ROOT, capture_output=True,
                               text=True)
    if completed.returncode != 0:
        raise SystemExit(f"{' '.join(command)} failed:\n{completed.stderr}")
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    with open(WORKDIR / f"last-{workload}-{seed}-{trace}.json") as handle:
        details = json.load(handle)
    details["result"] = result
    return details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--seeds", type=int, nargs=2, default=(1, 2))
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS,
                        default=list(WORKLOADS))
    options = parser.parse_args(argv)
    problems = []
    for workload in options.workloads:
        runs = {(seed, trace): run(workload, seed, trace, options.seconds)
                for seed in options.seeds for trace in (0, 1)}
        print(f"== {workload}")
        for seed in options.seeds:
            plain, traced = runs[(seed, 0)], runs[(seed, 1)]
            result = plain["result"]
            print(f"  seed {seed}: correct={result['correct']} "
                  f"failed_frac={result['failed']}/{result['attempted']} "
                  f"pair samples={plain['pair_samples']}")
            for name, metric in result["metrics"].items():
                print(f"    {name:<16} {metric['value']:>14.6g} "
                      f"{metric['unit']}")
            difference = (traced["per_layer"]["trace.wall_s"]
                          - plain["end_to_end"]["wall_s"])
            print(f"    tracing overhead: traced minus untraced wall "
                  f"{difference:+.4g} s; span and counter "
                  f"bookkeeping {traced['per_layer']['trace.overhead_s']:.4g}"
                  f" s")
            for run_data in (plain, traced):
                if not run_data["result"]["correct"]:
                    problems.append(f"{workload} seed {seed}: incorrect")
        reference = runs[(options.seeds[0], 0)]
        for key, other in runs.items():
            if other["verdicts"] != reference["verdicts"]:
                problems.append(f"{workload}: verdicts differ for {key}")
            if other["end_to_end"]["tight_frac"] != \
                    reference["end_to_end"]["tight_frac"]:
                problems.append(f"{workload}: tight_frac differs for {key}")
        first, second = (runs[(seed, 1)]["per_layer"]
                         for seed in options.seeds)
        moved = [f"{name} {first[name]} -> {second[name]}"
                 for name in COUNTERS if first[name] != second[name]]
        print("  counter totals across seeds: "
              + ("identical" if not moved else "MOVED: " + "; ".join(moved)))
    for problem in problems:
        print(f"FAILED {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
