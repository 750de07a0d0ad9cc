#!/usr/bin/env python3
"""Steadiness report: the evidence behind the bounds in BENCHMARK.json.

    python3 perfbench/steadiness.py [--k 10] [--sets 1] [--seconds S]
                                    [workload ...]

Runs each workload k times with seeds 1..k and prints for every end-to-end
metric the median, the quartiles (statistics.quantiles(values, n=4)), the
quartile spread (q3 - q1) / median and the largest relative spread
(max - min) / median next to the metric's bound. With --sets 2 the k runs
are repeated with the same seeds and the drift of the second median from the
first is printed as well (positive = worse); the spreads shown are then
the largest over the sets. That is how the bounds are
checked: every quartile spread should stay below a third of its bound, and
no median should drift by more than its bound. Exits non-zero if any run
fails.

Recorded spreads of mmse-128x8-coh8-32cell over seeds 1..5, 20 s runs on a
4-vCPU shared host, (q3 - q1) / median and (max - min) / median, recomputed
from the runs' per-slice values with the workload's host elasticity (1.5):
                                      throughput      latency p99
  confined to one CPU (as run):       0.071  0.078    0.052  0.062
  unconfined (CPU pinning removed):   0.209  0.332    1.272  2.332
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                       stderr=subprocess.DEVNULL, text=True)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if p.returncode != 0 or result is None or not result["correct"]:
        sys.stdout.write(p.stdout)
        raise SystemExit("run failed: %s (exit %d)" % (" ".join(cmd), p.returncode))
    return result


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    scale = abs(med) if med else 1.0
    return med, q1, q3, (q3 - q1) / scale, (max(values) - min(values)) / scale


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workloads", nargs="*",
                    default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--k", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()

    worst_spread = 0.0
    worst_drift = 0.0
    for w in args.workloads:
        sets = [[run_once(w, seed, args.seconds) for seed in range(1, args.k + 1)]
                for _ in range(args.sets)]
        print("\n%s: %d set(s) of %d runs, seeds 1..%d, %d s"
              % (w, args.sets, args.k, args.k, args.seconds))
        print("%-32s %12s %12s %12s %8s %8s %6s %8s" % (
            "metric", "median", "q1", "q3", "iqr/med", "max/med", "bound",
            "drift"))
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            stats = [summarize([r["metrics"][name]["value"] for r in runs])
                     for runs in sets]
            med, q1, q3, _, _ = stats[0]
            iqr = max(s[3] for s in stats)
            rng = max(s[4] for s in stats)
            drift = ""
            if len(stats) > 1 and med:
                d = (stats[1][0] - med) / abs(med)
                d = d if m["better"] == "lower" else -d
                worst_drift = max(worst_drift, d / bound)
                drift = "%+.3f" % d
            worst_spread = max(worst_spread, iqr / bound)
            flag = "  <- above bound/3" if iqr > bound / 3 else ""
            print("%-32s %12.6g %12.6g %12.6g %8.3f %8.3f %6.2f %8s%s" % (
                name, med, q1, q3, iqr, rng, bound, drift, flag))
    print("\nlargest quartile spread as a share of its bound: %.2f" % worst_spread)
    if args.sets > 1:
        print("largest drift (worse) as a share of its bound: %.2f" % worst_drift)


if __name__ == "__main__":
    main()
