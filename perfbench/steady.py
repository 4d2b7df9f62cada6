#!/usr/bin/env python3
"""Steadiness report: repeat workloads with fresh seeds and show how much
every metric moves between runs.

    python3 perfbench/steady.py --runs 10 serve-cold serve-warm
    python3 perfbench/steady.py --runs 5 --trace 1 serve-cold

Per metric it prints the median, the quartiles (statistics.quantiles, n=4),
the spread (third minus first quartile, as a share of the median) and the
max/min ratio, and names every metric whose spread exceeds a tenth. For
end-to-end metrics it also compares the spread with a third of the metric's
bound in BENCHMARK.json, and prints the largest spread/bound ratio over
all of them. Each run's host steal seconds are printed, so a
run slowed by a noisy neighbour shows. Run from the root of a checkout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NOISY = 0.10


def run_once(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or len(lines) < 2:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"{workload} seed {seed}: run failed ({out.returncode})")
    report = json.loads(lines[-2])["report"]
    return report, json.loads(lines[-1])


def steal_s(report):
    return sum(report[k]["steal_s"] for k in report if k.endswith("window"))


def spread(values):
    if len(values) < 2:
        return None, None, None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3, (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("workloads", nargs="+")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=None, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--seed-base", type=int, default=1000)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]
    worst = 0.0
    for workload in args.workloads:
        values, units = {}, {}
        print(f"== {workload}: {args.runs} runs x {seconds} s, trace {args.trace}")
        for i in range(args.runs):
            seed = args.seed_base + i
            report, result = run_once(workload, seed, seconds, args.trace)
            shown = " ".join(f"{k}={m['value']:.4g}" for k, m in result["metrics"].items() if k in bounds)
            print(f"  run {i + 1:2d} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"steal_s={steal_s(report):.2f} rev={report['revision'][:12]} {shown}", flush=True)
            for p in report["problems"]:
                print(f"    problem: {p}")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        print(f"  {'metric':30s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>7s} {'max/min':>8s}")
        for name, vals in values.items():
            q1, q3, sp = spread(vals)
            lo, hi = min(vals), max(vals)
            ratio = hi / lo if lo > 0 else float("inf")
            flags = []
            if sp is not None and sp > NOISY:
                flags.append("NOISY")
            if name in bounds and sp is not None:
                flags.append(f"bound/3={bounds[name] / 3:.3f}" + (" OVER" if sp > bounds[name] / 3 else ""))
                worst = max(worst, sp / bounds[name])
            fmt = lambda v: f"{v:12.4f}" if v is not None else f"{'-':>12s}"
            sp_s = f"{sp:7.3f}" if sp is not None else f"{'-':>7s}"
            print(f"  {name + ' [' + units[name] + ']':30s} {fmt(statistics.median(vals))} {fmt(q1)} {fmt(q3)} "
                  f"{sp_s} {ratio:8.3f} {' '.join(flags)}")
    if bounds and args.trace == 0:
        print(f"worst spread/bound: {worst:.3f}")


if __name__ == "__main__":
    main()
