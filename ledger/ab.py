#!/usr/bin/env python3
"""Runs the ledger benchmark repeatedly and judges its numbers.

    python3 ledger/ab.py spread [--runs 10] [--sets 1] [--workloads a,b] [--seconds S]

Runs the benchmark `--runs` times per workload in the current checkout, each
run with another seed, and prints every end-to-end metric's median, quartiles
and spread, (q3 - q1) / median, next to the metric's bound. With `--sets 2`
it does that twice on fresh seeds and checks that the second set's median is
not worse than the first's by more than the bound.

    python3 ledger/ab.py compare BASE HEAD [--runs 10] [--workloads a,b]

Alternates runs of two checkouts seed by seed, switching which side runs
first, and prints both sides' medians and quartiles with a verdict per
metric and workload (see `verdict`).

Both modes read BENCHMARK.json from the (head) checkout and run its command
from each checkout's root with CARGO_TARGET_DIR=.bench_build there, taking
the last line of standard output as the result. `--out FILE` appends every
result, tagged with side, workload and seed, as JSON lines.

Doctests: python3 -m doctest ledger/ab.py
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def load(checkout):
    with open(os.path.join(checkout, "BENCHMARK.json")) as f:
        return json.load(f)


def run(checkout, bench, workload, seed, seconds, trace=0):
    """One benchmark run; returns the parsed result line."""
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(checkout, ".bench_build"))
    # The first run in a checkout builds the benchmark.
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed} in {checkout}: exit code {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} in {checkout}: correctness checks failed")
    return result


def summary(values):
    """Median, first and third quartile, and spread as a share of the median.

    >>> summary([1.0, 2.0, 3.0, 4.0, 5.0])
    (3.0, 1.5, 4.5, 1.0)
    """
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def worse_by(base, head, better):
    """Share of `base` by which `head` is worse; negative when it is better.

    >>> worse_by(100.0, 90.0, "higher")
    0.1
    >>> worse_by(100.0, 110.0, "higher")
    -0.1
    >>> round(worse_by(10.0, 11.0, "lower"), 12)
    0.1
    >>> round(worse_by(10.0, 9.0, "lower"), 12)
    -0.1
    """
    change = (head - base) / base
    return change if better == "lower" else -change


def verdict(base, head, bound, better):
    """Judges paired runs of one metric on one workload.

    `base` and `head` are lists of values, one per seed, paired by index.
    A metric whose base spread exceeds its bound is unresolved unless every
    head run is better than every base run. Otherwise it regressed when the
    head median is worse than the base median by more than the bound, and
    gained when head wins nine tenths of the pairs (ties count for neither)
    and the medians differ by more than the base's quartile distance.

    >>> verdict([10, 10.1, 9.9, 10, 10.2], [10.1, 10, 10, 10.1, 9.9], 0.1, "lower")
    'within bound'
    >>> verdict([10, 10.1, 9.9, 10, 10.2], [12, 12.1, 11.9, 12, 12.2], 0.1, "lower")
    'regressed'
    >>> verdict([10, 10.1, 9.9, 10, 10.2], [8, 8.1, 7.9, 8, 8.2], 0.1, "lower")
    'gain'
    >>> verdict([10, 10.1, 9.9, 10, 10.2], [8, 8.1, 7.9, 8, 8.2], 0.1, "higher")
    'regressed'
    >>> verdict([5, 15, 10, 20, 1], [9, 9, 9, 9, 9], 0.1, "lower")
    'unresolved'
    >>> verdict([5, 15, 10, 20, 6], [4, 4, 4, 4, 4], 0.1, "lower")
    'gain'
    """
    b_med, b_q1, b_q3, b_spread = summary(base)
    h_med = statistics.median(head)
    better_than = (lambda h, b: h < b) if better == "lower" else (lambda h, b: h > b)
    if b_spread > bound:
        return "gain" if all(better_than(h, b) for h in head for b in base) else "unresolved"
    if worse_by(b_med, h_med, better) > bound:
        return "regressed"
    wins = sum(better_than(h, b) for h, b in zip(head, base))
    if wins >= 0.9 * len(base) and abs(h_med - b_med) > b_q3 - b_q1:
        return "gain"
    return "within bound"


def workloads(bench, names):
    listed = [w["name"] for w in bench["workloads"]]
    if not names:
        return listed
    chosen = names.split(",")
    unknown = set(chosen) - set(listed)
    if unknown:
        raise SystemExit(f"unknown workloads: {', '.join(sorted(unknown))}")
    return chosen


def record(out, side, workload, seed, result):
    if out:
        with open(out, "a") as f:
            f.write(json.dumps({"side": side, "workload": workload, "seed": seed, **result}) + "\n")


def spread(args):
    checkout = os.getcwd()
    bench = load(checkout)
    seconds = args.seconds or bench["run_seconds"]
    ok = True
    for workload in workloads(bench, args.workloads):
        medians = []
        for s in range(args.sets):
            seeds = [1000 * s + i + 1 for i in range(args.runs)]
            results = []
            for seed in seeds:
                result = run(checkout, bench, workload, seed, seconds)
                record(args.out, f"set{s + 1}", workload, seed, result)
                results.append(result)
            print(f"\n{workload}, set {s + 1}, seeds {seeds[0]}..{seeds[-1]}")
            print(f"  {'metric':<18} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
            set_medians = {}
            for m in bench["end_to_end"]:
                values = [r["metrics"][m["name"]]["value"] for r in results]
                med, q1, q3, share = summary(values)
                set_medians[m["name"]] = med
                flag = ""
                if m["name"] != "setup_s" and share > m["bound"]:
                    flag, ok = "  OVER BOUND", False
                elif share > m["bound"] / 3:
                    flag = "  over bound/3"
                print(f"  {m['name']:<18} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} {share:>8.4f} {m['bound']:>6}{flag}")
            medians.append(set_medians)
        for s in range(1, len(medians)):
            for m in bench["end_to_end"]:
                worse = worse_by(medians[0][m["name"]], medians[s][m["name"]], m["better"])
                if worse > m["bound"]:
                    ok = False
                    print(f"  {workload} {m['name']}: set {s + 1} median worse than set 1 by {worse:.4f} > {m['bound']}")
    return 0 if ok else 1


def compare(args):
    bench = load(args.head)
    seconds = args.seconds or bench["run_seconds"]
    for workload in workloads(bench, args.workloads):
        paired = {"base": [], "head": []}
        for i in range(args.runs):
            seed = i + 1
            order = ["base", "head"] if i % 2 == 0 else ["head", "base"]
            for side in order:
                result = run(getattr(args, side), bench, workload, seed, seconds)
                record(args.out, side, workload, seed, result)
                paired[side].append(result)
        print(f"\n{workload}: {args.runs} pairs")
        print(f"  {'metric':<18} {'base median':>12} {'[q1, q3]':>24} {'head median':>12} {'[q1, q3]':>24}  verdict")
        for m in bench["end_to_end"]:
            base = [r["metrics"][m["name"]]["value"] for r in paired["base"]]
            head = [r["metrics"][m["name"]]["value"] for r in paired["head"]]
            b, h = summary(base), summary(head)
            print(
                f"  {m['name']:<18} {b[0]:>12.5g} {f'[{b[1]:.5g}, {b[2]:.5g}]':>24} "
                f"{h[0]:>12.5g} {f'[{h[1]:.5g}, {h[2]:.5g}]':>24}  {verdict(base, head, m['bound'], m['better'])}"
            )
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    for name in ("spread", "compare"):
        p = sub.add_parser(name)
        if name == "compare":
            p.add_argument("base")
            p.add_argument("head")
        else:
            p.add_argument("--sets", type=int, default=1)
        p.add_argument("--runs", type=int, default=10)
        p.add_argument("--workloads", default="")
        p.add_argument("--seconds", type=float, default=None)
        p.add_argument("--out", default=None)
    args = parser.parse_args()
    if args.runs < 3:
        raise SystemExit("--runs must be at least 3 for quartiles")
    return spread(args) if args.mode == "spread" else compare(args)


if __name__ == "__main__":
    sys.exit(main())
