#!/usr/bin/env python3
"""Interleaved A/B runs of the end-to-end benchmark.

    python3 perfbench/ab.py --a ../parent --b . --seeds 1-10
    python3 perfbench/ab.py --a . --seeds 1-5 --workloads serve

Runs each checkout's own perfbench/run.py, untraced, alternately: for
every seed and workload one run of A and one of B, A first on even
seed indices and B first on odd ones, so both sets see the same drift
of the machine. Prints, per workload and end-to-end metric, each set's
median and quartiles (statistics.quantiles, n=4), its spread (the
quartile distance over the median), B's change against A with the
bound BENCHMARK.json fixes, and how many pairs B won. With --a alone
it measures one set, which is how the benchmark's own steadiness is
checked. Every run lasts BENCHMARK.json's run_seconds; its metrics
are echoed to standard error as it ends.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds_arg(s):
    if "-" in s:
        lo, hi = s.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in s.split(",")]


def run(checkout, workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit("run failed in %s (%s seed %d):\n%s" % (checkout, workload, seed, p.stderr[-2000:]))
    return json.loads(lines[-1])


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--a", required=True, help="checkout A (the baseline)")
    ap.add_argument("--b", help="checkout B (the change); omit to measure A alone")
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--workloads", help="comma-separated (default: all)")
    args = ap.parse_args()

    with open(os.path.join(args.a, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    sides = [("A", args.a)] + ([("B", args.b)] if args.b else [])

    results = {(side, w): [] for side, _ in sides for w in workloads}
    for i, seed in enumerate(args.seeds):
        for w in workloads:
            for side, checkout in (sides if i % 2 == 0 else sides[::-1]):
                r = run(checkout, w, seed, seconds)
                results[side, w].append(r)
                print("%s %-8s seed %-3d correct=%s %s" % (
                    side, w, seed, r["correct"],
                    " ".join("%s=%.4g" % (k, v["value"]) for k, v in r["metrics"].items())),
                    file=sys.stderr, flush=True)

    for w in workloads:
        print("\n== %s (%d seeds, %d s runs)" % (w, len(args.seeds), seconds))
        for side, _ in sides:
            bad = [r for r in results[side, w] if not r["correct"] or r["failed"]]
            if bad:
                print("  %s: %d incorrect run(s)" % (side, len(bad)))
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            row = "  %-15s" % name
            sets = {}
            for side, _ in sides:
                vals = [r["metrics"][name]["value"] for r in results[side, w]]
                sets[side] = vals
                med, q1, q3, spread = summary(vals)
                row += "  %s %.4g [%.4g, %.4g] spread %.3f" % (side, med, q1, q3, spread)
            if args.b:
                a, b = statistics.median(sets["A"]), statistics.median(sets["B"])
                worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
                wins = sum(1 for x, y in zip(sets["A"], sets["B"])
                           if (y < x if m["better"] == "lower" else y > x))
                row += "  B worse by %+.3f (bound %.2f%s)  B won %d/%d" % (
                    worse, bound, ", EXCEEDED" if worse > bound else "", wins, len(sets["A"]))
            else:
                med, _, _, spread = summary(sets["A"])
                row += "  (bound %.2f%s)" % (
                    bound, "" if name == "setup_s" or spread < bound / 3 else ", spread above bound/3")
            print(row)


if __name__ == "__main__":
    main()
