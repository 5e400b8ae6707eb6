#!/usr/bin/env python3
"""The benchmark's own test: exact counts and faithful mirrors.

    python3 perfbench/selftest.py

Builds like run.py, then runs every workload's traced mode twice at a
small operation count, at seed 1. It passes when both runs are correct and every
count metric is identical across them: Enum statistics, engine, Cup
and Scp counters, cache hits, misses and evictions, minor words, and
the daemon's response and file cache counters. A correct traced run
also means its mirrors reproduced the real entry points: analyze's
bytes (at seed 1, the committed golden report), sweep's verdicts and
message counts, and serve's in-process replies and cache counters.
"""

import argparse
import os
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SMALL_OPS = {"analyze": 4, "discover": 8, "sweep": 8, "serve": 200}


def main():
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    if not run.in_checkout():
        run.fail("run me from the root of a stellar-cup checkout", code=2)
    run.build()
    failures = []
    for workload, ops in SMALL_OPS.items():
        first, second = (run.workload_run(workload, 1, ops, True, tag="selftest%d" % i)
                         for i in (1, 2))
        for i, r in enumerate((first, second), 1):
            if not r["sound"] or r["failed"] or r["attempted"] != ops:
                failures.append("%s run %d incorrect: %s" % (workload, i, r["errors"]))
        a, b = first["counts"], second["counts"]
        if not a:
            failures.append("%s reported no counts" % workload)
        for name in sorted(set(a) | set(b)):
            if a.get(name) != b.get(name):
                failures.append("%s %s: %r then %r" % (workload, name, a.get(name), b.get(name)))
        print("%-8s %d counts identical across two traced runs of %d ops"
              % (workload, len(a), ops) if not failures else "%-8s checked" % workload)
    for f in failures:
        print("FAIL " + f)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
