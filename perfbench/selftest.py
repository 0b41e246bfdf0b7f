#!/usr/bin/env python3
"""Self-test of the benchmark's gate.

Run from the repository root:

    python3 perfbench/selftest.py

Runs every workload once at its smallest size and requires a fail_ratio
of 0.  Then it runs the same jobs against a corrupted reference (one
Betti number +1 in one job) and, for cli-wide, once with an output
format the CLI rejects (an unexpected exit code), and requires the gate
to flag each, i.e. a fail_ratio above 0.  Exits 0 when all of that
holds, 1 otherwise.
"""

from __future__ import annotations

import shutil
import sys
import tempfile

import run as bench
from workloads import WORKLOADS

SEED = 0


def fail_ratio(workload, api, jobs):
    p = bench.run_pass(workload.run, api, jobs, deadline=float("inf"))
    attempted, failures = bench.gate(workload, [p])
    return len(failures) / attempted, failures


def main():
    if not (bench.SRC / bench.PACKAGE / "__init__.py").is_file():
        print("selftest: package source not found", file=sys.stderr)
        return 2
    api = bench.import_package()
    bench.OUT.mkdir(parents=True, exist_ok=True)
    ok = True

    def expect(label, ratio, failures, want_failures):
        nonlocal ok
        good = (ratio > 0) == want_failures
        ok = ok and good
        print("%-4s %-12s %-40s fail_ratio %.3f%s" % (
            "ok" if good else "BAD", workload.name, label, ratio,
            "  (%s)" % failures[0][1] if failures else ""))

    for workload in WORKLOADS.values():
        workdir = tempfile.mkdtemp(prefix="selftest-", dir=bench.OUT)
        try:
            jobs = workload.jobs(api, SEED, workdir, smallest=True)
            expect("reference as computed", *fail_ratio(workload, api, jobs), False)
            k = next(i for i, j in enumerate(jobs) if workload.corrupt(j) != j)
            corrupted = jobs[:k] + [workload.corrupt(jobs[k])] + jobs[k + 1:]
            expect("one Betti number +1", *fail_ratio(workload, api, corrupted), True)
            if workload.uses_cli:
                bad = [workload.with_bad_exit(j) for j in jobs[:1]] + jobs[1:]
                expect("unexpected exit code", *fail_ratio(workload, api, bad), True)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    print("selftest: %s" % ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
