#!/usr/bin/env python3
"""Benchmark of heisenberg-cohomology.

Run from the repository root:

    python3 perfbench/run.py --workload family-deep --seed 1 --seconds 20 --trace 0

Workloads are listed in BENCHMARK.json.  Each is one client in a closed
loop: the seeded job list (one pass) is run back to back, in this
process or, for cli-wide, one child process at a time.  A run makes the
workload's pass count scaled by --seconds / 30, and at least enough for
MIN_JOBS jobs.  Times are scaled to a reference host speed measured
between jobs (see calibrate.py).  Every answer is gated exactly against
references that do not come from the rank route.

--trace 0 reports the end-to-end metrics with tracing off.  --trace 1
runs one untraced and one traced pass of the same job list, checks that
both give identical answers, and reports the per-layer metrics.  The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; a provenance record, and for --trace 1 the spans,
are written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import calibrate
import spans
from workloads import JOB_TIMEOUT_S, WORKLOADS, child_env

PACKAGE = "heisenberg_cohomology"
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
SETUP_SAMPLES = 15     # setup_s is the median of this many set-ups
STARTUP_SAMPLES = 5    # cli.startup_s takes medians of this many interpreters
MIN_JOBS = 11          # so that job_s_tail has ten jobs beyond it
HARD_LIMIT_S = 110.0   # no job starts later than this after launch (jobs time out at 60 s)


class JobTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise JobTimeout("no answer within %.0f s" % JOB_TIMEOUT_S)


@contextlib.contextmanager
def _time_limit(seconds):
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def import_package():
    """The package from this checkout's src/, never an installed copy."""
    sys.path.insert(0, str(SRC))
    import heisenberg_cohomology as api
    if Path(api.__file__).resolve().parent != SRC / PACKAGE:
        raise ImportError("%s was imported from %s, not from src/" % (PACKAGE, api.__file__))
    return api


class Pass:
    """One run of the whole job list."""

    def __init__(self, jobs):
        self.jobs = jobs
        self.job_seconds = [None] * len(jobs)   # raw
        self.job_norm = [None] * len(jobs)      # at the reference host speed
        self.calibration = []                   # kernel seconds before, between, after jobs
        self.answers = [None] * len(jobs)
        self.errors = [None] * len(jobs)
        self.reasons = [None] * len(jobs)   # filled in by gate()

    @property
    def complete(self):
        return all(t is not None for t in self.job_seconds)

    @property
    def seconds(self):
        return sum(t for t in self.job_seconds if t is not None)

    @property
    def norm_seconds(self):
        return sum(t for t in self.job_norm if t is not None)


def run_pass(run, api, jobs, deadline, tracer=None):
    gc.collect()
    p = Pass(jobs)
    clock = time.perf_counter
    p.calibration.append(calibrate.sample())
    for i, job in enumerate(jobs):
        if clock() > deadline:
            p.errors[i] = "not started: the run's time limit was reached"
            continue
        span = tracer.job_span(i) if tracer is not None else contextlib.nullcontext()
        t0 = clock()
        try:
            with _time_limit(JOB_TIMEOUT_S), span:
                p.answers[i] = run(api, job)
        except Exception as exc:  # any failure of the program is a failed job
            p.errors[i] = "%s: %s" % (type(exc).__name__, exc)
        p.job_seconds[i] = clock() - t0
        p.calibration.append(calibrate.sample())
        p.job_norm[i] = normalize(p.job_seconds[i], p.calibration[-2:])
    return p


def normalize(seconds, kernel_samples):
    """Seconds at the reference host speed, from the kernel samples around them."""
    return seconds * calibrate.REFERENCE_S / statistics.mean(kernel_samples)


def gate(workload, passes):
    """(attempted, [(label, reason)]) over every job of every pass."""
    attempted = 0
    failures = []
    for p in passes:
        for i, (job, answer, error) in enumerate(zip(p.jobs, p.answers, p.errors)):
            attempted += 1
            p.reasons[i] = error if error is not None else workload.check(job, answer)
            if p.reasons[i] is not None:
                failures.append((job.label, p.reasons[i]))
    return attempted, failures


def tail(values):
    """(value, percentile): the highest percentile with >= 10 samples beyond it."""
    ordered = sorted(values)
    k = max(len(ordered) - 11, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def _child(argv):
    """(raw seconds, stdout) of one child process."""
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=child_env(SRC), stdin=subprocess.DEVNULL,
                          capture_output=True, timeout=60, check=True)
    return time.perf_counter() - t0, proc.stdout


def setup_samples(args, first):
    """first plus SETUP_SAMPLES - 1 set-ups, each in a fresh interpreter,
    at the reference host speed."""
    kernel = [calibrate.sample()]   # right after the first set-up
    samples = [normalize(first, kernel)]
    for _ in range(SETUP_SAMPLES - 1):
        _, out = _child([sys.executable, str(Path(__file__).resolve()), "--workload",
                         args.workload, "--seed", str(args.seed), "--setup-probe"])
        kernel.append(calibrate.sample())
        samples.append(normalize(float(out.decode().split()[-1]), kernel[-2:]))
    return samples


def cli_startup_s():
    """Median fresh-interpreter import of the CLI, minus a bare interpreter."""
    def median_child(code):
        kernel = [calibrate.sample()]
        norm = []
        for _ in range(STARTUP_SAMPLES):
            seconds, _ = _child([sys.executable, "-c", code])
            kernel.append(calibrate.sample())
            norm.append(normalize(seconds, kernel[-2:]))
        return statistics.median(norm)
    return median_child("import %s.cli" % PACKAGE) - median_child("pass")


def provenance(args, jobs):
    digest = hashlib.sha256()
    for path in sorted((SRC / PACKAGE).glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        rev = None   # a checkout without git metadata
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_revision": rev, "source_sha256": digest.hexdigest(),
        "python": platform.python_version(), "implementation": platform.python_implementation(),
        "platform": platform.platform(), "nproc": os.cpu_count(),
        "cpus_pinned": sorted(os.sched_getaffinity(0)),
        "jobs_per_pass": len(jobs), "jobs": [j.label for j in jobs],
    }


def end_to_end(workload, jobs, setup, passes):
    """The end-to-end metrics; every time is at the reference host speed."""
    complete = [p for p in passes if p.complete]
    job_s = [t for p in passes for t in p.job_norm if t is not None]
    wall = statistics.mean(p.norm_seconds for p in complete) if complete else 0.0
    done_columns = [sum(j.columns for j, r in zip(p.jobs, p.reasons) if r is None)
                    for p in complete]
    # job_s_p50 is the median over the job list of each job's median across
    # passes: with jobs of a few distinct sizes, the median of all job times
    # sits on the edge between two sizes and jumps with either one
    per_job = [statistics.median(p.job_norm[i] for p in complete)
               for i in range(len(jobs))] if complete else [0.0]
    tail_s, tail_pct = tail(job_s) if job_s else (0.0, 0.0)
    who = resource.RUSAGE_CHILDREN if workload.uses_cli else resource.RUSAGE_SELF
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (wall, "s"),
        "job_s_p50": (statistics.median(per_job), "s"),
        "job_s_tail": (tail_s, "s"),
        "columns_per_s": (statistics.median(done_columns) / wall if wall else 0.0, "columns/s"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024.0, "MiB"),
    }
    samples = {"setup_s": len(setup), "wall_s": len(complete), "job_s_p50": len(job_s),
               "job_s_tail": len(job_s), "columns_per_s": len(complete), "peak_rss_mb": 1}
    extra = {"job_s_tail_percentile": tail_pct, "job_count": len(job_s),
             "setup_seconds": setup,
             "raw_pass_seconds": [p.seconds for p in passes],
             "raw_job_seconds": [p.job_seconds for p in passes],
             "kernel_seconds": [p.calibration for p in passes]}
    return metrics, samples, extra


def traced_run(workload, api, jobs, deadline, run_id):
    """Per-layer metrics from one untraced and one traced pass of the same jobs."""
    passes = []
    metrics = {}
    exits = {0: 0, 3: 0}
    refusal_s = 0.0
    if workload.uses_cli:
        # the children cannot be wrapped: their exit codes come from a real
        # CLI pass, the spans from the same argv run in process
        import heisenberg_cohomology.cli  # noqa: F401  (makes api.cli available)
        cli_pass = run_pass(workload.run, api, jobs, deadline)
        passes.append(cli_pass)
        for answer, secs in zip(cli_pass.answers, cli_pass.job_norm):
            code = answer[0] if answer is not None else None
            exits[code] = exits.get(code, 0) + 1
            if code == 3:
                refusal_s += secs
    plain = run_pass(workload.run_in_process, api, jobs, deadline)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = run_pass(workload.run_in_process, api, jobs, deadline, tracer)
    finally:
        tracer.uninstall()
    passes += [plain, traced]
    attempted, failures = gate(workload, passes)
    for job, a, b in zip(jobs, plain.answers, traced.answers):
        if a is not None and b is not None and not workload.same_answer(a, b):
            attempted += 1
            failures.append((job.label, "traced answer differs from untraced answer"))
    # per-layer seconds at the reference host speed of the traced pass
    speed = traced.norm_seconds / traced.seconds
    metrics.update({name: (value * speed if unit == "s" else value, unit)
                    for name, (value, unit) in tracer.layer_metrics().items()})
    metrics["cli.startup_s"] = (cli_startup_s() if workload.uses_cli else 0.0, "s")
    metrics["cli.refusal_s"] = (refusal_s, "s")
    metrics["cli.exit0"] = (exits[0], "count")
    metrics["cli.exit3"] = (exits[3], "count")
    metrics["cli.exit_other"] = (sum(v for k, v in exits.items() if k not in (0, 3)), "count")
    metrics["trace.overhead_ratio"] = (traced.norm_seconds / plain.norm_seconds, "ratio")
    span_file = OUT / ("spans-%s.jsonl" % run_id)
    tracer.write(span_file, {"run": run_id, "jobs": [j.label for j in jobs]})
    extra = {"spans_file": str(span_file.relative_to(ROOT)), "spans": len(tracer.start),
             "unpatched_sites": tracer.missing,
             "raw_untraced_pass_s": plain.seconds, "raw_traced_pass_s": traced.seconds,
             "untraced_pass_s": plain.norm_seconds, "traced_pass_s": traced.norm_seconds}
    samples = {name: 1 for name in metrics}
    return metrics, samples, extra, attempted, failures


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up only, print the set-up seconds and exit")
    return parser.parse_args(argv)


def main(argv=None):
    t_start = time.perf_counter()
    args = parse_args(argv)
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print("perfbench: %s/ not found next to perfbench/; run from a full checkout"
              % (Path("src") / PACKAGE), file=sys.stderr)
        return 2
    # one CPU for this process and its children, so that the calibration
    # kernel and the jobs see the same host load (the vCPUs of this host
    # slow down independently of each other)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    api = import_package()
    workload = WORKLOADS[args.workload]
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="inputs-", dir=OUT)
    try:
        jobs = workload.jobs(api, args.seed, workdir)
        first_setup = time.perf_counter() - t_start
        if args.setup_probe:
            print("setup_s %r" % first_setup)
            return 0
        deadline = t_start + HARD_LIMIT_S
        run_id = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
        record = provenance(args, jobs)
        if args.trace:
            metrics, samples, extra, attempted, failures = traced_run(
                workload, api, jobs, deadline, run_id)
        else:
            setup = setup_samples(args, first_setup)
            # a pass count fixed by --seconds, so that every run has the same
            # job count and job_s_tail the same percentile
            count = max(math.ceil(MIN_JOBS / len(jobs)),
                        round(workload.passes * args.seconds / 30))
            passes = [run_pass(workload.run, api, jobs, deadline) for _ in range(count)]
            attempted, failures = gate(workload, passes)
            metrics, samples, extra = end_to_end(workload, jobs, setup, passes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record.update(extra)
    record.update({"samples": samples, "attempted": attempted, "failed": len(failures),
                   "fail_ratio": len(failures) / attempted, "failures": failures[:50],
                   "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}})
    (OUT / ("result-%s.json" % run_id)).write_text(json.dumps(record, indent=1) + "\n")
    for name, (value, unit) in metrics.items():
        print("%-28s %14.6f %s" % (name, value, unit))
    print("%-28s %14.6f ratio (%d of %d jobs failed)" % (
        "fail_ratio", len(failures) / attempted, len(failures), attempted))
    if "job_s_tail_percentile" in extra:
        print("job_s_tail is the p%.1f of %d jobs" % (extra["job_s_tail_percentile"],
                                                    extra["job_count"]))
    print("record: %s" % (Path("perfbench/out") / ("result-%s.json" % run_id)))
    for label, reason in failures[:10]:
        print("FAILED %s: %s" % (label, reason))
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures),
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
