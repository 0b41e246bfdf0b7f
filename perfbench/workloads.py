"""The four benchmark workloads.

Each workload turns a seed into a job list (one pass), runs a job
through the package's public API (or its CLI), and gates the answer
against the exact references in reference.py.  A job's `columns` is
sum over the degrees it builds of dim C^q, counted here with math.comb.
The seed picks parameters inside a fixed size class, never the class,
so every seed costs about the same.
"""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
from dataclasses import dataclass, replace
from typing import Optional

import inputs
import reference as ref

JOB_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class Job:
    label: str
    spec: tuple
    columns: int
    expect: dict


def _family_dims(family):
    if family[0] == "odd":
        return family[1], family[1] + 1
    return 2 * family[1] + 1, family[2]


def _family_name(family):
    if family[0] == "odd":
        return "h_%d" % family[1]
    return "h_{%d,%d}" % (family[1], family[2])


def _family_algebra(family):
    if family[0] == "odd":
        return inputs.heisenberg_odd(family[1])
    return inputs.heisenberg_even(family[1], family[2])


def child_env(src):
    """The environment for a child that must import the package from src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _bump_last(values):
    return values[:-1] + (values[-1] + 1,)


class Workload:
    name = ""
    uses_cli = False
    # passes in a 30 s run (run.py scales it with --seconds).  Chosen so a
    # run takes 20-30 s on the host the benchmark was defined on, and so
    # that job_s_tail, the job with ten slower ones beyond it, falls inside
    # one job's cluster of repeats, not on the edge between two (five
    # passes would put it there when the slowest jobs come in pairs)
    passes = 4

    def jobs(self, api, seed: int, workdir: str, smallest: bool = False):
        raise NotImplementedError

    def run(self, api, job: Job):
        """The timed call; returns the answer the gate checks."""
        raise NotImplementedError

    def run_in_process(self, api, job: Job):
        """The call the traced pass wraps; the same as run() unless run() forks."""
        return self.run(api, job)

    def same_answer(self, a, b) -> bool:
        return a == b

    def check(self, job: Job, answer) -> Optional[str]:
        raise NotImplementedError

    def corrupt(self, job: Job) -> Job:
        """The job with one reference Betti number off by one."""
        return replace(job, expect=dict(job.expect, betti=_bump_last(job.expect["betti"])))


class FamilyDeep(Workload):
    """betti_table on deep tables of the built-in families."""

    name = "family-deep"
    SIZE_CLASS = ((("odd", 4), 8), (("even", 3, 3), 8), (("odd", 3), 10), (("even", 2, 4), 8))
    SMALLEST = ((("odd", 1), 3), (("even", 1, 1), 3))

    def jobs(self, api, seed, workdir, smallest=False):
        members = list(self.SMALLEST if smallest else self.SIZE_CLASS)
        inputs.rng_for(self.name, seed).shuffle(members)
        out = []
        for family, q_max in members:
            cochain = ref.cochain_dims(*_family_dims(family), q_max)
            out.append(Job("%s q<=%d" % (_family_name(family), q_max), (family, q_max),
                           sum(cochain),
                           {"cochain": cochain, "betti": ref.family_betti(api, family, q_max)}))
        return out

    def run(self, api, job):
        family, q_max = job.spec
        if family[0] == "odd":
            alg = api.make_heisenberg_odd(family[1])
        else:
            alg = api.make_heisenberg_even(family[1], family[2])
        return tuple((r.q, r.dim_cochain, r.dim_cohomology, r.dim_cocycles, r.dim_coboundaries)
                     for r in api.betti_table(alg, q_max))

    def check(self, job, answer):
        return ref.compare_table(answer, job.expect["cochain"], job.expect["betti"])


class DefnDense(Workload):
    """parse_algebra -> betti_table -> emit_report on direct sums in a hidden basis."""

    name = "defn-dense"
    passes = 3
    # (summand, summand, q_max), each run in BASES_PER_PAIR unimodular bases.
    # The bases are drawn once from a fixed stream; the seed then draws a
    # signed relabelling of each (see inputs.signed_relabel), because a
    # fresh random basis per seed moves elimination cost by up to 1.7x.
    SIZE_CLASS = ((("odd", 1), ("odd", 1), 6), (("even", 1, 1), ("odd", 1), 6),
                  (("even", 1, 1), ("even", 1, 1), 5), (("odd", 2), ("odd", 1), 5))
    SMALLEST = ((("odd", 1), ("odd", 1), 3),)
    BASES_PER_PAIR = 3

    def jobs(self, api, seed, workdir, smallest=False):
        rng = inputs.rng_for(self.name, seed)
        members = [(m, b) for m in (self.SMALLEST if smallest else self.SIZE_CLASS)
                   for b in range(1 if smallest else self.BASES_PER_PAIR)]
        rng.shuffle(members)
        out = []
        for k, ((fa, fb, q_max), base) in enumerate(members):
            summed = inputs.direct_sum(_family_algebra(fa), _family_algebra(fb))
            fixed = inputs.rng_for("%s/%s+%s/basis%d" % (self.name, fa, fb, base), 0)
            algebra = inputs.signed_relabel(rng, inputs.change_basis(fixed, summed))
            text = inputs.definition_text("dsum%d" % k, algebra)
            fmt = rng.choice(("text", "csv", "json"))
            n_even = _family_dims(fa)[0] + _family_dims(fb)[0]
            n_odd = _family_dims(fa)[1] + _family_dims(fb)[1]
            cochain = ref.cochain_dims(n_even, n_odd, q_max)
            betti = ref.kunneth(ref.family_betti(api, fa, q_max), ref.family_betti(api, fb, q_max))
            label = "%s+%s q<=%d %s" % (_family_name(fa), _family_name(fb), q_max, fmt)
            out.append(Job(label, (text, q_max, fmt), sum(cochain),
                           {"cochain": cochain, "betti": betti}))
        return out

    def run(self, api, job):
        text, q_max, fmt = job.spec
        return api.emit_report(api.betti_table(api.parse_algebra(text), q_max), fmt)

    def check(self, job, answer):
        return ref.compare_table(ref.parse_report(answer, job.spec[2]),
                                 job.expect["cochain"], job.expect["betti"])


class VerifyGrid(Workload):
    """verify_family grids: many small coboundaries plus the psi kernels."""

    name = "verify-grid"
    SIZE_CLASS = (("odd", 4, None, 7), ("odd", 4, None, 6), ("odd", 3, None, 8),
                  ("odd", 3, None, 7), ("odd", 4, None, 5), ("odd", 2, None, 8),
                  ("even", 2, 3, 7), ("even", 1, 4, 8), ("even", 3, 2, 6))
    SMALLEST = (("odd", 1, None, 3), ("even", 1, 1, 3))
    PSI_POWERS = (1, 2, 3)

    def jobs(self, api, seed, workdir, smallest=False):
        members = list(self.SMALLEST if smallest else self.SIZE_CLASS)
        inputs.rng_for(self.name, seed).shuffle(members)
        return [self._job(api, *m) for m in members]

    def _job(self, api, family, n_max, m_max, q_max):
        # the Betti number the rank route must report at every grid point
        points = {}
        columns = 0
        deviations = 0
        for n in range(1, n_max + 1):
            if family == "even":
                for m in range(1, m_max + 1):
                    columns += sum(ref.cochain_dims(2 * n + 1, m, q_max))
                    for q in range(q_max + 1):
                        points[("dim_h_even", n, m, q)] = api.dim_h_even(n, m, q)
                continue
            columns += sum(ref.cochain_dims(n, n + 1, q_max))
            columns += len(self.PSI_POWERS) * sum(ref.cochain_dims(n, n, q_max))
            for q in range(q_max + 1):
                h = api.dim_h_odd_proof(n, q)
                points[("dim_h_odd_proof", n, None, q)] = h
                points[("dim_h_odd_displayed", n, None, q)] = h
                deviations += api.dim_h_odd_displayed(n, q) != h
                for l in self.PSI_POWERS:
                    points[("ker_psi_dim[l=%d]" % l, n, None, q)] = api.ker_psi_dim(q, n)
        label = "verify %s n<=%d%s q<=%d" % (family, n_max,
                                             "" if m_max is None else " m<=%d" % m_max, q_max)
        return Job(label, (family, n_max, m_max, q_max), columns,
                   {"points": points, "deviations": deviations})

    def run(self, api, job):
        res = api.verify_family(*job.spec)
        return (tuple((c.formula, c.n, c.m, c.q, c.formula_value, c.oracle_value)
                      for c in res.checks), len(res.failures), len(res.deviations))

    def check(self, job, answer):
        checks, failures, deviations = answer
        points = job.expect["points"]
        if failures:
            return "%d production-formula failures" % failures
        if len(checks) != len(points):
            return "%d checks, reference grid has %d points" % (len(checks), len(points))
        if deviations != job.expect["deviations"]:
            return "%d deviations, reference %d" % (deviations, job.expect["deviations"])
        for formula, n, m, q, _, oracle in checks:
            want = points.get((formula, n, m, q))
            if want != oracle:
                return "%s n=%s m=%s q=%d: rank route %d, reference %s" % (
                    formula, n, m, q, oracle, want)
        return None

    def corrupt(self, job):
        points = dict(job.expect["points"])
        key = max(k for k in points if k[0] in ("dim_h_even", "dim_h_odd_proof"))
        points[key] += 1
        return replace(job, expect=dict(job.expect, points=points))


class CliWide(Workload):
    """The installed CLI on wide, shallow even-family inputs, refusals included."""

    name = "cli-wide"
    uses_cli = True
    # (verb, copies per pass, dim = 2n+1+m, q_max, choices of n); m = dim-1-2n
    SIZE_CLASS = (("even", 3, 55, 2, (17, 18, 19)),
                  ("even", 2, 83, 1, (37, 38, 39, 40)),
                  ("even", 3, 45, 3, (12, 13, 14, 15, 16)),
                  ("compute", 2, 45, 2, (12, 13, 14, 15, 16)))
    SMALLEST = (("even", 1, 7, 2, (2,)), ("even", 1, 45, 3, (12,)),
                ("compute", 1, 7, 2, (2,)))

    def jobs(self, api, seed, workdir, smallest=False):
        rng = inputs.rng_for(self.name, seed)
        members = []
        for verb, copies, dim, q_max, choices in (self.SMALLEST if smallest else self.SIZE_CLASS):
            for _ in range(copies):
                n = rng.choice(choices)
                members.append((verb, n, dim - 1 - 2 * n, q_max))
        rng.shuffle(members)
        out = []
        for k, (verb, n, m, q_max) in enumerate(members):
            fmt = rng.choice(("text", "csv", "json"))
            if verb == "compute":
                algebra = inputs.shuffle_generators(rng, inputs.heisenberg_even(n, m))
                path = os.path.join(workdir, "wide%d.alg" % k)
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(inputs.definition_text("wide%d" % k, algebra))
                argv = ["compute", "--algebra", path]
            else:
                argv = ["even", "--n", str(n), "--m", str(m)]
            argv += ["--q-max", str(q_max), "--format", fmt]
            cochain = ref.cochain_dims(2 * n + 1, m, q_max)
            refused = ref.first_refused_degree(2 * n + 1, m, q_max)
            built = cochain if refused is None else cochain[:refused]
            label = "%s h_{%d,%d} q<=%d %s" % (verb, n, m, q_max, fmt)
            out.append(Job(label, (argv, fmt), sum(built),
                           {"cochain": cochain, "refused_at": refused,
                            "betti": ref.family_betti(api, ("even", n, m), q_max)}))
        return out

    def run(self, api, job):
        src = os.path.dirname(os.path.dirname(api.__file__))
        proc = subprocess.run([sys.executable, "-m", "heisenberg_cohomology.cli", *job.spec[0]],
                              env=child_env(src), stdin=subprocess.DEVNULL, capture_output=True,
                              timeout=JOB_TIMEOUT_S, check=False)
        return proc.returncode, proc.stdout, proc.stderr

    def run_in_process(self, api, job):
        out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = api.cli.main(list(job.spec[0]))
            out.flush()
        return code, out.buffer.getvalue(), err.getvalue().encode("utf-8")

    def same_answer(self, a, b):
        # stderr may differ between a child process and an in-process call
        return a[:2] == b[:2]

    def check(self, job, answer):
        code, out, err = answer
        if b"Traceback" in err:
            return "traceback on stderr"
        refused = job.expect["refused_at"]
        if refused is not None:
            if code != 3:
                return "exit %d, reference predicts a refusal (exit 3) at q=%d" % (code, refused)
            if out or b"resource refusal" not in err:
                return "exit 3 without the refusal message alone"
            return None
        if code != 0:
            return "exit %d, reference predicts exit 0" % code
        return ref.compare_table(ref.parse_report(out, job.spec[1]),
                                 job.expect["cochain"], job.expect["betti"])

    def corrupt(self, job):
        if job.expect["refused_at"] is not None:
            return job
        return super().corrupt(job)

    def with_bad_exit(self, job):
        """The job asked with an output format the CLI rejects (exit 1)."""
        argv, fmt = job.spec
        bad = list(argv)
        bad[bad.index("--format") + 1] = "yaml"
        return replace(job, label=job.label + " --format yaml", spec=(bad, fmt))


WORKLOADS = {w.name: w for w in (FamilyDeep(), DefnDense(), VerifyGrid(), CliWide())}
