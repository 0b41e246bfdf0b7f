"""CI's timed cases: one table, CASES, and one runner.

    python tests/timed_cases.py [NAME ...]

runs every case of CASES (or the named ones) in turn as a child
process, with no shell, under PYTHONPATH=src:tests, its timeout and,
where its row gives one, a cap on the child's address space.  It prints
one line per case (name, exit code, seconds) and exits 1, naming them,
if any case timed out, exited with another code than its row's, wrote
a traceback to stderr or failed one of its row's output checks.

The definition files are built in this process from the tests' helpers,
with fixed seeds, into a temporary directory.  Standard library and the
tests' helpers only; the file has no test_ prefix, so pytest does not
collect it, and test_timed_cases.py checks the table and the runner.
"""

import os
import random
import resource
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from functools import lru_cache, reduce
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
PYTHONPATH = [str(ROOT / "src"), str(ROOT / "tests")]
sys.path[:0] = [p for p in PYTHONPATH if p not in sys.path]

from heisenberg_cohomology.algebra import (EVEN, ODD, LieSuperalgebra, adapted_basis,
                                           make_heisenberg_even, make_heisenberg_odd)
from heisenberg_cohomology.fileformats import format_algebra
from heisenberg_cohomology.limits import graded_dim

from oracles import full_matrix_ranks
from test_direct_sums import coefficient_table
from test_symmetric_blocks import distinct, odd_pairs, shuffled
from test_validate import SL2, _table, change_basis, direct_sum

ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(PYTHONPATH))
MiB = 1 << 20


class Case(NamedTuple):
    name: str
    argv: Tuple[str, ...]  # after `python`; {alg} and {dir} are filled in
    timeout: float  # seconds, the interpreter's start-up included
    code: int = 0  # the expected exit code
    checks: tuple = ()  # each check(argv, stdout) returns a complaint or None
    build: Optional[Callable[[], LieSuperalgebra]] = None  # the algebra written to {alg}
    memory: Optional[int] = None  # RLIMIT_AS of the child, in bytes


def cli(args: str) -> Tuple[str, ...]:
    return ("-m", "heisenberg_cohomology.cli", *args.split())


# ---- output checks ---------------------------------------------------------

def option(argv, flag):
    return argv[argv.index(flag) + 1]


def betti(out: str) -> list:
    """The dim_cohomology column of a text report whose rows are q = 0, 1, ..."""
    rows = [line.split() for line in out.splitlines()[1:]]
    if [row[1] for row in rows] != [str(q) for q in range(len(rows))]:
        raise ValueError("the report's rows are not q = 0, 1, ...: %r" % out)
    return [int(row[5]) for row in rows]


def cli_betti(args: str) -> list:
    proc = subprocess.run((sys.executable, *cli(args)), cwd=ROOT, env=ENV, check=True,
                          capture_output=True, text=True, timeout=60)
    return betti(proc.stdout)


def column(want, why="a literal"):
    """The dim_cohomology column equals want, or want(argv) if callable."""
    def check(argv, out):
        expected = want(argv) if callable(want) else want
        got = betti(out)
        if got != expected:
            return "Betti numbers %s, expected %s (%s)" % (got, expected, why)
    return check


def same_as(args: str):
    """The column equals that of the CLI command `args`."""
    return column(lambda argv: cli_betti(args), args)


def kunneth(*summands):
    """The column is the Kunneth product of the summands' columns: each a
    CLI command at the case's --q-max, or "free", the (1|1) part u, v
    with no brackets, whose d = 0 gives H^q = C^q."""
    def want(argv):
        q = int(option(argv, "--q-max"))
        out = [1] + [0] * q
        for summand in summands:
            b = ([1] + [2] * q if summand == "free"
                 else cli_betti("%s --q-max %d" % (summand, q)))
            out = [sum(out[i] * b[p - i] for i in range(p + 1)) for p in range(q + 1)]
        return out
    return column(want, "Kunneth of %s" % " + ".join(summands))


def full_matrices(build):
    """The column equals the Betti numbers of full_matrix_ranks."""
    def want(argv):
        alg, q = build(), int(option(argv, "--q-max"))
        rk = full_matrix_ranks(alg, q)
        return [graded_dim(alg.superdim, p) - rk[p] - rk[p - 1] for p in range(q + 1)]
    return column(want, "full matrices")


def verify_ok(argv, out):
    """verify's verdict is OK over the whole grid: n_max (q_max + 1) 5
    checks on the odd family (two closed forms and three psi kernels a
    point), n_max m_max (q_max + 1) on the even one."""
    n, q = int(option(argv, "--n-max")), int(option(argv, "--q-max"))
    size = n * (q + 1) * (5 if option(argv, "--family") == "odd"
                          else int(option(argv, "--m-max")))
    lines = out.splitlines()
    if "result: OK" not in lines or "checks: %d" % size not in lines:
        return "expected 'result: OK' and 'checks: %d'" % size


# ---- input builders --------------------------------------------------------

def hidden_sl2(copies, seed):
    """sl(2)^copies in a seeded unimodular basis: dense, and its adapted
    basis is the identity."""
    return lambda: LieSuperalgebra("sl2^%d" % copies, *change_basis(
        random.Random(seed), reduce(direct_sum, [SL2] * copies)))


@lru_cache(maxsize=None)
def hidden_sums():
    """The hidden-basis direct sums by name, each in a unimodular basis
    where the adapted basis is not the identity; the sums of one seed
    draw their bases in turn from one generator."""
    h1, h2, h11 = (_table(a) for a in (make_heisenberg_odd(1), make_heisenberg_odd(2),
                                       make_heisenberg_even(1, 1)))
    free = ([("u", EVEN), ("v", ODD)], {})
    out = {}
    for seed, sums in ((25, (("h11_h1", (h11, h1)), ("h2_h1", (h2, h1)))),
                       (28, (("h1_h1_h1", (h1, h1, h1)), ("h11_h11_h1", (h11, h11, h1)),
                             ("h2_free", (h2, free))))):
        rng = random.Random(seed)
        for name, summands in sums:
            out[name] = LieSuperalgebra(name, *change_basis(rng, reduce(direct_sum, summands)))
    # h_{1,1}, h_{1,1} and h_1 scaled by 3/4, -2/9 and 5/6, hidden: a file
    # of a/b tokens over L = 36 with a two-pivot class, through the
    # parser's Fraction branch to the split
    parts = [(gens, {pair: {k: c * x for k, x in t.items()} for pair, t in brackets.items()})
             for (gens, brackets), c in ((h11, Fraction(3, 4)), (h11, Fraction(-2, 9)),
                                         (h1, Fraction(5, 6)))]
    out["hq_h11_h11_h1"] = LieSuperalgebra("hq_h11_h11_h1", *change_basis(
        random.Random(5), reduce(direct_sum, parts)))
    assert all(adapted_basis(alg) is not alg for alg in out.values())
    assert "/" in format_algebra(out["hq_h11_h11_h1"])
    # h_1 + h_1 with the centre lines 17017 w0 + 43200 w1 and 43200 w0 +
    # 17017 w1, written plainly: the single-form pencil's eigenvalues
    # 43200/17017 and 17017/43200 give _rational_roots a polynomial whose
    # end coefficients are both 735134400, with 1,344 divisors each
    out["pencil_h1_h1"] = LieSuperalgebra(
        "pencil_h1_h1", [("x0", EVEN), ("y0", ODD), ("x1", EVEN), ("y1", ODD), ("w0", ODD),
                         ("w1", ODD)], {(0, 1): {4: 17017, 5: 43200}, (2, 3): {4: 43200, 5: 17017}})
    return out


def compute(args: str) -> Tuple[str, ...]:
    return cli("compute --algebra {alg} " + args)


def verify(args: str) -> Tuple[str, ...]:
    return cli("verify --family " + args)


def hidden_sum(name, q, *summands) -> Case:
    return Case("sum-" + name, compute("--q-max %d" % q), 10, checks=(kunneth(*summands),),
                build=lambda: hidden_sums()[name])


H11, H1 = "even --n 1 --m 1", "odd --n 1"
WIDE_DIFFERENTIAL = """
from heisenberg_cohomology import differential_matrix, make_heisenberg_odd
dm = differential_matrix(make_heisenberg_odd(150), 1)
assert len(dm.codomain) == 45301
"""


# ---- the table -------------------------------------------------------------

CASES = [
    # oversized families, codomains (psi's too), grids and degrees are
    # refused before they are built
    *(Case("refuse-" + name, cli(args), 20, code=3) for name, args in (
        ("even-n400-q9", "even --n 400 --m 1 --q-max 9"),
        ("even-n3000000", "even --n 3000000 --m 1 --q-max 2"),
        ("odd-n2499", "odd --n 2499 --q-max 1"),
        ("verify-even-m120", "verify --family even --n-max 1 --m-max 120 --q-max 2"),
        # its refusal names h_{1,120} and a cap of 7623: one less is refused
        ("verify-m120-cap7622",
         "verify --family even --n-max 1 --m-max 120 --q-max 2 --column-cap 7622"),
        ("verify-odd-n100000000", "verify --family odd --n-max 100000000 --q-max 0"),
        ("verify-odd-n499", "verify --family odd --n-max 499 --q-max 1"),
        ("odd-formula-q100000000", "odd --n 1 --q-max 100000000 --method formula"),
        ("even-q100000000", "even --n 1 --m 1 --q-max 100000000"),
        ("verify-even-q100000000", "verify --family even --n-max 1 --m-max 1 --q-max 100000000"))),
    # degree 0 on both routes: odd h_4 takes the Lefschetz route with
    # copies and lists nothing at q_max 0; even h_{3,3} the full route
    Case("degree0-odd-n4", cli("odd --n 4 --q-max 0"), 10, checks=(column([1]),)),
    Case("degree0-even-n3-m3", cli("even --n 3 --m 3 --q-max 0"), 10, checks=(column([1]),)),
    Case("degree0-verify-odd-n4", verify("odd --n-max 4 --q-max 0"), 10, checks=(verify_ok,)),
    # the cap the refused grid's message names admits the whole grid
    Case("grid-even-n1-m120-cap7623",
         verify("even --n-max 1 --m-max 120 --q-max 2 --column-cap 7623"), 10,
         checks=(verify_ok,)),
    # compute refuses a negative --q-max (a validation error) or one over
    # MAX_Q_MAX (a resource refusal) before it reads its file
    Case("compute-q-negative", cli("compute --algebra {dir}/missing.alg --q-max -1"), 5, code=2),
    Case("compute-q-101", cli("compute --algebra {dir}/missing.alg --q-max 101"), 5, code=3),
    # many odd duals, and a wide even mask, in 200 MiB of address space:
    # odd --n 400 --q-max 1 peaks at about 82 MiB with packed cochain
    # keys, and needed about 319 MiB with tuple keys
    Case("memory-odd-n400", cli("odd --n 400 --q-max 1"), 20, memory=200 * MiB),
    Case("memory-even-n40-m2", cli("even --n 40 --m 2 --q-max 2"), 20, memory=200 * MiB),
    # h_150 at q = 1 has 45,301 codomain rows, listed without unpacking keys
    Case("differential-matrix-h150", ("-c", WIDE_DIFFERENTIAL), 5),
    # ten verify grids against the closed forms
    *(Case("grid-" + name, verify(args), timeout, checks=(verify_ok,))
      for name, args, timeout in (
          # small and wide blocks alike, 1,157 blocks in all, 10 of the
          # odd grid's more than 32 columns wide after rank's peel
          ("odd-n9-q8", "odd --n-max 9 --q-max 8 --column-cap 2000000", 20),
          ("even-n6-m6-q8", "even --n-max 6 --m-max 6 --q-max 8 --column-cap 1000000", 20),
          # deep shift chains: the blocks of each charge stand for their
          # shifts up to q = 12, 545 blocks in all
          ("odd-n9-q12", "odd --n-max 9 --q-max 12 --column-cap 1000000000", 20),
          ("even-n3-m4-q12", "even --n-max 3 --m-max 4 --q-max 12 --column-cap 1000000000", 20),
          # many y_j copies: the stacks' weights reach (1 + t)^10,
          # expanded from their factors
          ("even-n3-m10-q14",
           "even --n-max 3 --m-max 10 --q-max 14 --column-cap 1000000000000", 20),
          # deep degrees with few copies: many charge multisets with few
          # keys each
          ("odd-n2-q45", "odd --n-max 2 --q-max 45", 20),
          ("even-n1-m3-q30", "even --n-max 1 --m-max 3 --q-max 30", 20),
          # listing-heavy: up to twelve copies of one class, and the
          # pairs' and the y_j's classes at once on tables too big for the
          # permutation oracle; the default cap refuses h_7 at q = 5
          ("odd-n12-q5", "odd --n-max 12 --q-max 5 --column-cap 2000000", 10),
          ("even-n4-m8-q8", "even --n-max 4 --m-max 8 --q-max 8 --column-cap 2000000", 10),
          # sixteen copies and deep shift chains at once: 880 checks
          ("odd-n16-q10", "odd --n-max 16 --q-max 10 --column-cap 1000000000000", 10))),
    # a dense hidden-basis table is validated in time (sl(2)^7 is perfect),
    # and refused by size before it is validated: C^3 of sl(2)^15 has
    # 14,190 columns, and validating it first took about 25 s
    Case("sl2-7", compute("--q-max 1"), 10, checks=(column([1, 0]),), build=hidden_sl2(7, 7)),
    Case("sl2-15-refused", compute("--q-max 3"), 5, code=3, build=hidden_sl2(15, 15)),
    # x0..x7 and z, every [x_i, x_j] a 200-digit fraction times z: b_q =
    # C(8, q) - C(8, q - 2).  Ranked in its written basis, d_3 alone ran
    # past this timeout
    Case("coefficients-200", compute("--q-max 4"), 10, checks=(column([1, 8, 27, 48, 42]),),
         build=lambda: LieSuperalgebra("coefficients_200",
                                       *coefficient_table(random.Random(200), 200))),
    # hidden-basis direct sums split into ideals and ranked by parts
    hidden_sum("h11_h1", 4, H11, H1),
    hidden_sum("h2_h1", 4, "odd --n 2", H1),
    hidden_sum("h1_h1_h1", 7, H1, H1, H1),
    hidden_sum("h11_h11_h1", 6, H11, H11, H1),
    hidden_sum("h2_free", 6, "odd --n 2", "free"),
    hidden_sum("pencil_h1_h1", 6, H1, H1),
    hidden_sum("hq_h11_h11_h1", 6, H11, H11, H1),
    # symmetric blocks: one charge tuple per orbit of copies, so psi's
    # codomain A^3 over (72|72) is never enumerated; and h_{3,3} listed in
    # a seeded order, where a pair listed as (x_{n+i}, x_i) brackets to -z
    Case("verify-odd-n72", verify("odd --n-max 72 --q-max 1"), 10, checks=(verify_ok,)),
    Case("shuffled-h33", compute("--q-max 8"), 10,
         checks=(same_as("even --n 3 --m 3 --q-max 8"),),
         build=lambda: shuffled(make_heisenberg_even(3, 3), 5)),
    # signed copy symmetries: each pair's swap x_i -> x_{n+i}, x_{n+i} ->
    # -x_i puts its charges +1 and -1 in one orbit; and three odd pairs
    # [u_i, v_i] = z, whose swap needs no sign, beside two x-pairs
    Case("verify-even-n10-m2-q12",
         verify("even --n-max 10 --m-max 2 --q-max 12 --column-cap 50000000"), 10,
         checks=(verify_ok,)),
    Case("odd-pairs-3-2", compute("--q-max 5"), 10,
         checks=(full_matrices(lambda: odd_pairs(3, 2)),), build=lambda: odd_pairs(3, 2)),
    # h_{20,20} with coefficient i on pair i and j on y_j: no two
    # components are copies, and over C it is h_{20,20}
    Case("distinct-h20-20", compute("--q-max 3 --column-cap 40000"), 10,
         checks=(column([1, 60, 1789, 35360]),
                 same_as("even --n 20 --m 20 --q-max 3 --column-cap 40000")),
         build=lambda: distinct(make_heisenberg_even(20, 20))),
]


# ---- the runner ------------------------------------------------------------

def run_case(case: Case, tmp: str):
    """(complaints, the finished child or None, seconds) of one case."""
    alg = os.path.join(tmp, case.name + ".alg")
    if case.build:
        Path(alg).write_text(format_algebra(case.build()))
    argv = [a.replace("{alg}", alg).replace("{dir}", tmp) for a in case.argv]
    limit = case.memory
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, *argv], cwd=ROOT, env=ENV, capture_output=True, text=True,
            timeout=case.timeout,
            preexec_fn=limit and (lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit))))
    except subprocess.TimeoutExpired:
        return ["timed out after %g s" % case.timeout], None, time.perf_counter() - start
    seconds = time.perf_counter() - start
    complaints = []
    if proc.returncode != case.code:
        complaints.append("exit %d, expected %d" % (proc.returncode, case.code))
    if "Traceback" in proc.stderr:
        complaints.append("a traceback reached stderr")
    for check in case.checks:
        try:
            complaint = check(argv, proc.stdout)
        except Exception as exc:  # a check that cannot read the output fails the case
            complaint = "the check raised %r" % exc
        if complaint:
            complaints.append(complaint)
    return complaints, proc, seconds


def run(cases) -> int:
    """Run the cases one at a time; 1, naming every failed case, or 0."""
    failed = []
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        for case in cases:
            complaints, proc, seconds = run_case(case, tmp)
            print("%-30s exit %-4s %6.2f s" % (case.name, proc.returncode if proc else "-",
                                                seconds), flush=True)
            if complaints:
                failed.append(case.name)
                for text in complaints + ([proc.stdout, proc.stderr] if proc else []):
                    if text.strip():
                        print("    " + text.strip()[-2000:].replace("\n", "\n    "))
    print("%d cases in %.2f s" % (len(cases), time.perf_counter() - start))
    if failed:
        print("FAILED: " + ", ".join(failed))
        return 1
    return 0


def main(names) -> int:
    by_name = {c.name: c for c in CASES}
    unknown = [n for n in names if n not in by_name]
    if unknown:
        print("no case named %s" % ", ".join(unknown), file=sys.stderr)
        return 2
    return run([by_name[n] for n in names] if names else CASES)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
