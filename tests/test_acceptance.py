"""Acceptance gate: the eight headline guarantees, one test each.

Each test prints a single "ACCEPTANCE k (label): PASS|FAIL" line on the
real stdout (capture temporarily disabled) so the verdicts are visible
in a plain `pytest -v` run.
"""

import csv
import io
import json
import sys
from contextlib import contextmanager
from fractions import Fraction
from math import factorial

import pytest

from heisenberg_cohomology import cli
from heisenberg_cohomology.algebra import (LieSuperalgebra,
                                           make_heisenberg_even,
                                           make_heisenberg_odd)
from heisenberg_cohomology.cohomology import betti_table, cohomology_dims
from heisenberg_cohomology.elements import (SuperElement, SuperMonomial,
                                            SuperSpaceDims, d_element,
                                            differential_matrix, dual_pairing,
                                            element_pairing, enumerate_basis,
                                            psi_matrix)
from heisenberg_cohomology.fileformats import parse_algebra
from heisenberg_cohomology.formulas import (dim_h_even, dim_h_odd_proof,
                                            ker_psi_dim)
from heisenberg_cohomology.limits import graded_dim
from heisenberg_cohomology.linalg import kernel_dim, rank

from oracles import (dense_rank_fractions, insertion_terms, matmul,
                     monomial_generator_sequence, pairing_det_perm,
                     tensor_normal_form)

ALL_SEVEN = [make_heisenberg_odd(1), make_heisenberg_odd(2),
             make_heisenberg_odd(3), make_heisenberg_even(1, 1),
             make_heisenberg_even(1, 2), make_heisenberg_even(2, 1),
             make_heisenberg_even(2, 2)]


@pytest.fixture
def criterion(capfd):
    @contextmanager
    def announce(number, label):
        try:
            yield
        except BaseException:
            with capfd.disabled():
                print("ACCEPTANCE %d (%s): FAIL" % (number, label), flush=True)
            raise
        with capfd.disabled():
            print("ACCEPTANCE %d (%s): PASS" % (number, label), flush=True)

    return announce


class _BytesStdout:
    def __init__(self):
        self.buffer = io.BytesIO()

    def flush(self):
        pass


def run_cli(monkeypatch, argv):
    out = _BytesStdout()
    err = io.StringIO()
    monkeypatch.setattr(sys, "stdout", out)
    monkeypatch.setattr(sys, "stderr", err)
    try:
        code = cli.main(argv)
    finally:
        monkeypatch.undo()
    return code, out.buffer.getvalue()


def test_acceptance_1_even_center_closed_form(criterion):
    with criterion(1, "even-center formula equals ranks, n,m<=3 q<=8"):
        for n in (1, 2, 3):
            for m in (1, 2, 3):
                table = betti_table(make_heisenberg_even(n, m), 8)
                for q, rep in enumerate(table):
                    assert dim_h_even(n, m, q) == rep.dim_cohomology, (n, m, q)


def test_acceptance_2_odd_center_proof_formula(criterion):
    with criterion(2, "odd-center formula equals ranks, n<=3 q<=10"):
        for n, q_max in ((1, 10), (2, 10), (3, 8)):
            table = betti_table(make_heisenberg_odd(n), q_max)
            for q, rep in enumerate(table):
                assert dim_h_odd_proof(n, q) == rep.dim_cohomology, (n, q)


def test_acceptance_3_displayed_form_adjudication(criterion, monkeypatch):
    with criterion(3, "expanded display adjudicated point by point"):
        code, out = run_cli(monkeypatch, [
            "verify", "--family", "odd", "--n-max", "3", "--q-max", "8",
            "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        displayed = [c for c in payload["checks"]
                     if c["formula"] == "dim_h_odd_displayed"]
        # every grid point is reported exactly once, match or not
        assert sorted((c["n"], c["q"]) for c in displayed) == \
            [(n, q) for n in (1, 2, 3) for q in range(9)]
        deviations = [c for c in displayed if not c["ok"]]
        assert payload["deviations"] == len(deviations) == 23
        first = [c for c in deviations if (c["n"], c["q"]) == (1, 2)]
        assert first and first[0]["formula_value"] == 3
        assert first[0]["oracle_value"] == 2
        assert all(c["ok"] for c in displayed if c["q"] <= 1 and c["n"] == 1)
        # the proof-level route never deviates, so the run still passes
        assert payload["failures"] == 0 and payload["ok"] is True
        # independent dense elimination confirms the oracle side of the
        # contested point: dim H^2(h_1) = dim C^2 - rank d_2 - rank d_1
        d1 = differential_matrix(make_heisenberg_odd(1), 1)
        d2 = differential_matrix(make_heisenberg_odd(1), 2)
        r1 = dense_rank_fractions(d1.matrix.rows, d1.matrix.cols, d1.matrix.entries)
        r2 = dense_rank_fractions(d2.matrix.rows, d2.matrix.cols, d2.matrix.entries)
        assert d2.matrix.cols - r2 - r1 == 2


def test_acceptance_4_psi_kernel_dimensions(criterion):
    with criterion(4, "psi kernel formula, t<=10 n<=3 l in {1,2,3}"):
        for n in (1, 2, 3):
            for t in range(11):
                want = ker_psi_dim(t, n)
                ranks = set()
                for l in (1, 2, 3):
                    mat = psi_matrix(t, n, l)
                    assert kernel_dim(mat) == want, (t, n, l)
                    ranks.add(rank(mat))
                assert len(ranks) == 1, (t, n)


def _pairing_table(alg, u):
    """Collapse the alternating-sum expansion of u into monomial weights."""
    n1 = alg.superdim[1]
    seq = monomial_generator_sequence(alg, u)
    table = {}
    for coeff, word in insertion_terms(alg, seq):
        sign, normal = tensor_normal_form(word)
        if sign == 0:
            continue
        evens = tuple(i for kind, i in normal if kind == "e")
        exps = [0] * n1
        for kind, i in normal:
            if kind == "o":
                exps[i] += 1
        mono = SuperMonomial(evens, tuple(exps))
        table[mono] = table.get(mono, Fraction(0)) + sign * coeff
    return table


def test_acceptance_5_structural_identities(criterion):
    with criterion(5, "d^2 = 0, pairing compatibility, cocycle structure"):
        for alg in ALL_SEVEN:
            dims = SuperSpaceDims(*alg.superdim)
            mats = {q: differential_matrix(alg, q) for q in range(8)}
            for q in range(7):
                assert matmul(mats[q + 1].matrix, mats[q].matrix).is_zero(), (alg.name, q)
            # <d omega, u> equals the bracket-insertion sum on every pair
            for q in range(4):
                primal_tables = [(u, _pairing_table(alg, u))
                                 for u in enumerate_basis(dims, q + 1)]
                for omega in enumerate_basis(dims, q):
                    d_omega = d_element(alg, SuperElement.from_monomial(omega))
                    for u, table in primal_tables:
                        lhs = element_pairing(d_omega, SuperElement.from_monomial(u))
                        rhs = sum((c * dual_pairing(omega, mono)
                                   for mono, c in table.items()), Fraction(0))
                        assert lhs == rhs, (alg.name, omega, u)
            # reports satisfy dim H^q = dim Z^q + dim Z^{q-1} - dim C^{q-1}
            table = betti_table(alg, 6)
            for q, rep in enumerate(table):
                prev_z = table[q - 1].dim_cocycles if q else 0
                prev_c = table[q - 1].dim_cochain if q else 0
                assert rep.dim_cohomology == rep.dim_cocycles + prev_z - prev_c
        # even-center cocycles are exactly the span free of the central dual
        for alg in ALL_SEVEN:
            if alg.name.startswith("h_{"):
                n, m = alg.superdim[0] // 2, alg.superdim[1]
                free = SuperSpaceDims(2 * n, m)
                for q in range(7):
                    dmat = differential_matrix(alg, q)
                    with_z = [j for j, mono in enumerate(dmat.domain)
                              if 0 in mono.even_set]
                    for j, mono in enumerate(dmat.domain):
                        if j not in with_z:
                            assert dmat.matrix.columns[j] == {}, (alg.name, q)
                    assert rank(dmat.matrix) == len(with_z), (alg.name, q)
                    rep = cohomology_dims(alg, q)
                    assert rep.dim_cocycles == graded_dim(free, q), (alg.name, q)


def test_acceptance_6_ground_cases(criterion):
    with criterion(6, "H^0 = 1 and H^1 counts the non-central generators"):
        custom = parse_algebra(
            "name custom\ngenerator y 1\ngenerator z 0\nbracket y y = z:1/2\n")
        abelian = LieSuperalgebra("abelian", [("a", 0), ("b", 1)], {})
        for alg in ALL_SEVEN + [custom, abelian]:
            rep = cohomology_dims(alg, 0)
            assert rep.dim_cohomology == 1, alg.name
        for n in (1, 2, 3):
            for m in (1, 2, 3):
                rep = cohomology_dims(make_heisenberg_even(n, m), 1)
                assert rep.dim_cohomology == 2 * n + m == dim_h_even(n, m, 1)
            rep = cohomology_dims(make_heisenberg_odd(n), 1)
            assert rep.dim_cohomology == 2 * n == dim_h_odd_proof(n, 1)


def test_acceptance_7_pairing_gram_matrix(criterion):
    with criterion(7, "pairing Gram matrix diagonal with factorial entries"):
        for n0 in range(5):
            for n1 in range(5):
                dims = SuperSpaceDims(n0, n1)
                for q in range(5):
                    basis = enumerate_basis(dims, q)
                    for i, a in enumerate(basis):
                        for j, b in enumerate(basis):
                            got = dual_pairing(a, b)
                            assert got == pairing_det_perm(a, b), (dims, q, a, b)
                            if i != j:
                                assert got == 0, (dims, q, a, b)
                            else:
                                want = 1
                                for e in a.odd_exponents:
                                    want *= factorial(e)
                                assert got == want, (dims, q, a)


def test_acceptance_8_determinism_and_round_trips(criterion, monkeypatch, tmp_path):
    with criterion(8, "byte-identical reruns, exact csv/json round-trips"):
        from heisenberg_cohomology.fileformats import format_algebra
        path = tmp_path / "h2.alg"
        path.write_text(format_algebra(make_heisenberg_odd(2)))
        commands = [
            ["even", "--n", "2", "--m", "1", "--q-max", "4", "--format", "json"],
            ["even", "--n", "2", "--m", "1", "--q-max", "4", "--format", "csv"],
            ["even", "--n", "1", "--m", "3", "--q-max", "3", "--format", "text",
             "--method", "both"],
            ["odd", "--n", "2", "--q-max", "5", "--format", "csv",
             "--method", "both"],
            ["compute", "--algebra", str(path), "--q-max", "4",
             "--format", "json"],
            ["verify", "--family", "even", "--n-max", "2", "--m-max", "2",
             "--q-max", "4", "--format", "json"],
            ["verify", "--family", "odd", "--n-max", "2", "--q-max", "5",
             "--format", "text"],
        ]
        for argv in commands:
            code1, out1 = run_cli(monkeypatch, argv)
            code2, out2 = run_cli(monkeypatch, argv)
            assert code1 == code2 == 0, argv
            assert out1 == out2, argv
        # csv and json reruns of the same table carry identical exact values
        reports = betti_table(make_heisenberg_even(2, 1), 4)
        code, csv_bytes = run_cli(monkeypatch, [
            "even", "--n", "2", "--m", "1", "--q-max", "4", "--format", "csv"])
        rows = list(csv.reader(io.StringIO(csv_bytes.decode())))[1:]
        code, json_bytes = run_cli(monkeypatch, [
            "even", "--n", "2", "--m", "1", "--q-max", "4", "--format", "json"])
        objs = json.loads(json_bytes)
        for rep, row, obj in zip(reports, rows, objs):
            tup = (rep.algebra_name, rep.q, rep.dim_cochain, rep.dim_cocycles,
                   rep.dim_coboundaries, rep.dim_cohomology, rep.method)
            assert tuple(type(x)(v) for x, v in zip(tup, row)) == tup
            assert tuple(obj[k] for k in ("algebra_name", "q", "dim_cochain",
                                          "dim_cocycles", "dim_coboundaries",
                                          "dim_cohomology", "method")) == tup
