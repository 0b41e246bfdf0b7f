from collections import Counter

import pytest

from heisenberg_cohomology import cohomology, differential, verify
from heisenberg_cohomology.cohomology import CodomainTooLarge
from heisenberg_cohomology.differential import psi_matrix
from heisenberg_cohomology.formulas import ker_psi_dim
from heisenberg_cohomology.linalg import RationalMatrix, kernel_dim


def _one_entry_negated(block):
    """block with the first entry of its first column of two or more
    entries negated: the same shape and column lengths, another matrix."""
    columns = [dict(col) for col in block.columns]
    for col in columns:
        if len(col) > 1:
            r = next(iter(col))
            col[r] = -col[r]
            break
    return RationalMatrix.from_columns(block.rows, columns, block.scale)


def test_psi_shortcut_cannot_hide_a_faulty_build(monkeypatch):
    # psi_{(n,2)} built with an extra zero column, and psi_{(n,3)} with
    # one entry changed, are not l * psi_{(n,1)}, so each one's own
    # kernel must be reported: one larger than the closed form for l = 2,
    # and for l = 3 one smaller where the change raises the rank
    real = verify._lefschetz_block

    def faulty(workspace, z, t, l):
        block = real(workspace, z, t, l)
        if l == 2:
            return RationalMatrix.from_columns(block.rows, block.columns + [{}],
                                               block.scale)
        if l == 3:
            return _one_entry_negated(block)
        return block

    monkeypatch.setattr(verify, "_lefschetz_block", faulty)
    res = verify.verify_family("odd", 3, q_max=3)
    psi_checks = [c for c in res.checks if c.formula.startswith("ker_psi_dim")]
    assert len(psi_checks) == 3 * 4 * 3
    for c in psi_checks:
        want = ker_psi_dim(c.q, c.n)
        assert c.formula_value == want
        if c.formula == "ker_psi_dim[l=2]":
            assert c.oracle_value == kernel_dim(psi_matrix(c.q, c.n, 2)) + 1 == want + 1
            assert c.describe().endswith("MISMATCH")
        elif c.formula == "ker_psi_dim[l=3]":
            assert c.oracle_value == kernel_dim(_one_entry_negated(psi_matrix(c.q, c.n, 3)))
        else:
            assert c.ok, c.describe()
    assert {(c.n, c.q) for c in psi_checks
            if c.formula == "ker_psi_dim[l=3]" and not c.ok} == {(3, 2), (3, 3)}


def test_odd_grid_enumerates_each_space_once(monkeypatch):
    # betti_table's block walk and the psi walk are one walk per n on one
    # workspace, which keeps every space it enumerates for the call
    real = differential.enumerate_basis
    calls = Counter()

    def counted(dims, q, without=None, radix=None):
        calls[(tuple(dims), q, without)] += 1
        return real(dims, q, without, radix)

    monkeypatch.setattr(differential, "enumerate_basis", counted)
    verify.verify_family("odd", 4, None, 7)
    # per n, A^0..A^9 (dims (n, n + 1) without z's slot n)
    assert sorted(calls) == [((n, n + 1), q, n) for n in range(1, 5) for q in range(10)]
    assert sum(calls.values()) == 40, calls


def test_odd_grid_eliminates_each_block_once(monkeypatch):
    # per (n, t) one l = 1 block is built and eliminated, and psi_{(n,2)}
    # and psi_{(n,3)} are still built and compared with it
    built = Counter()
    blocks = {}
    eliminated = []

    def recording(module):
        real = module._lefschetz_block

        def record(workspace, z, t, l):
            block = real(workspace, z, t, l)
            name = workspace.algebra.name
            built[(name, t, l)] += 1
            if l == 1:
                blocks[id(block)] = (name, t)
            return block
        return record

    real_rank = cohomology.rank

    def counted_rank(matrix):
        eliminated.append(blocks.get(id(matrix)))
        return real_rank(matrix)

    for module in (cohomology, verify):
        monkeypatch.setattr(module, "_lefschetz_block", recording(module))
    monkeypatch.setattr(cohomology, "rank", counted_rank)
    monkeypatch.setattr(verify, "kernel_dim", None)
    res = verify.verify_family("odd", 3, None, 5)
    assert res.ok() and len(res.checks) == 3 * 6 * 5
    grid = [("h_%d" % n, t) for n in range(1, 4) for t in range(6)]
    assert built == Counter({(name, t, l): 1 for name, t in grid for l in (1, 2, 3)})
    assert sorted(eliminated) == grid


def test_psi_codomain_is_refused_before_any_point(monkeypatch):
    # h_499's C^2 fits (499,001 rows), but its psi walk at t = 1 would
    # enumerate A^3 over (499|499); the first n over the bound is refused
    monkeypatch.setattr(verify, "_enter", None)
    with pytest.raises(CodomainTooLarge) as err:
        verify.verify_family("odd", 499, None, 1)
    assert (err.value.q, err.value.rows, err.value.limit) == (1, 518738, 500000)
    assert str(err.value) == ("refusing h_73 at q=1: psi's codomain A^3 has "
                              "518738 rows, limit is 500000 (100 times the "
                              "column cap; raise the cap to force the "
                              "computation)")
    # the column cap is still checked first, at every point
    with pytest.raises(cohomology.ColumnCapExceeded):
        verify.verify_family("odd", 100, None, 2)
