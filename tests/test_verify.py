from collections import Counter

from heisenberg_cohomology import differential, verify
from heisenberg_cohomology.formulas import ker_psi_dim
from heisenberg_cohomology.linalg import RationalMatrix, kernel_dim


def test_psi_shortcut_cannot_hide_a_faulty_build(monkeypatch):
    # psi_{(n,2)} built with an extra zero column is not 2 * psi_{(n,1)},
    # so its own kernel (one larger than the closed form) must be reported
    real = verify.psi_matrix

    def faulty(t, n, l):
        psi = real(t, n, l)
        if l != 2:
            return psi
        return RationalMatrix.from_columns(psi.rows, psi.columns + [{}], psi.scale)

    monkeypatch.setattr(verify, "psi_matrix", faulty)
    res = verify.verify_family("odd", 2, q_max=3)
    psi_checks = [c for c in res.checks if c.formula.startswith("ker_psi_dim")]
    assert len(psi_checks) == 2 * 4 * 3
    for c in psi_checks:
        want = ker_psi_dim(c.q, c.n)
        assert c.formula_value == want
        if c.formula == "ker_psi_dim[l=2]":
            assert c.oracle_value == kernel_dim(faulty(c.q, c.n, 2)) == want + 1
            assert c.describe().endswith("MISMATCH")
        else:
            assert c.ok, c.describe()


def test_odd_grid_enumerates_each_space_at_most_twice(monkeypatch):
    # once by betti_table's blocks and once by the psi walk, whose even
    # and odd t each find their domain still in the memo
    real = differential.enumerate_basis
    calls = Counter()

    def counted(dims, q, without=None):
        calls[(tuple(dims), q, without)] += 1
        return real(dims, q, without)

    monkeypatch.setattr(differential, "enumerate_basis", counted)
    verify.verify_family("odd", 4, None, 7)
    # per n, A^0..A^9 (dims (n, n + 1) without z's slot n)
    assert sorted(calls) == [((n, n + 1), q, n) for n in range(1, 5) for q in range(10)]
    assert max(calls.values()) == 2, calls
