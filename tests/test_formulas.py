from collections import Counter

import pytest

from heisenberg_cohomology import formulas
from heisenberg_cohomology.algebra import (make_heisenberg_even,
                                           make_heisenberg_odd)
from heisenberg_cohomology.cohomology import betti_table
from heisenberg_cohomology.elements import SuperSpaceDims, enumerate_basis
from heisenberg_cohomology.formulas import (dim_h_even, dim_h_odd_displayed,
                                            dim_h_odd_proof, even_cocycle_dim,
                                            ker_psi_dim, odd_cocycle_dim,
                                            sym_power_dim)
from heisenberg_cohomology.limits import graded_dim

from oracles import (dim_h_odd_proof_double_sum, dim_h_odd_proof_shared_sum,
                     ker_psi_dim_sum, odd_cocycle_dim_sum)


def test_sym_power_dim_examples():
    assert sym_power_dim(2, 2) == 3
    assert sym_power_dim(1, 5) == 1
    assert sym_power_dim(3, 0) == 1
    assert sym_power_dim(0, 0) == 1
    assert sym_power_dim(0, 2) == 0
    assert sym_power_dim(2, -1) == 0


def test_sym_power_dim_counts_monomials():
    for m in range(5):
        for p in range(7):
            assert sym_power_dim(m, p) == graded_dim(SuperSpaceDims(0, m), p)
            assert sym_power_dim(m, p) == len(enumerate_basis(SuperSpaceDims(0, m), p))


def test_dim_h_even_examples():
    assert dim_h_even(1, 1, 0) == 1
    assert dim_h_even(1, 1, 1) == 3
    assert dim_h_even(1, 1, 2) == 3
    assert dim_h_even(1, 1, 3) == 1
    assert dim_h_even(1, 2, 2) == 7
    assert dim_h_even(2, 2, 3) == 26


def test_first_cohomology_counts_noncentral_generators():
    for n in range(1, 4):
        for m in range(1, 4):
            assert dim_h_even(n, m, 1) == 2 * n + m
        assert dim_h_odd_proof(n, 1) == 2 * n


def test_dim_h_even_guards():
    for bad in ((0, 1, 2), (1, 0, 2)):
        with pytest.raises(ValueError):
            dim_h_even(*bad)
    assert dim_h_even(1, 1, -1) == 0


def test_ker_psi_dim_examples():
    assert ker_psi_dim(-1, 2) == 0
    assert ker_psi_dim(0, 1) == 0
    assert ker_psi_dim(1, 1) == 1
    assert ker_psi_dim(2, 1) == 1
    assert ker_psi_dim(2, 2) == 2
    with pytest.raises(ValueError):
        ker_psi_dim(1, 0)


def test_dim_h_odd_proof_examples():
    assert dim_h_odd_proof(1, 0) == 1
    assert dim_h_odd_proof(1, 1) == 2
    assert dim_h_odd_proof(1, 2) == 2
    assert dim_h_odd_proof(2, 2) == 7
    assert dim_h_odd_proof(1, -1) == 0
    with pytest.raises(ValueError):
        dim_h_odd_proof(0, 1)


def test_dim_h_odd_proof_equals_its_double_sum():
    for n in range(1, 9):
        for q in range(-1, 41):
            assert dim_h_odd_proof(n, q) == dim_h_odd_proof_double_sum(n, q), (n, q)


def test_the_closed_forms_equal_their_former_sums():
    values = [(n, q) for n in range(1, 13) for q in range(-1, 41)]
    values += [(n, 100) for n in (1, 2, 7, 50)]
    for n, q in values:
        assert ker_psi_dim(q, n) == ker_psi_dim_sum(q, n), (n, q)
        assert odd_cocycle_dim(n, q) == odd_cocycle_dim_sum(n, q), (n, q)
        assert dim_h_odd_proof(n, q) == dim_h_odd_proof_shared_sum(n, q), (n, q)


def test_dim_h_odd_proof_computes_each_kernel_once(monkeypatch):
    # one graded_dim series, and one step a kernel from it: no kernel is
    # summed afresh, and ker_psi_dim is not called
    calls = Counter()
    real = formulas._kernels

    def counted(n, dims):
        calls[(n, len(dims))] += 1
        return real(n, dims)

    monkeypatch.setattr(formulas, "_kernels", counted)
    monkeypatch.setattr(formulas, "ker_psi_dim", None)
    for q in range(-1, 12):
        calls.clear()
        dim_h_odd_proof(3, q)
        assert calls == Counter({(3, q + 1): 1} if q >= 0 else {}), q


def test_cocycle_dim_bookkeeping():
    # cohomology at q = cocycles at q + cocycles at q-1 - cochains at q-1
    for n in (1, 2, 3):
        for q in range(0, 8):
            lhs = dim_h_odd_proof(n, q)
            rhs = odd_cocycle_dim(n, q)
            if q >= 1:
                rhs += odd_cocycle_dim(n, q - 1) \
                    - graded_dim(SuperSpaceDims(n, n + 1), q - 1)
            assert lhs == rhs
    for n, m in ((1, 1), (2, 1), (1, 3)):
        for q in range(0, 6):
            lhs = dim_h_even(n, m, q)
            rhs = even_cocycle_dim(n, m, q)
            if q >= 1:
                rhs += even_cocycle_dim(n, m, q - 1) \
                    - graded_dim(SuperSpaceDims(2 * n + 1, m), q - 1)
            assert lhs == rhs


def test_cocycle_dims_match_rank_computation():
    for alg, cocycle in (
        (make_heisenberg_odd(2), lambda q: odd_cocycle_dim(2, q)),
        (make_heisenberg_even(1, 2), lambda q: even_cocycle_dim(1, 2, q)),
    ):
        for rep in betti_table(alg, 5):
            assert rep.dim_cocycles == cocycle(rep.q)


def test_displayed_formula_hand_checked_values():
    assert dim_h_odd_displayed(1, 0) == 1
    assert dim_h_odd_displayed(1, 1) == 2
    assert dim_h_odd_displayed(1, 2) == 3
    assert dim_h_odd_displayed(2, 1) == 3
    with pytest.raises(ValueError):
        dim_h_odd_displayed(0, 1)


def test_displayed_formula_deviates_from_proof_route():
    # the expanded binomial display disagrees with the recursion-backed
    # route; (1, 2) is the first point where it happens, and the gap is
    # visible throughout the grid.  Both values are pinned so any silent
    # "repair" of either function shows up here.
    assert dim_h_odd_displayed(1, 2) == 3
    assert dim_h_odd_proof(1, 2) == 2
    assert dim_h_odd_displayed(2, 1) == 3
    assert dim_h_odd_proof(2, 1) == 4
    assert [dim_h_odd_displayed(1, q) for q in range(7)] == [1, 2, 3, 4, 5, 6, 7]
    assert [dim_h_odd_proof(1, q) for q in range(7)] == [1, 2, 2, 2, 2, 2, 2]
    assert [dim_h_odd_displayed(2, q) for q in range(7)] == [1, 3, 5, 7, 10, 14, 19]
    assert [dim_h_odd_proof(2, q) for q in range(7)] == [1, 4, 7, 9, 11, 13, 15]
