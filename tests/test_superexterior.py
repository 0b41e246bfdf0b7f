import copy
import pickle
import random
from fractions import Fraction
from itertools import product
from math import factorial

import pytest

from heisenberg_cohomology.algebra import make_heisenberg_even
from heisenberg_cohomology.differential import (_d_columns, _integer_slots,
                                                d_element)
from heisenberg_cohomology.superexterior import (
    SuperElement, SuperMonomial, SuperSpaceDims, _odd_exponent_vectors,
    dual_pairing, element_pairing, enumerate_basis, graded_dim,
    monomial_sort_key, wedge, wedge_monomials)

from oracles import permanent, tensor_normal_form


def mono(evens=(), odds=()):
    return SuperMonomial(tuple(evens), tuple(odds))


def elem(evens=(), odds=(), coeff=1):
    return SuperElement.from_monomial(mono(evens, odds), coeff)


def monomial_from_word(word, odd_count):
    evens = tuple(i for kind, i in word if kind == "e")
    exps = [0] * odd_count
    for kind, i in word:
        if kind == "o":
            exps[i] += 1
    return SuperMonomial(evens, tuple(exps))


def test_monomial_validation():
    with pytest.raises(ValueError):
        SuperMonomial((1, 0), ())
    with pytest.raises(ValueError):
        SuperMonomial((0, 0), ())
    with pytest.raises(ValueError):
        SuperMonomial((-1,), ())
    with pytest.raises(ValueError):
        SuperMonomial((), (1, -1))


def test_monomial_degrees():
    m = mono((0, 2), (1, 0, 3))
    assert m.degree == 6
    assert m.even_degree == 2
    assert m.odd_degree == 4
    assert m.parity == 0
    assert mono((), (1,)).parity == 1
    assert list(m.factors()) == [("e", 0), ("e", 2), ("o", 0),
                                 ("o", 2), ("o", 2), ("o", 2)]


def test_enumerate_basis_listed_order():
    basis = enumerate_basis(SuperSpaceDims(1, 2), 2)
    assert basis == [mono((0,), (1, 0)), mono((0,), (0, 1)),
                     mono((), (2, 0)), mono((), (1, 1)), mono((), (0, 2))]
    assert basis == sorted(basis, key=monomial_sort_key)


def test_enumerate_basis_counts():
    assert len(enumerate_basis(SuperSpaceDims(3, 2), 0)) == 1
    assert enumerate_basis(SuperSpaceDims(3, 2), 0) == [mono((), (0, 0))]
    assert len(enumerate_basis(SuperSpaceDims(2, 2), 2)) == 8
    assert enumerate_basis(SuperSpaceDims(2, 0), 3) == []
    assert enumerate_basis(SuperSpaceDims(1, 1), -1) == []


def test_graded_dim_matches_enumeration():
    for n in range(0, 4):
        for m in range(0, 4):
            dims = SuperSpaceDims(n, m)
            for q in range(0, 2 * n + 13):
                assert graded_dim(dims, q) == len(enumerate_basis(dims, q))
    assert graded_dim(SuperSpaceDims(2, 2), 2) == 8
    assert graded_dim(SuperSpaceDims(1, 2), 2) == 5
    assert graded_dim(SuperSpaceDims(5, 3), 0) == 1
    assert graded_dim(SuperSpaceDims(5, 3), -2) == 0


def test_wedge_examples():
    assert (elem((0,)) * elem((0,))).is_zero()
    assert elem((), (1,)) * elem((), (1,)) == elem((), (2,))
    # (e0 o0) ^ e1 = -(e0 e1) o0: the odd factor hops over one even
    assert elem((0,), (1,)) * elem((1,), (0,)) == elem((0, 1), (1,), -1)


def test_wedge_against_tensor_word_oracle():
    basis = []
    for q in range(0, 4):
        basis.extend(enumerate_basis(SuperSpaceDims(2, 2), q))
    for a in basis:
        for b in basis:
            got = wedge_monomials(a, b)
            sign, word = tensor_normal_form(list(a.factors()) + list(b.factors()))
            if sign == 0:
                assert got is None
            else:
                assert got is not None
                assert got == (sign, monomial_from_word(word, 2))


def test_sign_coherence():
    basis = []
    for q in range(0, 4):
        basis.extend(enumerate_basis(SuperSpaceDims(2, 2), q))
    for a in basis:
        for b in basis:
            ab = wedge(SuperElement.from_monomial(a), SuperElement.from_monomial(b))
            ba = wedge(SuperElement.from_monomial(b), SuperElement.from_monomial(a))
            exp = a.degree * b.degree + a.parity * b.parity
            assert ab == (ba if exp % 2 == 0 else -ba)


def test_wedge_associativity():
    rng = random.Random(7)
    basis = []
    for q in range(0, 3):
        basis.extend(enumerate_basis(SuperSpaceDims(2, 2), q))
    triples = [tuple(rng.choice(basis) for _ in range(3)) for _ in range(200)]
    for a, b, c in triples:
        ea, eb, ec = (SuperElement.from_monomial(x) for x in (a, b, c))
        assert (ea * eb) * ec == ea * (eb * ec)


def test_element_homogeneity_and_zero():
    with pytest.raises(ValueError):
        SuperElement({mono((0,)): 1, mono((0, 1)): 1})
    with pytest.raises(ValueError):
        SuperElement({mono((0,), (0,)): 1, mono((), (1,)): 1})
    z = SuperElement({mono((0,)): 1}) - SuperElement({mono((0,)): 1})
    assert z.is_zero() and z.terms == {} and z.degree is None
    with pytest.raises(ValueError):
        elem((0,)) + elem((0, 1))
    assert (elem((0,)) + SuperElement.zero()) == elem((0,))


def test_element_scalar_arithmetic():
    a = elem((0,), (1, 0)) + elem((1,), (0, 1), 3)
    assert 2 * a == a * 2 == a + a
    assert Fraction(1, 2) * (2 * a) == a
    assert a - a == SuperElement.zero()
    assert a.coefficient(mono((0,), (1, 0))) == 1
    assert a.coefficient(mono((), (0, 0))) == 0


def test_dual_pairing_examples():
    # <e0^e1, x1^x0> = -1: primal wedge normalizes with a swap
    alpha = mono((0, 1), ())
    primal = wedge(SuperElement.from_monomial(mono((1,), ())),
                   SuperElement.from_monomial(mono((0,), ())))
    assert element_pairing(SuperElement.from_monomial(alpha), primal) == -1
    assert dual_pairing(mono((), (2,)), mono((), (2,))) == 2
    assert dual_pairing(mono((), (2, 0)), mono((), (1, 1))) == 0
    assert dual_pairing(mono((0,), (0,)), mono((), (1,))) == 0
    a = mono((), (3, 1, 2))
    assert dual_pairing(a, a) == factorial(3) * factorial(1) * factorial(2)


def test_dual_pairing_dimension_mismatch():
    with pytest.raises(ValueError):
        dual_pairing(mono((), (1,)), mono((), (1, 0)))


def test_gram_matrix_diagonal():
    for n in range(0, 3):
        for m in range(0, 3):
            dims = SuperSpaceDims(n, m)
            for q in range(0, 4):
                basis = enumerate_basis(dims, q)
                for i, a in enumerate(basis):
                    for j, u in enumerate(basis):
                        val = dual_pairing(a, u)
                        if i == j:
                            want = 1
                            for e in a.odd_exponents:
                                want *= factorial(e)
                            assert val == want and val > 0
                        else:
                            assert val == 0


def test_permanent_expansion_row_independence():
    rng = random.Random(11)
    for _ in range(60):
        k = rng.randint(1, 5)
        mat = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(k)]
        vals = {permanent(mat, row=r) for r in range(k)}
        assert len(vals) == 1
    assert permanent([]) == 1
    assert permanent([[1, 1], [1, 1]]) == 2


def test_monomial_str_and_repr():
    m = mono((0, 2), (0, 2))
    assert str(m) == "e0*e2*o1^2"
    assert str(mono()) == "1"
    assert "SuperMonomial" in repr(m)
    assert eval(repr(m)) == m


def test_monomial_is_its_kernel_key():
    m = mono((0, 2), (1, 0))
    assert m == (0b101, (1, 0)) and (0b101, (1, 0)) == m
    assert hash(m) == hash((0b101, (1, 0)))
    assert {(0b101, (1, 0)): "row"}[m] == "row"
    assert (m.even_mask, m.odd_exponents) == tuple(m)


def test_monomials_over_different_odd_dimensions_differ():
    assert mono((0,), (1,)) != mono((0,), (1, 0))
    assert mono() != mono((), (0,))
    assert len({mono((), ()), mono((), (0,)), mono((), (0, 0))}) == 3


def test_monomial_copy_and_pickle_round_trips():
    m = mono((0, 2, 70), (1, 0, 3))
    copies = [copy.copy(m), copy.deepcopy(m), copy.deepcopy([m])[0]]
    copies += [pickle.loads(pickle.dumps(m, p))
               for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    for c in copies:
        assert type(c) is SuperMonomial
        assert c == m and repr(c) == repr(m)
        assert c.even_set == (0, 2, 70) and c.odd_exponents == (1, 0, 3)


def test_even_set_is_rebuilt_from_the_mask():
    for evens in ((), (3,), (0, 5, 70), (1, 2, 64, 65, 200)):
        m = mono(evens, (2,))
        assert m.even_mask == sum(1 << i for i in evens)
        assert m.even_set == evens and m.even_degree == len(evens)
    # a mask built by the product, not by the constructor
    sign, prod = wedge_monomials(mono((70,)), mono((0, 5)))
    assert prod.even_set == (0, 5, 70) and prod == mono((0, 5, 70))
    assert str(prod) == "e0*e5*e70"


def test_basis_monomials_are_kernel_keys():
    # enumerate_basis output goes into the coboundary kernel as it stands:
    # as domain columns, and as the row keys the kernel probes with plain pairs
    alg = make_heisenberg_even(1, 2)
    dims = SuperSpaceDims(*alg.superdim)
    denom, even_slots, odd_slots = _integer_slots(alg)
    for q in range(4):
        domain, codomain = enumerate_basis(dims, q), enumerate_basis(dims, q + 1)
        row_index = {m: r for r, m in enumerate(codomain)}
        columns = _d_columns(even_slots, odd_slots, domain, row_index)
        assert len(columns) == len(domain)
        for m, col in zip(domain, columns):
            image = {codomain[r]: Fraction(v, denom) for r, v in col.items()}
            assert image == d_element(alg, SuperElement.from_monomial(m)).terms


def test_odd_exponent_vectors_are_the_sorted_exponent_tuples():
    # descending lexicographic order of every exponent tuple of the degree
    for m in range(6):
        for total in range(7):
            brute = sorted((a for a in product(range(total + 1), repeat=m)
                            if sum(a) == total), reverse=True)
            assert list(_odd_exponent_vectors(total, m)) == brute, (m, total)


def test_enumerate_basis_of_many_odd_duals():
    dims = SuperSpaceDims(0, 401)
    assert len(enumerate_basis(dims, 2)) == graded_dim(dims, 2)
