import copy
import pickle
import random
from fractions import Fraction
from itertools import product
from math import factorial
from operator import gt

import pytest

from heisenberg_cohomology.algebra import make_heisenberg_even
from heisenberg_cohomology.differential import _coboundary, _Workspace
from heisenberg_cohomology.elements import (SuperElement, SuperMonomial, SuperSpaceDims,
                                            _pack, _unpack, d_element, dual_pairing,
                                            element_pairing, enumerate_basis,
                                            monomial_sort_key, wedge, wedge_monomials)
from heisenberg_cohomology.limits import graded_dim
from heisenberg_cohomology.superexterior import _keys, _radix, _units

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


def test_a_monomial_refuses_an_index_or_exponent_that_is_not_an_int():
    # (0, 0.5) had degree 1.5, and d_element of it failed inside the kernel
    for evens, odds, bad in (((0,), (0, 0.5), "0.5"), ((0.0,), (1,), "0.0"),
                             ((), (Fraction(1),), "Fraction(1, 1)"), (("0",), (), "'0'")):
        with pytest.raises(TypeError, match=r"int indices and exponents, not %s$"
                           % bad.replace("(", r"\(").replace(")", r"\)")):
            SuperMonomial(evens, odds)


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


def test_an_element_refuses_a_float_coefficient():
    for c in (0.1, 0.5, float("inf"), float("nan")):
        with pytest.raises(TypeError, match=r"of SuperMonomial\(\(0,\), \(\)\) is the float %s"
                           % c):
            SuperElement({mono((0,)): c})
    assert SuperElement({mono((0,)): "1/2"}).terms == {mono((0,)): Fraction(1, 2)}


def test_element_parity_hash_repr_and_foreign_operands():
    a = elem((0,), (1, 0)) + elem((1,), (0, 1), Fraction(-1, 2))
    assert (a.parity, elem((0, 1), (0, 0)).parity, SuperElement.zero().parity) == (1, 0, None)
    # equal elements hash alike, whatever order their terms came in
    assert hash(a) == hash(elem((1,), (0, 1), Fraction(-1, 2)) + elem((0,), (1, 0)))
    assert repr(a) == "SuperElement(1*e0*o0 + -1/2*e1*o1)"
    assert repr(SuperElement.zero()) == "SuperElement(0)"
    other = object()
    for op in (lambda: a + other, lambda: a - other, lambda: a * other,
               lambda: other * a, lambda: a * 0.5):
        with pytest.raises(TypeError):
            op()
    assert a.__eq__(other) is NotImplemented and a != other
    with pytest.raises(TypeError, match="keys must be SuperMonomials"):
        SuperElement({(0b1, (0, 0)): 1})


def test_element_scalar_arithmetic():
    a = elem((0,), (1, 0)) + elem((1,), (0, 1), 3)
    assert 2 * a == a * 2 == a + a
    assert Fraction(1, 2) * (2 * a) == a
    assert a - a == SuperElement.zero()
    assert a.coefficient(mono((0,), (1, 0))) == 1
    assert a.coefficient(mono((), (0, 0))) == 0


def test_like_terms_are_summed_and_cancelled_terms_dropped():
    # two terms on one monomial, from a sum and from products
    x, y = elem((0,), (1, 0), 2), elem((1,), (0, 1))
    assert (x + x).terms == {mono((0,), (1, 0)): 4}
    assert (x + y + elem((0,), (1, 0), -2)).terms == {mono((1,), (0, 1)): 1}
    assert (x + elem((0,), (1, 0), -2)).terms == {}
    e0, e1 = elem((0,), (0,)), elem((1,), (0,))
    # e0 e1 and -e1 e0 both give e0 e1, and e0 e1 + e1 e0 cancels
    assert wedge(e0 + e1, e1 - e0).terms == {mono((0, 1), (0,)): 2}
    assert wedge(e0 + e1, e0 + e1).terms == {}
    o0, o1 = elem((), (1, 0)), elem((), (0, 1))
    assert wedge(o0 + o1, o0 - o1).terms == {mono((), (2, 0)): 1, mono((), (0, 2)): -1}
    assert wedge(o0 + o1, o0 + o1).terms == {mono((), (2, 0)): 1, mono((), (1, 1)): 2,
                                             mono((), (0, 2)): 1}


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


def _permanent_by_rows(mat):
    """The plain recursive expansion along the first row."""
    if not mat:
        return 1
    return sum(a * _permanent_by_rows([r[:j] + r[j + 1:] for r in mat[1:]])
               for j, a in enumerate(mat[0]) if a)


def test_permanent_expansion_row_independence():
    # every first row gives the plain expansion's value, on random
    # matrices and on ones with repeated columns, whose minors the
    # oracle's expansion over column multisets shares
    rng = random.Random(11)
    for _ in range(120):
        k = rng.randint(1, 5)
        mat = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(k)]
        if rng.random() < 0.5:
            pool = list(zip(*mat))[:2]
            mat = [list(row) for row in zip(*(rng.choice(pool) for _ in range(k)))]
        vals = {permanent(mat, row=r) for r in range(k)}
        assert vals == {_permanent_by_rows(mat)}, mat
    assert permanent([]) == 1
    assert permanent([[1, 1], [1, 1]]) == 2
    # the delta matrix of o_0^3 o_1^2: 3! 2! matchings
    seq = (0, 0, 0, 1, 1)
    assert permanent([[int(i == j) for j in seq] for i in seq]) == 12


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
    # the kernel indexes the packed keys of enumerate_basis's monomials:
    # as domain columns, and as the row keys the kernel probes with sums
    alg = make_heisenberg_even(1, 2)
    dims = SuperSpaceDims(*alg.superdim)
    for q in range(4):
        workspace = _Workspace(alg, q + 1)
        domain, codomain = enumerate_basis(dims, q), enumerate_basis(dims, q + 1)
        keys = [_pack(m, dims.even_count, workspace.radix) for m in domain]
        assert keys == _keys(*_units(dims, workspace.radix), q)
        row_index = {_pack(m, dims.even_count, workspace.radix): r
                     for r, m in enumerate(codomain)}
        mat = _coboundary(workspace, keys, row_index)
        assert len(mat.columns) == len(domain)
        for m, col in zip(domain, mat.columns):
            image = {codomain[r]: v * mat.scale for r, v in col.items()}
            assert image == d_element(alg, SuperElement.from_monomial(m)).terms


def test_packing_round_trips_in_the_basis_order():
    # exhaustively over small dims and degrees (q = -1, which lists
    # nothing, included), at two odd radices: _keys over the same units
    # lists the keys of enumerate_basis's monomials in its order,
    # unpack(pack(m)) == m, and distinct monomials get distinct keys
    for n in range(4):
        for m in range(4):
            dims = SuperSpaceDims(n, m)
            for q in range(-1, 7):
                for radix in (_radix(q), _radix(q) + 6):
                    keys = _keys(*_units(dims, radix), q)
                    basis = enumerate_basis(dims, q)
                    assert keys == [_pack(mono, n, radix) for mono in basis], (dims, q, radix)
                    assert [_unpack(key, dims, radix) for key in keys] == basis
                    assert len(set(keys)) == len(keys)
                    assert all(type(key) is int for key in keys)
                assert _radix(q) > q
    # a radix not above the degree could give two monomials one key
    # (o0^2 o2 and o1^3 both pack to 6 at radix 2)
    assert _pack(mono((), (2, 0, 1)), 0, 2) == _pack(mono((), (0, 3, 0)), 0, 2) == 6


def test_the_radix_is_odd_so_wide_keys_spread_over_the_hash():
    # CPython hashes an int modulo 2^61 - 1; the keys of 401 odd duals
    # are about 640 bits wide, and with a power-of-two radix they would
    # share a few hash values, each index lookup walking a long chain
    dims = SuperSpaceDims(0, 401)
    radix = _radix(2)
    assert radix % 2 == 1 and radix > 2
    keys = _keys(*_units(dims, radix), 2)
    assert len(keys) == graded_dim(dims, 2)
    assert len({hash(key) for key in keys}) == len(keys)
    wide = _keys(*_units(dims, 4), 2)
    assert len({hash(key) for key in wide}) < len(wide) // 10


def test_odd_exponents_come_in_descending_lexicographic_order():
    # with no even duals the basis is every exponent tuple of the degree,
    # in descending lexicographic order
    for m in range(6):
        for total in range(7):
            brute = sorted((a for a in product(range(total + 1), repeat=m)
                            if sum(a) == total), reverse=True)
            got = enumerate_basis(SuperSpaceDims(0, m), total)
            assert [mono.odd_exponents for mono in got] == brute, (m, total)
            assert all(mono.even_mask == 0 for mono in got)


def test_enumerate_basis_without_an_odd_dual():
    # _keys with one odd unit left out lists the monomials with exponent
    # 0 in that slot, as a subsequence of the full basis in its order, at
    # two odd radices: the cochains without that dual, as the orbit
    # listing and the public builders list A^t, graded_dim((n, m - 1), q)
    # of them
    for n in range(4):
        for m in range(1, 4):
            dims = SuperSpaceDims(n, m)
            for q in range(-1, 7):
                for radix, j in product((_radix(q), _radix(q) + 6), range(m)):
                    evens, odds = _units(dims, radix)
                    want = [mono for mono in enumerate_basis(dims, q)
                            if mono.odd_exponents[j] == 0]
                    got = _keys(evens, odds[:j] + odds[j + 1:], q)
                    assert got == [_pack(mono, n, radix) for mono in want], (n, m, j, q, radix)
                    assert len(got) == graded_dim(SuperSpaceDims(n, m - 1), q)


def test_enumerate_basis_of_many_odd_duals():
    dims = SuperSpaceDims(0, 401)
    basis = enumerate_basis(dims, 2)
    assert len(basis) == graded_dim(dims, 2)
    # strictly descending degree-2 exponent tuples, so every one of
    # them, each built once from its odd index multiset
    alphas = [mono.odd_exponents for mono in basis]
    assert all(map(gt, alphas, alphas[1:]))
    assert set(map(sum, alphas)) == {2}
