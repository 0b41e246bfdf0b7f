import random
from fractions import Fraction

import pytest

from heisenberg_cohomology.algebra import (LieSuperalgebra,
                                           make_heisenberg_even,
                                           make_heisenberg_odd, validate)
from heisenberg_cohomology.cohomology import betti_table
from heisenberg_cohomology.differential import (differential_matrix, d_element,
                                                d_generator, psi_matrix, tau)
from heisenberg_cohomology.fileformats import parse_algebra
from heisenberg_cohomology.linalg import RationalMatrix, kernel_dim, rank
from heisenberg_cohomology.superexterior import (SuperElement, SuperMonomial,
                                                 SuperSpaceDims, dual_pairing,
                                                 element_pairing,
                                                 enumerate_basis, wedge)

from oracles import (coboundary_alternating_sum, coboundary_entry, matmul,
                     monomial_generator_sequence, tensor_normal_form)


def single(evens=(), odds=(), coeff=1):
    return SuperElement.from_monomial(SuperMonomial(tuple(evens), tuple(odds)), coeff)


def explicit_tau(n, l):
    """l * (sum_i -e_i o_i) * (z-dual)^{l-1} over dual dims (n, n+1)."""
    tau1 = SuperElement.zero()
    for i in range(n):
        exps = [0] * (n + 1)
        exps[i] = 1
        tau1 = tau1 + single((i,), exps, -1)
    return l * wedge(tau1, single((), (0,) * n + (l - 1,)))


def test_d_central_generator_even_family():
    for n, m in ((1, 1), (2, 2), (3, 1)):
        alg = make_heisenberg_even(n, m)
        # sum_i e_{n+i} ^ e_i - 1/2 sum_j o_j ^ o_j, in dual positions
        want = SuperElement.zero()
        for i in range(1, n + 1):
            want = want + wedge(single((n + i,), (0,) * m), single((i,), (0,) * m))
        for j in range(m):
            exps = [0] * m
            exps[j] = 1
            sq = wedge(single((), exps), single((), exps))
            want = want + Fraction(-1, 2) * sq
        assert d_generator(alg, 0) == want


def test_d_central_generator_odd_family():
    for n in (1, 2, 3):
        alg = make_heisenberg_odd(n)
        assert d_generator(alg, 2 * n) == tau(n, 1)


def test_d_of_noncentral_generators_vanishes():
    alg = make_heisenberg_even(2, 1)
    for k in range(1, alg.dim):
        assert d_generator(alg, k).is_zero()
    odd = make_heisenberg_odd(2)
    for k in range(0, 2 * odd.superdim[0]):
        assert d_generator(odd, k).is_zero()


def test_d_element_examples_h1():
    alg = make_heisenberg_odd(1)
    # d((z-dual)^2) = -2 e0 o0 z-dual
    zsq = single((), (0, 2))
    assert d_element(alg, zsq) == single((0,), (1, 1), -2)
    # d(e0 ^ z-dual) = -e0 ^ d(z-dual) = e0 ^ e0 ^ o0 = 0
    assert d_element(alg, single((0,), (0, 1))).is_zero()


def test_d_kills_central_dual_free_monomials():
    alg = make_heisenberg_even(1, 2)
    dims = SuperSpaceDims(*alg.superdim)
    for q in range(4):
        for mono in enumerate_basis(dims, q):
            if 0 not in mono.even_set:  # z-dual is even slot 0
                assert d_element(alg, SuperElement.from_monomial(mono)).is_zero()


def test_d_element_linearity():
    rng = random.Random(17)
    alg = make_heisenberg_even(1, 1)
    dims = SuperSpaceDims(*alg.superdim)
    basis = [m for m in enumerate_basis(dims, 3) if m.parity == 0]
    for _ in range(20):
        u = SuperElement({m: rng.randint(-3, 3) for m in rng.sample(basis, 2)})
        v = SuperElement({m: rng.randint(-3, 3) for m in rng.sample(basis, 2)})
        a, b = rng.randint(-2, 2), rng.randint(-2, 2)
        assert d_element(alg, a * u + b * v) == \
            a * d_element(alg, u) + b * d_element(alg, v)


def test_d_squared_zero_elementwise():
    for alg in (make_heisenberg_even(1, 2), make_heisenberg_odd(2)):
        dims = SuperSpaceDims(*alg.superdim)
        for q in range(4):
            for mono in enumerate_basis(dims, q):
                once = d_element(alg, SuperElement.from_monomial(mono))
                assert d_element(alg, once).is_zero()


def test_differential_matrix_examples():
    h1 = make_heisenberg_odd(1)
    dm = differential_matrix(h1, 1)
    assert rank(dm.matrix) == 1
    dm0 = differential_matrix(h1, 0)
    assert dm0.matrix.cols == 1 and dm0.matrix.is_zero()
    h11 = make_heisenberg_even(1, 1)
    dm2 = differential_matrix(h11, 2)
    assert dm2.matrix.cols == 7
    assert rank(dm2.matrix) == 3
    with pytest.raises(ValueError):
        differential_matrix(h1, -1)


def assert_columns_match_d_element(alg, q_max):
    for q in range(q_max + 1):
        dm = differential_matrix(alg, q)
        row = {m: r for r, m in enumerate(dm.codomain)}
        got = {}
        for (r, c), v in dm.matrix.entries.items():
            got.setdefault(c, {})[r] = v
        for j, mono in enumerate(dm.domain):
            image = d_element(alg, SuperElement.from_monomial(mono))
            want = {row[m]: c for m, c in image.terms.items()}
            assert got.get(j, {}) == want, (alg.name, q, mono)


def test_differential_matrix_columns_match_d_element():
    for alg in (make_heisenberg_even(1, 1), make_heisenberg_odd(2),
                make_heisenberg_even(2, 1)):
        assert_columns_match_d_element(alg, 4)


def test_d_element_rejects_a_wrong_odd_dimension():
    h1 = make_heisenberg_odd(1)  # dual superdimension (1|2)
    for odds in ((1,), (1, 0, 0)):
        with pytest.raises(ValueError, match=r"not a cochain of h_1.*\(1\|2\)"):
            d_element(h1, single((), odds))


def test_d_element_rejects_an_even_index_out_of_range():
    h1 = make_heisenberg_odd(1)
    with pytest.raises(ValueError, match=r"e3\*o1 is not a cochain of h_1"):
        d_element(h1, single((3,), (0, 1)))


def test_even_self_bracket_is_refused_by_name():
    # not a Lie superalgebra (validate reports the same defect); the
    # coboundary has no term for it and must say so, not crash
    bad = LieSuperalgebra("bad", [("x", 0), ("y", 0)], {(0, 0): {1: 1}})
    for call in (lambda: d_generator(bad, 1), lambda: betti_table(bad, 2)):
        with pytest.raises(ValueError,
                           match="even generator 'x' has a nonzero self-bracket"):
            call()
    assert d_generator(bad, 0).is_zero()


def test_parity_breaking_bracket_is_refused_by_name():
    # [x, y] -> u joins two even generators to an odd one; the kernel's
    # signs assume every bracket is parity-homogeneous
    bad = LieSuperalgebra("bad", [("x", 0), ("y", 0), ("u", 1)], {(0, 1): {2: 1}})
    for call in (lambda: d_generator(bad, 2), lambda: differential_matrix(bad, 1),
                 lambda: d_element(bad, single((), (1,)))):
        with pytest.raises(ValueError,
                           match=r"bracket \[x, y\] -> u is not parity-homogeneous"):
            call()


RATIONAL_CONSTANTS = """\
name rational
generator a 0
generator b 0
generator c 0
generator u 1
generator v 1
bracket a b = c:1/3
bracket u u = c:3/5
bracket u v = c:-2/7
"""


def test_differential_matrix_with_rational_constants():
    # the integer build scales by one denominator D; entries must come
    # back as the exact rationals d_element produces
    alg = parse_algebra(RATIONAL_CONSTANTS)
    assert_columns_match_d_element(alg, 4)
    # d(c-dual) has coefficients -1/3, -3/10 and 2/7, so D = 210
    entries = differential_matrix(alg, 2).matrix.entries.values()
    assert {v.denominator for v in entries} == {3, 7, 10}


def assert_entries_match_oracle(alg, q_max):
    for q in range(q_max + 1):
        dm = differential_matrix(alg, q)
        for j, omega in enumerate(dm.domain):
            for r, u in enumerate(dm.codomain):
                assert dm.matrix.get(r, j) == coboundary_entry(alg, omega, u), \
                    (alg.name, q, omega, u)


def test_differential_matrix_entries_match_coboundary_oracle():
    for alg in (make_heisenberg_even(1, 1), make_heisenberg_odd(2),
                make_heisenberg_even(2, 1), parse_algebra(RATIONAL_CONSTANTS)):
        assert_entries_match_oracle(alg, 4)


def test_slot_memo_is_keyed_by_content():
    # same name, generators and superdimension; only [y1, y1] differs, so
    # a memo keyed by anything but the bracket constants mixes them up
    gens = [("z", 0), ("x1", 0), ("x2", 0), ("y1", 1)]
    one, two = (LieSuperalgebra("h_{1,1}", gens, {(1, 2): {0: 1}, (3, 3): {0: c}})
                for c in (1, 2))
    assert differential_matrix(one, 1).matrix != differential_matrix(two, 1).matrix
    for degrees in (range(5), range(4, -1, -1)):
        for q in degrees:
            for alg in (one, two):
                dm = differential_matrix(alg, q)
                for j, omega in enumerate(dm.domain):
                    for r, u in enumerate(dm.codomain):
                        assert dm.matrix.get(r, j) == coboundary_entry(alg, omega, u), \
                            (alg.brackets[(3, 3)], q, omega, u)


def test_active_slots_away_from_the_ends():
    # h_{1,1} (+) h_1 with its generators shuffled: the only duals with a
    # nonzero d are z (even position 1 of 4) and w (odd position 1 of 3),
    # each between inactive duals of its own parity
    alg = LieSuperalgebra("h_{1,1}+h_1", [
        ("x1", 0), ("y", 1), ("z", 0), ("w", 1), ("x", 0), ("v", 1), ("x2", 0)],
        {(0, 6): {2: 1}, (1, 1): {2: 1}, (4, 5): {3: 1}})
    assert validate(alg) == []
    assert [bool(d_generator(alg, k).terms) for k in range(alg.dim)] \
        == [False, False, True, True, False, False, False]
    assert_entries_match_oracle(alg, 4)


def test_psi_matrix_is_right_multiplication_by_tau():
    # psi is built by the coboundary kernel; the reference wedges by tau
    for n in (1, 2, 3):
        free = SuperSpaceDims(n, n)
        for l in (1, 2, 3):
            tau_elem = explicit_tau(n, l)
            for t in range(0, 5):
                mat = psi_matrix(t, n, l)
                row = {m: r for r, m in enumerate(enumerate_basis(free, t + 2))}
                want = {}
                for j, mono in enumerate(enumerate_basis(free, t)):
                    lifted = SuperMonomial(mono.even_set, mono.odd_exponents + (0,))
                    image = wedge(SuperElement.from_monomial(lifted), tau_elem)
                    for m, c in image.terms.items():
                        assert m.odd_exponents[n] == l - 1
                        dropped = SuperMonomial(m.even_set, m.odd_exponents[:n])
                        want[(row[dropped], j)] = c
                assert mat.entries == want, (t, n, l)


def pairing_of_word(alg, omega):
    n1 = alg.superdim[1]

    def pair(word):
        sign, normal = tensor_normal_form(word)
        if sign == 0:
            return Fraction(0)
        evens = tuple(i for kind, i in normal if kind == "e")
        exps = [0] * n1
        for kind, i in normal:
            if kind == "o":
                exps[i] += 1
        return sign * dual_pairing(omega, SuperMonomial(evens, tuple(exps)))

    return pair


def test_pairing_compatibility_small():
    # <d omega, u> must equal the alternating bracket-insertion sum
    for alg in (make_heisenberg_odd(1), make_heisenberg_even(1, 1)):
        dims = SuperSpaceDims(*alg.superdim)
        for q in range(0, 3):
            duals = enumerate_basis(dims, q)
            primals = enumerate_basis(dims, q + 1)
            for omega in duals:
                d_omega = d_element(alg, SuperElement.from_monomial(omega))
                pair = pairing_of_word(alg, omega)
                for u in primals:
                    lhs = element_pairing(d_omega, SuperElement.from_monomial(u))
                    seq = monomial_generator_sequence(alg, u)
                    rhs = coboundary_alternating_sum(alg, seq, pair)
                    assert lhs == rhs, (alg.name, omega, u)


def test_tau_examples():
    t11 = tau(1, 1)
    assert t11 == single((0,), (1, 0), -1)
    for n in (1, 2, 3):
        tn = tau(n, 1)
        want = SuperElement.zero()
        for i in range(n):
            exps = [0] * (n + 1)
            exps[i] = 1
            want = want + wedge(single((), exps), single((i,), (0,) * (n + 1)))
        assert tn == want
        for l in (1, 2):
            assert wedge(tau(n, l), tau(n, l)).is_zero()
    # tau(1,2) = 2 (o0 ^ e0) ^ z-dual
    assert tau(1, 2) == 2 * wedge(wedge(single((), (1, 0)), single((0,), (0, 0))),
                                  single((), (0, 1)))
    with pytest.raises(ValueError):
        tau(0, 1)
    with pytest.raises(ValueError):
        tau(1, 0)


def test_tau_matches_coboundary_of_z_powers():
    # the verify grid's range: psi_matrix(t, n, l) for n <= 4, l <= 3
    for n in (1, 2, 3, 4):
        alg = make_heisenberg_odd(n)
        for l in (1, 2, 3):
            zl = single((), (0,) * n + (l,))
            assert tau(n, l) == d_element(alg, zl) == explicit_tau(n, l)


def test_psi_matrix_examples():
    m = psi_matrix(1, 1, 1)
    assert m.rows == len(enumerate_basis(SuperSpaceDims(1, 1), 3))
    assert m.cols == 2
    assert kernel_dim(m) == 1
    assert m.columns[0] == {}          # e0 ^ tau = 0: e0 spans the kernel
    assert m.columns[1] != {}
    for l in (1, 2, 3):
        assert kernel_dim(psi_matrix(0, 1, l)) == 0
    neg = psi_matrix(-1, 2, 1)
    assert neg.cols == 0 and kernel_dim(neg) == 0


def test_psi_rank_same_for_all_powers():
    for n in (1, 2):
        for t in range(0, 6):
            ranks = {rank(psi_matrix(t, n, l)) for l in (1, 2, 3)}
            assert len(ranks) == 1


def test_psi_kernel_structure():
    # kernel of psi at degree q = image of psi from degree q-2, plus the
    # span of e0...e_{n-1} exactly when q = n
    for n in (1, 2, 3):
        for q in range(0, 7):
            for l in (1, 2):
                outer = psi_matrix(q, n, l)
                inner = psi_matrix(q - 2, n, 1)
                assert matmul(outer, inner).is_zero()
                delta = 1 if q == n else 0
                assert kernel_dim(outer) == rank(inner) + delta
            if q == n:
                basis = enumerate_basis(SuperSpaceDims(n, n), q)
                top = SuperMonomial(tuple(range(n)), (0,) * n)
                row = basis.index(top)
                inner = psi_matrix(q - 2, n, 1)
                augmented = RationalMatrix(
                    inner.rows, inner.cols + 1,
                    dict(inner.entries) | {(row, inner.cols): 1})
                assert rank(augmented) == rank(inner) + 1
