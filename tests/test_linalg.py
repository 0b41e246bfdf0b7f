import copy
import random
from fractions import Fraction

import pytest

from heisenberg_cohomology.algebra import make_heisenberg_even
from heisenberg_cohomology.differential import differential_matrix, psi_matrix
from heisenberg_cohomology.linalg import RationalMatrix, kernel_dim, rank

from oracles import dense_rank_bareiss, dense_rank_fractions, matmul


def random_sparse(rng, rows, cols, density=0.3, rational=True):
    entries = {}
    for r in range(rows):
        for c in range(cols):
            if rng.random() < density:
                num = rng.randint(-6, 6)
                den = rng.randint(1, 4) if rational else 1
                if num:
                    entries[(r, c)] = Fraction(num, den)
    return RationalMatrix(rows, cols, entries)


def both_oracles(matrix):
    a = dense_rank_fractions(matrix.rows, matrix.cols, matrix.entries)
    b = dense_rank_bareiss(matrix.rows, matrix.cols, matrix.entries)
    assert a == b
    return a


def test_rank_trivial_examples():
    assert rank(RationalMatrix(4, 6)) == 0
    assert rank(RationalMatrix(5, 5, {(i, i): 1 for i in range(5)})) == 5
    assert kernel_dim(RationalMatrix(3, 7)) == 7
    assert rank(RationalMatrix(2, 2, {(0, 0): 1, (0, 1): 2,
                                      (1, 0): 2, (1, 1): 4})) == 1


def test_rank_on_differential_matrices():
    alg = make_heisenberg_even(1, 1)
    d1 = differential_matrix(alg, 1).matrix
    assert rank(d1) == 1 == both_oracles(d1)
    d2 = differential_matrix(alg, 2).matrix
    assert d2.cols == 7
    assert rank(d2) == 3 == both_oracles(d2)
    assert kernel_dim(d2) == 4
    assert kernel_dim(psi_matrix(1, 1, 1)) == 1


def test_rank_equals_transpose_rank():
    rng = random.Random(3)
    for _ in range(25):
        m = random_sparse(rng, rng.randint(1, 10), rng.randint(1, 10))
        transposed = RationalMatrix(m.cols, m.rows,
                                    {(c, r): v for (r, c), v in m.entries.items()})
        assert rank(m) == rank(transposed)


def test_rank_invariant_under_permutation_and_scaling():
    rng = random.Random(5)
    for _ in range(20):
        rows, cols = rng.randint(2, 9), rng.randint(2, 9)
        m = random_sparse(rng, rows, cols)
        rperm = list(range(rows))
        cperm = list(range(cols))
        rng.shuffle(rperm)
        rng.shuffle(cperm)
        scales = [Fraction(rng.randint(1, 5), rng.randint(1, 5)) for _ in range(rows)]
        shuffled = RationalMatrix(rows, cols, {
            (rperm[r], cperm[c]): v * scales[r]
            for (r, c), v in m.entries.items()})
        assert rank(m) == rank(shuffled)


def test_rank_agrees_with_dense_oracles():
    rng = random.Random(9)
    for _ in range(40):
        m = random_sparse(rng, rng.randint(1, 14), rng.randint(1, 14),
                          density=rng.choice([0.1, 0.3, 0.8]))
        assert rank(m) == both_oracles(m)
    # low-rank by construction: outer products
    for _ in range(10):
        rows, cols = rng.randint(3, 8), rng.randint(3, 8)
        u = [rng.randint(-3, 3) for _ in range(rows)]
        v = [rng.randint(-3, 3) for _ in range(cols)]
        entries = {(r, c): u[r] * v[c] for r in range(rows) for c in range(cols)
                   if u[r] * v[c]}
        m = RationalMatrix(rows, cols, entries)
        assert rank(m) == both_oracles(m) <= 1


def nonzero_rational(rng):
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 4))


def test_rank_agrees_with_bareiss_on_tied_counts():
    # every column starts with the same count, and block copies keep
    # counts tied through the elimination: the pivot queue's tie-breaks
    # decide every step
    rng = random.Random(23)
    for _ in range(40):
        rows, cols = rng.randint(1, 16), rng.randint(1, 16)
        k = rng.randint(1, min(rows, 3))
        entries = {(r, c): nonzero_rational(rng)
                   for c in range(cols) for r in rng.sample(range(rows), k)}
        m = RationalMatrix(rows, cols, entries)
        assert rank(m) == dense_rank_bareiss(rows, cols, m.entries)
    for _ in range(10):
        block = random_sparse(rng, 4, 4, density=0.4)
        copies = rng.randint(2, 4)
        entries = {(r + 4 * i, c + 4 * i): v
                   for i in range(copies) for (r, c), v in block.entries.items()}
        m = RationalMatrix(4 * copies, 4 * copies, entries)
        assert rank(m) == dense_rank_bareiss(m.rows, m.cols, m.entries) \
            == copies * rank(block)


def test_rank_agrees_with_bareiss_on_dense_matrices():
    rng = random.Random(29)
    for _ in range(20):
        rows, cols = rng.randint(1, 12), rng.randint(1, 12)
        m = RationalMatrix(rows, cols, {(r, c): nonzero_rational(rng)
                                        for r in range(rows) for c in range(cols)})
        assert rank(m) == dense_rank_bareiss(rows, cols, m.entries)
    # dense but rank-deficient: a sum of k rank-one matrices
    for _ in range(20):
        rows, cols, k = rng.randint(2, 10), rng.randint(2, 10), rng.randint(1, 4)
        vecs = [([nonzero_rational(rng) for _ in range(rows)],
                 [nonzero_rational(rng) for _ in range(cols)]) for _ in range(k)]
        m = RationalMatrix(rows, cols, {
            (r, c): sum(u[r] * v[c] for u, v in vecs)
            for r in range(rows) for c in range(cols)})
        assert rank(m) == dense_rank_bareiss(rows, cols, m.entries) <= k


def test_matmul():
    a = RationalMatrix(2, 3, {(0, 0): 1, (0, 2): 2, (1, 1): Fraction(1, 2)})
    b = RationalMatrix(3, 2, {(0, 0): 3, (1, 0): 4, (2, 1): 5})
    ab = matmul(a, b)
    assert ab.rows == 2 and ab.cols == 2
    assert ab.get(0, 0) == 3 and ab.get(0, 1) == 10 and ab.get(1, 0) == 2
    assert matmul(a, RationalMatrix(3, 4)).is_zero()
    with pytest.raises(ValueError):
        matmul(a, RationalMatrix(2, 2))
    ident = RationalMatrix(3, 3, {(i, i): 1 for i in range(3)})
    assert matmul(a, ident) == a


def test_constructor_guards():
    with pytest.raises(ValueError):
        RationalMatrix(2, 2, {(2, 0): 1})
    with pytest.raises(ValueError):
        RationalMatrix(-1, 2)
    m = RationalMatrix(2, 2, {(0, 0): 0, (1, 1): Fraction(2, 4)})
    assert m.nnz == 1 and m.get(1, 1) == Fraction(1, 2)
    assert m.get(0, 0) == 0


def test_get_outside_the_shape_raises():
    m = RationalMatrix(2, 2, {(0, 0): 1})
    for r, c in ((7, 0), (0, -3), (2, 0), (0, 2), (-1, 1)):
        with pytest.raises(IndexError):
            m.get(r, c)
    assert m.get(0, 0) == 1 and m.get(1, 1) == 0


def test_from_columns_and_column():
    m = RationalMatrix.from_columns(3, [{0: 1, 2: -1}, {}, {1: 2}], Fraction(1, 6))
    assert m.rows == 3 and m.cols == 3 and m.nnz == 3
    assert m.entries == {(0, 0): Fraction(1, 6), (2, 0): Fraction(-1, 6),
                         (1, 2): Fraction(1, 3)}
    assert RationalMatrix.from_columns(2, [{1: 3}]).get(1, 0) == 3
    for rows, columns, scale in ((3, [{3: 1}], 1), (3, [{-1: 1}], 1),
                                 (3, [{0: 0}], 1), (3, [{0: Fraction(1, 2)}], 1),
                                 (3, [{0: 1}], 0)):
        with pytest.raises(ValueError):
            RationalMatrix.from_columns(rows, columns, scale)


def test_storage_does_not_change_the_matrix():
    # one matrix stored three ways: rational entries, integers over 1/2,
    # and the doubled integers over 1/4
    half = Fraction(1, 2)
    built = [
        RationalMatrix(3, 2, {(0, 0): half, (2, 0): -1, (1, 1): Fraction(3, 2)}),
        RationalMatrix.from_columns(3, [{0: 1, 2: -2}, {1: 3}], half),
        RationalMatrix.from_columns(3, [{0: 2, 2: -4}, {1: 6}], Fraction(1, 4)),
    ]
    want = {(0, 0): half, (2, 0): Fraction(-1), (1, 1): Fraction(3, 2)}
    for m in built:
        assert m == built[0]
        assert m.entries == want
        assert m.get(0, 0) == half and m.get(1, 0) == 0 and m.get(1, 1) == Fraction(3, 2)
        assert ([{r: v * m.scale for r, v in col.items()} for col in m.columns]
                == [{0: half, 2: -1}, {1: Fraction(3, 2)}])
        assert m.nnz == 3
    assert built[0] != RationalMatrix.from_columns(3, [{0: 1, 2: -2}, {1: 3}], Fraction(1, 4))
    with pytest.raises(TypeError):
        built[0].entries[(0, 1)] = 1


def test_rank_leaves_the_columns_unchanged():
    rng = random.Random(31)
    matrices = [random_sparse(rng, 8, 8, density=0.5) for _ in range(5)]
    matrices.append(differential_matrix(make_heisenberg_even(1, 1), 2).matrix)
    for m in matrices:
        before = copy.deepcopy(m.columns)
        rank(m)
        assert m.columns == before


def test_rank_with_a_negative_scale():
    # psi at odd t is stored over -1/D
    for n in (1, 2, 3):
        for t in (1, 3, 5):
            m = psi_matrix(t, n, 2)
            assert m.scale < 0
            assert rank(m) == dense_rank_bareiss(m.rows, m.cols, m.entries)
