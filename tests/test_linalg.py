import copy
import random
import time
from fractions import Fraction
from math import gcd

import pytest

from heisenberg_cohomology import cohomology, linalg, verify
from heisenberg_cohomology.algebra import (LieSuperalgebra, adapted_basis,
                                           make_heisenberg_even, make_heisenberg_odd)
from heisenberg_cohomology.cohomology import betti_table
from heisenberg_cohomology.elements import differential_matrix, psi_matrix
from heisenberg_cohomology.linalg import RationalMatrix, _reduce, kernel_dim, rank

from oracles import dense_rank_bareiss, dense_rank_fractions, matmul
from test_validate import _table, change_basis, direct_sum


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
    # a float is refused as inexact; an exact string is not
    for v in (0.1, 0.5, float("inf"), float("nan")):
        with pytest.raises(TypeError, match=r"entry \(1, 0\) is the float %s" % v):
            RationalMatrix(2, 2, {(1, 0): v})
    assert RationalMatrix(1, 1, {(0, 0): "1/2"}).get(0, 0) == Fraction(1, 2)


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
    for scale in (0.1, 0.5, float("inf"), float("nan")):
        with pytest.raises(TypeError, match="the scale is the float %s" % scale):
            RationalMatrix.from_columns(1, [{0: 1}], scale)
    assert RationalMatrix.from_columns(1, [{0: 1}], "1/2").get(0, 0) == Fraction(1, 2)


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
    # its entries are not the matrix
    assert built[0].__eq__(want) is NotImplemented and built[0] != want
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


def test_reduce_cancels_the_lead_against_a_row_of_either_sign():
    # v <- a v - b row with a/b = row[lead]/v[lead], a > 0, then divided
    # by its content gcd; the row is only read
    for row, want in (({0: -6, 2: 9}, [(1, 3), (3, 1), (2, 3)]),
                      # the adapted basis's case, a positive lead
                      ({0: 6, 2: 9}, [(1, 3), (3, 1), (2, -3)])):
        v = {0: 4, 1: 6, 3: 2}
        before = dict(row)
        _reduce(v, row, 0)
        assert list(v.items()) == want
        assert gcd(*v.values()) == 1
        assert list(row.items()) == list(before.items())
    rng = random.Random(26)
    for _ in range(200):
        row = {k: rng.randint(-30, 30) for k in rng.sample(range(8), 4)}
        row = {k: x for k, x in row.items() if x}
        if not row:
            continue
        lead = rng.choice(list(row))
        v = {k: rng.randint(-30, 30) for k in rng.sample(range(8), 4)}
        v[lead] = rng.choice((-1, 1)) * rng.randint(1, 30)
        v = {k: x for k, x in v.items() if x}
        # the same line as v - (v[lead] / row[lead]) row, a positive
        # multiple of it, with content gcd 1
        exact = {k: v.get(k, 0) - Fraction(v[lead], row[lead]) * row.get(k, 0)
                 for k in set(v) | set(row)}
        exact = {k: x for k, x in exact.items() if x}
        _reduce(v, row, lead)
        assert lead not in v and set(v) == set(exact)
        if v:
            assert gcd(*v.values()) == 1
            k = next(iter(v))
            ratio = exact[k] / v[k]
            assert ratio > 0 and all(exact[j] == ratio * x for j, x in v.items())


def test_rank_with_a_negative_scale():
    # psi at odd t is stored over -1/D
    for n in (1, 2, 3):
        for t in (1, 3, 5):
            m = psi_matrix(t, n, 2)
            assert m.scale < 0
            assert rank(m) == dense_rank_bareiss(m.rows, m.cols, m.entries)


def _random_integer_columns(rng, rows, cols, density):
    """Sparse integer columns with zero columns, duplicates, multiples of
    earlier columns and entries of up to 30 digits."""
    columns = []
    for _ in range(cols):
        pick = rng.random()
        if pick < 0.15:
            columns.append({})
        elif pick < 0.35 and columns:
            factor = rng.choice((1, -1, rng.randint(2, 10 ** 12)))
            columns.append({r: factor * v for r, v in rng.choice(columns).items()})
        else:
            columns.append({r: rng.choice((1, -1)) * rng.randint(1, 10 ** rng.randint(1, 30))
                            for r in range(rows) if rng.random() < density})
    return columns


def test_rank_hypothesis_under_row_and_column_permutations():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=80, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(st.integers(0, 2 ** 32), st.integers(1, 10),
                      st.integers(1, 10), st.sampled_from((0.15, 0.4, 0.8)))
    def check(seed, rows, cols, density):
        rng = random.Random(seed)
        columns = _random_integer_columns(rng, rows, cols, density)
        want = dense_rank_bareiss(rows, cols, RationalMatrix.from_columns(rows, columns).entries)
        row_order = list(range(rows))
        rng.shuffle(row_order)
        permuted = [{row_order[r]: v for r, v in col.items()} for col in columns]
        rng.shuffle(permuted)
        assert rank(RationalMatrix.from_columns(rows, columns)) == want
        assert rank(RationalMatrix.from_columns(rows, permuted, rng.choice((-1, 3)))) == want

    check()


def _staircase(rng, rows, start, length):
    """Columns {i: a, i + 1: b} on rows start .. start + length: alone,
    the two end columns hold private rows, and each round of the peel
    frees the next two."""
    return [{r: nonzero_rational(rng).numerator, r + 1: nonzero_rational(rng).numerator}
            for r in range(start, start + length) if r + 1 < rows]


def _peel_cases(rng):
    """Integer columns over `rows` rows built to exercise the peel."""
    rows = rng.randint(4, 14)
    base = _random_integer_columns(rng, rows, rng.randint(1, 10), 0.4)
    cases = [("random", rows, base)]
    # private rows: some columns also touch a row of their own
    extra = [dict(col) for col in base]
    own = rows
    for col in extra:
        if rng.random() < 0.5:
            col[own] = rng.choice((1, -1)) * rng.randint(1, 9)
            own += 1
    cases.append(("private rows", own, extra))
    # cascades: staircases that shrink from both ends one round at a time,
    # beside the random block on the same rows
    stairs = _staircase(rng, rows, rng.randint(0, rows // 2), rng.randint(2, rows))
    cases.append(("cascade", rows, base + stairs))
    # duplicate and scaled columns share every row, so none of them is
    # private, though a column they are copies of may have been
    copies = [{r: f * v for r, v in col.items()}
              for col in rng.sample(extra, rng.randint(1, len(extra)))
              for f in (1, -rng.randint(2, 10 ** 6))]
    cases.append(("duplicates", own, extra + copies))
    # no private row at all: every column twice, once scaled
    cases.append(("no private row", rows,
                  base + [{r: 3 * v for r, v in col.items()} for col in base]))
    # every row private: columns on disjoint rows, some of them empty
    disjoint, r = [], 0
    for _ in range(rng.randint(1, 8)):
        size = rng.randint(0, 3)
        disjoint.append({r + i: rng.choice((1, -2, 5)) for i in range(size)})
        r += size
    cases.append(("every row private", r, disjoint))
    return cases


def test_structural_pivots_are_peeled_exactly():
    rng = random.Random(37)
    seen = set()
    for _ in range(60):
        for name, rows, columns in _peel_cases(rng):
            rng.shuffle(columns)
            m = RationalMatrix.from_columns(rows, columns, rng.choice((1, Fraction(-2, 3))))
            want = dense_rank_bareiss(m.rows, m.cols, m.entries)
            assert rank(m) == want, (name, columns)
            seen.add(name)
    assert len(seen) == 6
    # the end columns peel and leave a scaled duplicate pair of rank 1;
    # {1: 4} is private only once the first round has peeled the others
    assert rank(RationalMatrix.from_columns(4, [{0: 1, 1: 1}, {1: 1, 2: 1}, {1: 2, 2: 2},
                                                {2: 1, 3: 1}])) == 3
    assert rank(RationalMatrix.from_columns(3, [{0: 1, 1: 1}, {1: -2, 2: 1}, {1: 4}])) == 3


def test_a_long_bidiagonal_chain_is_ranked_in_time():
    # each round of the peel frees only the two end columns, so peeling
    # until no private row is left would take one pass over the matrix
    # per pair of columns; the bounded peel leaves the rest to one
    # elimination pass, which meets no fill-in
    n = 20000
    chain = RationalMatrix.from_columns(n + 1, [{i: 1, i + 1: -1} for i in range(n)])
    transposed = RationalMatrix.from_columns(
        n, [{r: v for r, v in ((i - 1, -1), (i, 1)) if 0 <= r < n} for i in range(n + 1)])
    for m in (chain, transposed):
        t0 = time.perf_counter()
        assert rank(m) == n
        assert time.perf_counter() - t0 < 5


def _rank_checked(columns, rows=None, scale=1):
    """rank of the integer columns against the Bareiss oracle; rank must
    leave the columns as they were."""
    if rows is None:
        rows = 1 + max((max(col) for col in columns if col), default=0)
    m = RationalMatrix.from_columns(rows, columns, scale)
    before = copy.deepcopy(m.columns)
    got = rank(m)
    assert m.columns == before
    assert got == dense_rank_bareiss(m.rows, m.cols, m.entries)
    return got


def test_rank_exits_before_elimination_below_two_nonzero_columns(monkeypatch):
    # two nonzero columns sharing every row: nothing is peeled, and the
    # pair is eliminated
    assert _rank_checked([{0: 2, 1: 4}, {}, {0: -1, 1: -2}]) == 1
    assert _rank_checked([{0: 2, 1: 4}, {0: 1, 1: 3}]) == 2
    # below two nonzero columns, at entry or after a round of the peel,
    # and below two rows at entry, rank returns without counting the
    # rows (_row_counts) again or eliminating
    tallies = []
    real_counts = linalg._row_counts

    def counted(cols):
        tallies.append(len(cols))
        return real_counts(cols)

    def refused(*args):
        raise AssertionError("rank reached elimination")

    monkeypatch.setattr(linalg, "_row_counts", counted)
    monkeypatch.setattr(linalg, "_reduce", refused)
    assert _rank_checked([], rows=3) == 0
    assert _rank_checked([{}, {}, {}], rows=3) == 0
    assert _rank_checked([{}, {2: -7, 0: 3}, {}], scale=Fraction(-1, 4)) == 1
    assert not tallies
    # rank is at most the rows: blocks of 0 or 1 rows and up to 6
    # columns, zero columns mixed in and scales of either sign, are
    # ranked without counting or eliminating
    rng = random.Random(44)
    for rows in (0, 1):
        for width in range(7):
            for _ in range(6):
                columns = [{0: rng.choice((-3, -1, 1, 2, 5))} if rows and rng.random() < 0.6
                           else {} for _ in range(width)]
                scale = Fraction(rng.choice((-1, 1)) * rng.randint(1, 4), rng.randint(1, 3))
                want = 1 if any(columns) else 0
                assert _rank_checked(columns, rows=rows, scale=scale) == want
    assert not tallies
    # a bidiagonal chain of five columns: the first round peels the two
    # ends, the second the next two, and the middle column is left alone
    chain = [{i: i + 2, i + 1: -1} for i in range(5)]
    assert _rank_checked([{}] + chain) == 5
    assert tallies == [5, 3]


def test_every_block_the_engine_ranks_matches_the_dense_oracle(monkeypatch):
    # the blocks of the rank routes, of verify's psi walk and of a split
    # table's parts are small; each must be ranked as the dense oracle
    # ranks it, whichever of rank's exits it takes
    seen = []

    def checked(name, real):
        def call(matrix):
            got = real(matrix)
            want = dense_rank_bareiss(matrix.rows, matrix.cols, matrix.entries)
            assert got == (want if name == "rank" else matrix.cols - want)
            seen.append(name)
            return got
        return call

    monkeypatch.setattr(cohomology, "rank", checked("rank", cohomology.rank))
    monkeypatch.setattr(verify, "kernel_dim", checked("kernel_dim", verify.kernel_dim))
    h1 = _table(make_heisenberg_odd(1))
    hidden = LieSuperalgebra("h1+h1", *change_basis(random.Random(29), direct_sum(h1, h1)))
    dims = cohomology.check_column_cap(hidden.name, hidden.superdim, 6)
    assert cohomology._split_ranks(adapted_basis(hidden), 6, 5000, dims) is not None
    for call in (lambda: betti_table(make_heisenberg_odd(4), 8),
                 lambda: betti_table(make_heisenberg_even(3, 3), 8),
                 lambda: verify.verify_family("odd", 4, None, 6),
                 lambda: betti_table(hidden, 6)):
        seen.clear()
        call()
        assert seen
