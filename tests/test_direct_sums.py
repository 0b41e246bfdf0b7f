"""Direct sums: a two-step table split into ideals, ranked by parts.

The inputs are hidden-basis sums built by test_validate's direct_sum
and unimodular change_basis, which share no code with the search; the
references are oracles.dense_betti_numbers (dense Fraction ranks filled
entry by entry) and the Kunneth product of the summands' Betti numbers,
each summand ranked on its own family route.  A part is ranked by its
type alone, so the tables written with non-square coefficients and the
single-target tables are checked against references that never type a
part: the dense oracle, the whole table's differential_matrix (which
never splits) and closed forms.
"""

import random
from fractions import Fraction
from math import comb, gcd

import pytest

from heisenberg_cohomology import cohomology, directsum, reports
from heisenberg_cohomology.algebra import (EVEN, ODD, LieSuperalgebra,
                                           adapted_basis, make_heisenberg_even,
                                           make_heisenberg_odd)
from heisenberg_cohomology.cohomology import betti_table, check_column_cap, cohomology_dims
from heisenberg_cohomology.fileformats import format_algebra, parse_algebra
from heisenberg_cohomology.linalg import _echelon
from heisenberg_cohomology.reports import emit_report
from heisenberg_cohomology.verify import verify_family

from oracles import dense_betti_numbers, dense_rank_fractions, full_matrix_ranks
from test_validate import _table, change_basis, direct_sum, random_two_step

H1, H2, H11 = make_heisenberg_odd(1), make_heisenberg_odd(2), make_heisenberg_even(1, 1)
FREE_EVEN = LieSuperalgebra("u", [("u", EVEN)], {})
FREE_ODD = LieSuperalgebra("v", [("v", ODD)], {})


def scaled(alg, c):
    """alg with every structure constant times c, an isomorphic table:
    its centre z is rescaled."""
    return LieSuperalgebra("%s*%s" % (alg.name, c), alg.generators,
                           {pair: {k: c * x for k, x in t.items()}
                            for pair, t in alg.brackets.items()})


# (summands, q_max of the Kunneth comparison, q_max of the dense oracle,
# which fills every entry of every matrix and so stays shallow)
SPLIT_SUMS = (
    ((H1, H1), 6, 2),                       # two isomorphic parts
    ((H11, H1), 6, 2),                      # mixed parities
    ((H2, H1), 5, 1),
    ((H1, H1, H1), 7, 1),                   # three parts, one class of 3 pivots
    ((H2, H2), 6, 1),
    ((H11, H11, H1), 5, 1),                 # a two-pivot class beside a one-pivot class
    ((H1, H1, FREE_EVEN, FREE_ODD), 5, 2),  # free generators: the radical R
    # rational constants over L = 36 and a two-pivot class; the dense
    # oracle took seconds at q <= 2, so only full_matrix_ranks checks it
    ((scaled(H11, Fraction(3, 4)), scaled(H11, Fraction(-2, 9)), scaled(H1, Fraction(5, 6))),
     5, -1),
)

# h_{1,2} and h_2 written with the non-square coefficients 2, 3 and -1 on
# their pairs and y_j: no rescaling over Q brings [y_j, y_j] to z
NON_SQUARE_EVEN = LieSuperalgebra("h_{1,2}'", [("z", EVEN), ("x1", EVEN), ("x2", EVEN),
                                               ("y1", ODD), ("y2", ODD)],
                                  {(1, 2): {0: 3}, (3, 3): {0: 2}, (4, 4): {0: -1}})
NON_SQUARE_ODD = LieSuperalgebra("h_2'", [("x1", EVEN), ("x2", EVEN), ("y1", ODD),
                                          ("y2", ODD), ("z", ODD)],
                                 {(0, 2): {4: 2}, (1, 3): {4: -1}})

# h_3 over Q(sqrt 2) as a 6-dimensional Q-algebra: its pencil has the
# eigenvalues +-sqrt 2, so it is indecomposable over Q
SQRT2_H3 = LieSuperalgebra("h3_sqrt2", [(n, EVEN) for n in "xXyYzZ"],
                           {(0, 2): {4: 1}, (0, 3): {5: 1}, (1, 2): {5: 1}, (1, 3): {4: 2}})
# the free two-step nilpotent algebra on 3 even generators: 3 pivots on a
# 3-dimensional K, where every skew form is degenerate
FREE_TWO_STEP = LieSuperalgebra("free3", [(n, EVEN) for n in ("a", "b", "c", "ab", "ac", "bc")],
                                {(0, 1): {3: 1}, (0, 2): {4: 1}, (1, 2): {5: 1}})


def _splits(alg, q_max):
    """Whether the rank engine ranks alg by parts: its adapted table
    passes _split_ranks' gate, given the entry's dimensions, and splits."""
    dims = check_column_cap(alg.name, alg.superdim, q_max)
    return cohomology._split_ranks(adapted_basis(alg), q_max, 5000, dims) is not None


def hidden(name, summands, seed):
    table = _table(summands[0])
    for alg in summands[1:]:
        table = direct_sum(table, _table(alg))
    return LieSuperalgebra(name, *change_basis(random.Random(seed), table))


def kunneth(summands, q_max):
    betti = [1] + [0] * q_max
    for alg in summands:
        h = [r.dim_cohomology for r in betti_table(alg, q_max)]
        betti = [sum(betti[i] * h[q - i] for i in range(q + 1)) for q in range(q_max + 1)]
    return betti


def _type(alg):
    """The part type of a family member: its superdimension less z, and
    z's parity."""
    (n0, n1), z = alg.superdim, alg.parity(alg.index_of("z"))
    return (n0 - (z == EVEN), n1 - (z == ODD), z)


def coefficient_table(rng, digits):
    """(generators, brackets) of a classical Heisenberg algebra of
    dimension 9 in a written basis: x0..x7 and z even, and every
    [x_i, x_j] is c_ij z, c_ij a random fraction with a `digits`-digit
    numerator over a digits/2-digit denominator."""
    gens = [("x%d" % i, EVEN) for i in range(8)] + [("z", EVEN)]
    size = max(digits // 2, 1)
    return gens, {(i, j): {8: Fraction(rng.choice((-1, 1)) * rng.randrange(10 ** (digits - 1), 10 ** digits),
                                       rng.randrange(10 ** (size - 1), 10 ** size))}
                  for i in range(8) for j in range(i + 1, 8)}


def single_target(rng, evens, odds, z, density):
    """(generators, brackets) of a table with one bracket target z of
    parity `z` over `evens` even and `odds` odd other generators, each
    bracket allowed by parity present with probability `density`, with
    coefficients 2, 3 and -1."""
    gens = [("a%d" % i, EVEN) for i in range(evens)] + [("b%d" % i, ODD) for i in range(odds)]
    dim = evens + odds
    brackets = {}
    for i in range(dim):
        for j in range(i, dim):
            if (gens[i][1] + gens[j][1]) % 2 == z and not (i == j and gens[i][1] == EVEN) \
                    and rng.random() < density:
                brackets[(i, j)] = {dim: rng.choice((2, 3, -1))}
    return gens + [("z", z)], brackets


def _found(alg):
    adapted = adapted_basis(alg)
    return directsum.split(adapted, sorted({k for t in adapted.brackets.values() for k in t}))


def _split_cases():
    for k, (summands, q_max, q_dense) in enumerate(SPLIT_SUMS):
        for seed in range(3):
            name = "+".join(a.name for a in summands)
            # the dense oracle once per sum
            yield (hidden(name, summands, 100 * k + seed), summands, q_max,
                   q_dense if seed == 0 else -1)


@pytest.mark.parametrize("case", list(_split_cases()), ids=lambda c: c[0].name)
def test_hidden_sums_split_and_match_the_oracles(case):
    alg, summands, q_max, q_dense = case
    found = _found(alg)
    assert found is not None, alg.name
    types, free = found
    # one part per Heisenberg summand, typed (dim K_s^0, dim K_s^1,
    # parity of its centre z), the free generators in R
    heisenberg = [a for a in summands if a.brackets]
    assert sorted(types) == sorted(_type(a) for a in heisenberg)
    assert free == (sum(a is FREE_EVEN for a in summands), sum(a is FREE_ODD for a in summands))
    assert _splits(alg, q_max)
    table = betti_table(alg, q_max)
    assert [r.dim_cohomology for r in table] == kunneth(summands, q_max)
    if q_dense >= 0:
        assert [r.dim_cohomology for r in table[:q_dense + 1]] \
            == dense_betti_numbers(alg, q_dense)
    # the ranks recovered from the Betti numbers are those of the whole
    # table's differential_matrix, which never splits
    ranks = full_matrix_ranks(alg, min(q_max, 4))
    assert [r.dim_cochain - r.dim_cocycles for r in table[:5]] == \
        [ranks[q] for q in range(min(q_max, 4) + 1)]
    # cohomology_dims takes the same split and gives the same rows
    assert [cohomology_dims(alg, q) for q in range(q_max + 1)] == table


def test_no_split_echelons_the_same_rows_twice(monkeypatch):
    # every echelon form a split takes is of rows it has not reduced
    # before, as a set: a parity class holding every pivot reads its
    # space off the echelon form of all the forms' rows
    # (_min_poly feeds its rows lazily into a basis it reads between
    # rows, so the rows are recorded as they are taken)
    real, taken = directsum._echelon, []

    def recorded(rows, *basis):
        fed = []

        def feed():
            for row in rows:
                fed.append(tuple(sorted((k, x) for k, x in row.items() if x)))
                yield row

        out = real(feed(), *basis)
        taken.append(tuple(sorted(row for row in fed if row)))
        return out

    monkeypatch.setattr(directsum, "_echelon", recorded)
    for alg, _, _, _ in _split_cases():
        taken.clear()
        assert _found(alg) is not None, alg.name
        assert len(set(taken)) == len(taken), alg.name


def test_a_split_table_builds_only_its_own_reports(monkeypatch):
    # the parts are ranked by _ranks alone: betti_table builds one report
    # per degree, each for the whole table, and none for a part
    real, built = reports.CohomologyReport.__new__, []

    def counted(cls, *args, **kwargs):
        report = real(cls, *args, **kwargs)
        built.append(report.algebra_name)
        return report

    monkeypatch.setattr(reports.CohomologyReport, "__new__", counted)
    for k, (summands, q_max, _) in enumerate(SPLIT_SUMS):
        alg = hidden("sum%d" % k, summands, 100 * k)
        assert _splits(alg, q_max)
        built.clear()
        table = betti_table(alg, q_max)
        assert built == [alg.name] * (q_max + 1)
        assert [r.dim_cohomology for r in table] == kunneth(summands, q_max)


def test_no_engine_path_reads_the_fraction_view(monkeypatch):
    # the engine reads each table's ints alone: the Fraction view is read
    # by no computing verb, and every table the engine builds (adapted
    # tables, canonical parts) holds ints
    rational = hidden("rational", SPLIT_SUMS[-1][0], 5)
    sqrt2 = hidden("sqrt2", (SQRT2_H3,), 5)
    texts = [format_algebra(alg) for alg in (rational, sqrt2)]
    view, reads, built, routes = LieSuperalgebra.brackets, [], [], []
    monkeypatch.setattr(LieSuperalgebra, "brackets",
                        property(lambda alg: reads.append(alg) or view.fget(alg)))
    init = LieSuperalgebra.__init__

    def recorded(alg, *args):
        init(alg, *args)
        built.append(alg)

    monkeypatch.setattr(LieSuperalgebra, "__init__", recorded)
    split_ranks = cohomology._split_ranks
    monkeypatch.setattr(cohomology, "_split_ranks",
                        lambda *args: routes.append(split_ranks(*args)) or routes[-1])
    for alg in (make_heisenberg_odd(3), make_heisenberg_even(2, 2)):
        betti_table(alg, 6)
        cohomology_dims(alg, 5)
    verify_family("odd", 2, q_max=5)
    verify_family("even", 2, 2, q_max=4)
    # the rational sum over L = 36 splits; the sqrt 2 table, in ints,
    # takes the whole-table route
    parsed = len(built)
    for text, scale, splits in zip(texts, (36, 1), (True, False)):
        routes.clear()
        alg = parse_algebra(text)
        emit_report(betti_table(alg, 5), "text")
        assert alg._scale == scale and adapted_basis(alg) is not alg
        assert adapted_basis(alg) in built and (routes[0] is not None) == splits, alg.name
    assert reads == []
    # the rational sum's canonical parts, h_{1,1} and h_1, are among them
    assert {"h_{1,1}", "h_1"} <= {alg.name for alg in built[parsed:]}
    for alg in built:
        assert all(type(c) is int for row in alg._table.values() for c in row.values())
        assert all(type(c) is int for rows in alg._ad.values()
                   for row in rows.values() for c in row.values())


def test_rational_roots_lists_each_divisor_set_once(monkeypatch):
    # end coefficients 735134400 = 2^6 3^3 5^2 7 11 13 17, 1,344 divisors
    # each, under _ROOT_SEARCH_BOUND: the numerators' divisors are listed
    # once for the whole search, not once per denominator, so a search
    # lists divisors twice, counted on the calls, not timed
    a = 735134400
    assert a <= directsum._ROOT_SEARCH_BOUND and len(directsum._divisors(a)) == 1344
    real, listed = directsum._divisors, []
    monkeypatch.setattr(directsum, "_divisors", lambda m: listed.append(m) or real(m))
    # known roots: those of the CI table's pencil, (17017 t - 43200)
    # (43200 t - 17017); (2t + 3)(t - 5); t^2 (3t - 2); t^2 + 1 has none
    assert sorted(directsum._rational_roots([a, -(17017 ** 2 + 43200 ** 2), a])) == \
        [(17017, 43200), (43200, 17017)]
    assert listed == [a, a]
    assert sorted(directsum._rational_roots([-15, -7, 2])) == [(-3, 2), (5, 1)]
    assert sorted(directsum._rational_roots([0, 0, 2, -3])) == [(0, 1), (2, 3)]
    assert directsum._rational_roots([1, 0, 1]) == []
    assert directsum._rational_roots([directsum._ROOT_SEARCH_BOUND + 1, 0, 1]) is None
    listed.clear()
    roots = directsum._rational_roots([a, -(a * a + 1), a])  # (a t - 1)(t - a)
    assert listed == [a, a]
    assert sorted(roots) == [(1, a), (a, 1)]


def _apply(rows, v):
    """N v for the integer matrix N given by its rows, as a dense list."""
    return [sum(x * v[j] for j, x in row.items()) for row in rows]


def _min_poly_cases():
    """(name, rows of N, start, the degree when known) on w = 0..6:
    random N and starts, N = 0, strictly upper triangular (nilpotent) N,
    diagonal N with repeated entries, starts inside one eigenspace, and
    starts with N start = 0 (every start of N = 0, e_0 of a nilpotent N)."""
    rng = random.Random(55)
    cases = [("w=0", [], {}, 0)]
    for w in range(1, 7):
        values = [rng.choice((-1, 2)) for _ in range(w)]
        dense = {"random": [[rng.randint(-3, 3) for _ in range(w)] for _ in range(w)],
                 "zero": [[0] * w for _ in range(w)],
                 "nilpotent": [[rng.randint(-2, 2) if j > i else 0 for j in range(w)]
                               for i in range(w)],
                 "diagonal": [[values[i] if i == j else 0 for j in range(w)] for i in range(w)]}
        for kind, matrix in dense.items():
            rows = [{j: x for j, x in enumerate(row) if x} for row in matrix]
            unit = 1 if kind in ("zero", "diagonal") else None
            dense_start = {j: rng.randint(-2, 2) or 1 for j in range(w)}
            starts = [(dense_start, 1 if kind == "zero" else None),
                      ({0: 1}, 1 if kind == "nilpotent" else unit), ({w - 1: 1}, unit)]
            if kind == "diagonal":
                # inside the eigenspace of values[0]
                starts.append(({j: j + 1 for j in range(w) if values[j] == values[0]}, 1))
            for start, degree in starts:
                cases.append(("%s w=%d %r" % (kind, w, start), rows, start, degree))
    return cases


def test_min_poly_is_the_least_dependence_of_the_krylov_vectors():
    # c_0..c_d with sum c_i N^i start = 0 in integers and c_d != 0, and
    # no lower dependence: the first d Krylov vectors have rank d
    top = 0
    for name, rows, start, degree in _min_poly_cases():
        w = len(rows)
        krylov = [[start.get(j, 0) for j in range(w)]]
        for _ in range(w):
            krylov.append(_apply(rows, krylov[-1]))
        poly = directsum._min_poly(rows, w, start)
        d = len(poly) - 1
        assert poly[d] != 0 and all(type(c) is int for c in poly), name
        assert [sum(c * v[j] for c, v in zip(poly, krylov)) for j in range(w)] == [0] * w, name
        entries = {(j, i): v[j] for i, v in enumerate(krylov[:d]) for j in range(w)}
        assert dense_rank_fractions(w, d, entries) == d, name
        assert degree is None or d == degree, name
        top = max(top, d)
    assert top == 6


def test_min_poly_stops_at_the_first_dependence(monkeypatch):
    # the Krylov vectors stop at the first dependence: a minimal
    # polynomial of degree d costs d products N u, w dot products each,
    # whatever w is.  N = diag(1, 2, ..., 1, 2) on w = 40 from the
    # all-ones start has degree 2
    real, dots = directsum._dot, []

    def dot(u, v):
        dots.append(1)
        return real(u, v)

    monkeypatch.setattr(directsum, "_dot", dot)
    w = 40
    rows = [{i: 1 + i % 2} for i in range(w)]
    assert directsum._min_poly(rows, w, dict.fromkeys(range(w), 1)) == [2, -3, 1]
    assert len(dots) == 2 * w


def test_kernel_reads_an_integer_basis_off_the_echelon_rows():
    # every vector is annihilated by every row, the vectors have rank
    # n - rank, and each has content 1 and is zero at every other free
    # column, in the order of the free columns
    rng = random.Random(55)
    for trial in range(60):
        n = rng.randint(0, 7)
        rows = [{j: rng.randint(-3, 3) for j in range(n) if rng.random() < 0.5}
                for _ in range(rng.randint(0, n + 1))]
        basis = _echelon(rows)
        free = [f for f in range(n) if f not in basis]
        vectors = directsum._kernel(basis, n)
        rk = dense_rank_fractions(len(rows), n, {(i, j): x for i, row in enumerate(rows)
                                                 for j, x in row.items()})
        assert len(vectors) == len(free) == n - rk, trial
        assert all(sum(x * v.get(j, 0) for j, x in row.items()) == 0
                   for row in rows for v in vectors), trial
        assert dense_rank_fractions(n, len(vectors), {(j, i): x for i, v in enumerate(vectors)
                                                      for j, x in v.items()}) == n - rk, trial
        for f, v in zip(free, vectors):
            assert gcd(*v.values()) == 1 and all(v.values()), trial
            assert [g for g in free if g in v] == [f], trial


def test_a_pencil_whose_lines_fail_is_passed_over(monkeypatch):
    # h_1 + h_1 + h_1: one class of three odd pivots, whose centre lines
    # come from T's eigenspaces (_eigen_lines).  A pencil whose
    # eigenspace brackets to 0 gives no lines, and the next is tried;
    # lines that are not independent rule the split out, and the table
    # takes the whole-table route, with the same answers
    alg = hidden("h_1+h_1+h_1", (H1, H1, H1), 3)
    want, table = _found(alg), betti_table(alg, 5)
    assert want is not None
    real, calls = directsum._eigen_lines, []

    def first_fails(*args):
        calls.append(args)
        return None if len(calls) == 1 else real(*args)

    monkeypatch.setattr(directsum, "_eigen_lines", first_fails)
    assert _found(alg) == want and len(calls) >= 2

    def one_line(*args):
        lines = real(*args)
        return [lines[0]] * len(lines)

    monkeypatch.setattr(directsum, "_eigen_lines", one_line)
    assert _found(alg) is None
    assert betti_table(alg, 5) == table


def test_a_root_with_no_eigenspace_gives_no_line():
    # B pairs coordinate 0 with coordinate 1, onto the pivot 7, and
    # T = 1 on W = both coordinates
    forms, identity = {7: {0: {1: 1}, 1: {0: 1}}}, [{0: 1}, {1: 1}]
    assert directsum._centre_line(forms, [7], [{0: 1}, {1: 1}]) == {0: 1}
    # x_0 brackets to 0 with itself
    assert directsum._centre_line(forms, [7], [{0: 1}]) is None
    assert directsum._eigen_lines(forms, [7], [0, 1], identity, 1, [(1, 1)]) == [{0: 1}]
    # 2 is no eigenvalue of T: its eigenspace is 0 and brackets onto no line
    assert directsum._eigen_lines(forms, [7], [0, 1], identity, 1, [(1, 1), (2, 1)]) is None


@pytest.mark.parametrize("alg, betti", (
    (SQRT2_H3, [1, 4, 8, 10, 8, 4, 1]),
    (LieSuperalgebra("hidden_h3_sqrt2", *change_basis(random.Random(5), _table(SQRT2_H3))),
     [1, 4, 8, 10, 8, 4, 1]),
    (FREE_TWO_STEP, [1, 3, 8, 12, 8, 3, 1]),
    (LieSuperalgebra("hidden_free3", *change_basis(random.Random(6), _table(FREE_TWO_STEP))),
     [1, 3, 8, 12, 8, 3, 1])), ids=lambda a: getattr(a, "name", ""))
def test_indecomposable_tables_report_no_split(alg, betti, monkeypatch):
    adapted = adapted_basis(alg)
    targets = {k for t in adapted.brackets.values() for k in t}
    # both pass the gate: two-step, with at least two pivots
    assert len(targets) >= 2 and not any(i in targets or j in targets
                                         for i, j in adapted.brackets)
    assert _found(alg) is None
    table = betti_table(alg, 6)
    assert [r.dim_cohomology for r in table] == betti
    assert betti[:4] == dense_betti_numbers(alg, 3)
    # the answer is the whole-table route's
    monkeypatch.setattr(cohomology, "_split_ranks", lambda *args: None)
    assert betti_table(alg, 6) == table


def _non_square_cases():
    for name, table in (("even", _table(NON_SQUARE_EVEN)), ("odd", _table(NON_SQUARE_ODD)),
                        ("even+odd", direct_sum(_table(NON_SQUARE_EVEN), _table(NON_SQUARE_ODD)))):
        yield LieSuperalgebra(name, *table)
        yield LieSuperalgebra("hidden " + name, *change_basis(random.Random(37), table))


@pytest.mark.parametrize("alg", list(_non_square_cases()), ids=lambda a: a.name)
def test_non_square_coefficients_are_ranked_as_their_types(alg):
    # one bracket target or two, written plainly or hidden: each part's
    # form is not the canonical one over Q, and the table is ranked by
    # the canonical table of its type, h_{1,2} or h_2
    assert _splits(alg, 4)
    table = betti_table(alg, 4)
    assert [r.dim_cohomology for r in table[:3]] == dense_betti_numbers(alg, 2)
    ranks = full_matrix_ranks(alg, 4)
    assert [r.dim_cochain - r.dim_cocycles for r in table] == [ranks[q] for q in range(5)]
    assert [cohomology_dims(alg, q) for q in range(5)] == table


def test_a_table_of_large_coefficients_is_ranked_as_its_type():
    # x0..x7 and z, with 50-digit coefficients: one nondegenerate skew
    # form, so the classical Heisenberg algebra of dimension 9, whose
    # b_q = C(8, q) - C(8, q - 2) below the middle degree
    alg = LieSuperalgebra("coefficients", *coefficient_table(random.Random(50), 50))
    assert _splits(alg, 4)
    assert [r.dim_cohomology for r in betti_table(alg, 4)] == \
        [comb(8, q) - (comb(8, q - 2) if q >= 2 else 0) for q in range(5)]


def test_the_random_two_step_pool_matches_the_oracle(monkeypatch):
    # random two-step tables, hidden, summed pairwise and with an h_1,
    # and hidden single-target tables whose coefficients differ:
    # whichever route each takes, the dense oracle agrees in degrees up
    # to 2, and the whole table's differential_matrix up to 4
    real, types = directsum.split, set()

    def split_typed(*args):
        found = real(*args)
        types.update(found[0] if found else ())
        return found

    monkeypatch.setattr(directsum, "split", split_typed)
    rng = random.Random(28)
    routes = {"split": 0, "whole": 0}
    pool = []
    for k in range(8):
        a = LieSuperalgebra("a", *random_two_step(rng, rng.randint(3, 4), 0.7))
        b = LieSuperalgebra("b", *random_two_step(rng, rng.randint(2, 3), 0.7))
        pool += [hidden("a%d" % k, [a], rng.random()), hidden("ab%d" % k, [a, b], rng.random()),
                 hidden("ah%d" % k, [a, H1], rng.random())]
    # (evens, odds, parity of z): K without odd or without even
    # generators under an even z, and odd centres
    for k, (evens, odds, z) in enumerate(((0, 3, EVEN), (0, 4, EVEN), (4, 0, EVEN), (3, 0, EVEN),
                                          (2, 2, EVEN), (2, 2, ODD), (2, 3, ODD))):
        one = LieSuperalgebra("one", *single_target(rng, evens, odds, z, 0.8))
        pool.append(hidden("one%d" % k, [one], rng.random()))
    for alg in pool:
        split = _splits(alg, 4)
        routes["split" if split else "whole"] += 1
        table = betti_table(alg, 4)
        assert [r.dim_cohomology for r in table[:3]] == dense_betti_numbers(alg, 2), alg.name
        ranks = full_matrix_ranks(alg, 4)
        assert [r.dim_cochain - r.dim_cocycles for r in table] == \
            [ranks[q] for q in range(5)], alg.name
    # both routes are taken, and the canonical tables h_{0,m} and h_{n,0}
    # are ranked
    assert routes["split"] >= 2 and routes["whole"] >= 2, routes
    assert any(even == 0 and odd and z == EVEN for even, odd, z in types), types
    assert any(even and odd == 0 and z == EVEN for even, odd, z in types), types


def _corruptions():
    """Ways to spoil a found split, each (check, given) -> verdict:
    `given` holds _checked's arguments by name, and check(**changes) is
    _checked on them with `changes` put in.  The table is h_{1,1} + h_1,
    so K_0 has two even vectors and an odd one, and R is empty."""
    def moved(check, given):
        spaces = given["spaces"]
        return check(spaces=[spaces[0][1:], spaces[1] + spaces[0][:1]] + spaces[2:])

    def mixed(check, given):
        spaces = given["spaces"]
        x, y = spaces[0][0], spaces[1][0]
        out = dict(y)
        for i, v in x.items():
            out[i] = out.get(i, 0) + v
        return check(spaces=[spaces[0], [out] + spaces[1][1:]] + spaces[2:])

    def dropped(check, given):
        spaces = given["spaces"]
        return check(spaces=[spaces[0][1:]] + spaces[1:])

    def doubled(check, given):
        spaces = given["spaces"]
        return check(spaces=[spaces[0] + spaces[0][:1]] + spaces[1:])

    def dependent(check, given):
        # still n vectors, each of one parity, but the odd vector of K_0
        # becomes the sum of its two even ones: the brackets and the
        # centres are still those of a split, so only the basis
        # condition fails
        space = list(given["spaces"][0])
        parity = given["parity"]
        kinds = [parity[min(x)] for x in space]
        a, b = [i for i, kind in enumerate(kinds) if kind == EVEN]
        out = dict(space[a])
        for i, v in space[b].items():
            out[i] = out.get(i, 0) + v
        space[kinds.index(ODD)] = {i: v for i, v in out.items() if v}
        return check(spaces=[space] + given["spaces"][1:])

    def mixed_parity(check, given):
        # an even vector of K_0 plus its odd one: a vector of two parities
        space, parity = list(given["spaces"][0]), given["parity"]
        kinds = [parity[min(x)] for x in space]
        even, odd = space[kinds.index(EVEN)], space[kinds.index(ODD)]
        space[kinds.index(EVEN)] = {**even, **odd}
        return check(spaces=[space] + given["spaces"][1:])

    def not_central(check, given):
        # a vector of K_0 moved into R: the same basis, but R brackets
        spaces = given["spaces"]
        return check(radical=given["radical"] + spaces[0][:1],
                     spaces=[spaces[0][1:]] + spaces[1:])

    def empty_centre(check, given):
        # one part more, with no vectors: its centre [K_s, K_s] is 0
        return check(spaces=given["spaces"] + [[]])

    def mixed_centre(check, given):
        # the odd pivot's form gains the even one's: the centre of the
        # part that brackets onto the even pivot has both parities
        forms, kinds = given["forms"], dict(zip(given["forms"], given["pivot_parity"]))
        even, odd = sorted(forms, key=kinds.get)
        both = directsum._combine(forms, {even: 1, odd: 1})
        return check(forms={**forms, odd: both})

    def short_centres(check, given):
        # a pivot that no bracket reaches: the centres do not span P
        forms = given["forms"]
        return check(forms={**forms, max(forms) + 1: {}},
                     pivot_parity=given["pivot_parity"] + [EVEN])

    def swapped(check, given):
        # the true split, each part under the other's centre: h_{1,1}'s K,
        # of dimensions (2, 1), under an odd centre, and h_1's, (1, 1),
        # under an even one
        return check()[::-1]

    return [moved, mixed, dropped, doubled, dependent, mixed_parity, not_central,
            empty_centre, mixed_centre, short_centres, swapped]


@pytest.mark.parametrize("corrupt", _corruptions(), ids=lambda f: f.__name__)
def test_a_wrong_split_is_rejected_by_the_check(corrupt, monkeypatch):
    alg = hidden("h_{1,1}+h_1", (H11, H1), 7)
    want = betti_table(alg, 5)
    real = directsum._checked
    verdicts = []

    def spoiled(forms, parity, radical, spaces, pivot_parity):
        given = dict(forms=forms, parity=parity, radical=radical, spaces=spaces,
                     pivot_parity=pivot_parity)
        verdicts.append(corrupt(lambda **changes: real(**{**given, **changes}), given))
        return verdicts[-1]

    monkeypatch.setattr(directsum, "_checked", spoiled)
    # spoiled spaces fail the check; swapped centres pass it, and split
    # refuses their types
    assert _found(alg) is None and (verdicts == [None]) != (corrupt.__name__ == "swapped")
    # the table takes the whole-table route, with the same answers
    assert betti_table(alg, 5) == want
    assert [cohomology_dims(alg, q) for q in range(6)] == want
