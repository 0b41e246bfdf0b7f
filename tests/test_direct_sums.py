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
import time
from fractions import Fraction
from math import comb

import pytest

from heisenberg_cohomology import cohomology, directsum, reports
from heisenberg_cohomology.algebra import (EVEN, ODD, LieSuperalgebra,
                                           adapted_basis, make_heisenberg_even,
                                           make_heisenberg_odd)
from heisenberg_cohomology.cohomology import betti_table, check_column_cap, cohomology_dims
from heisenberg_cohomology.fileformats import format_algebra, parse_algebra
from heisenberg_cohomology.reports import emit_report
from heisenberg_cohomology.verify import verify_family

from oracles import dense_betti_numbers, full_matrix_ranks
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
    real, taken = directsum._echelon, []

    def recorded(rows):
        rows = list(rows)
        taken.append(tuple(sorted(tuple(sorted((k, x) for k, x in row.items() if x))
                                  for row in rows if any(row.values()))))
        return real(rows)

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


def test_rational_roots_lists_each_divisor_set_once():
    # end coefficients 735134400 = 2^6 3^3 5^2 7 11 13 17, 1,344 divisors
    # each, under _ROOT_SEARCH_BOUND: the numerators' divisors are listed
    # once for the whole search, not once per denominator
    a = 735134400
    assert a <= directsum._ROOT_SEARCH_BOUND and len(directsum._divisors(a)) == 1344
    start = time.perf_counter()
    roots = directsum._rational_roots([a, -(a * a + 1), a])  # (a t - 1)(t - a)
    assert time.perf_counter() - start < 1
    assert sorted(roots) == [(1, a), (a, 1)]
    # known roots: those of the CI table's pencil, (17017 t - 43200)
    # (43200 t - 17017); (2t + 3)(t - 5); t^2 (3t - 2); t^2 + 1 has none
    assert sorted(directsum._rational_roots([a, -(17017 ** 2 + 43200 ** 2), a])) == \
        [(17017, 43200), (43200, 17017)]
    assert sorted(directsum._rational_roots([-15, -7, 2])) == [(-3, 2), (5, 1)]
    assert sorted(directsum._rational_roots([0, 0, 2, -3])) == [(0, 1), (2, 3)]
    assert directsum._rational_roots([1, 0, 1]) == []
    assert directsum._rational_roots([directsum._ROOT_SEARCH_BOUND + 1, 0, 1]) is None


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
    """Ways to spoil a found split, each (check, spaces, parity) ->
    verdict: check is _checked on the spaces it is given, and parity
    that of each coordinate of K."""
    def moved(check, spaces, parity):
        return check([spaces[0][1:], spaces[1] + spaces[0][:1]] + spaces[2:])

    def mixed(check, spaces, parity):
        x, y = spaces[0][0], spaces[1][0]
        out = dict(y)
        for i, v in x.items():
            out[i] = out.get(i, 0) + v
        return check([spaces[0], [out] + spaces[1][1:]] + spaces[2:])

    def dropped(check, spaces, parity):
        return check([spaces[0][1:]] + spaces[1:])

    def doubled(check, spaces, parity):
        return check([spaces[0] + spaces[0][:1]] + spaces[1:])

    def dependent(check, spaces, parity):
        # still n vectors, each of one parity, but one vector of a K_s
        # becomes the sum of two others of one parity: the brackets and
        # the centres are still those of a split, so only the basis
        # condition fails.  h_{1,1}'s K has two even vectors and an odd
        # one, which becomes their sum
        space = spaces[0]
        kinds = [parity[min(x)] for x in space]
        a, b = [i for i, kind in enumerate(kinds) if kind == EVEN]
        out = dict(space[a])
        for i, v in space[b].items():
            out[i] = out.get(i, 0) + v
        space = list(space)
        space[kinds.index(ODD)] = {i: v for i, v in out.items() if v}
        return check([space] + spaces[1:])

    def swapped(check, spaces, parity):
        # the true split, each part under the other's centre: h_{1,1}'s K,
        # of dimensions (2, 1), under an odd centre, and h_1's, (1, 1),
        # under an even one
        return check(spaces)[::-1]

    return [moved, mixed, dropped, doubled, dependent, swapped]


@pytest.mark.parametrize("corrupt", _corruptions(), ids=lambda f: f.__name__)
def test_a_wrong_split_is_rejected_by_the_check(corrupt, monkeypatch):
    alg = hidden("h_{1,1}+h_1", (H11, H1), 7)
    want = betti_table(alg, 5)
    real = directsum._checked
    verdicts = []

    def spoiled(forms, parity, radical, spaces, pivot_parity):
        verdicts.append(corrupt(lambda s: real(forms, parity, radical, s, pivot_parity),
                                spaces, parity))
        return verdicts[-1]

    monkeypatch.setattr(directsum, "_checked", spoiled)
    # spoiled spaces fail the check; swapped centres pass it, and split
    # refuses their types
    assert _found(alg) is None and (verdicts == [None]) != (corrupt.__name__ == "swapped")
    # the table takes the whole-table route, with the same answers
    assert betti_table(alg, 5) == want
    assert [cohomology_dims(alg, q) for q in range(6)] == want
