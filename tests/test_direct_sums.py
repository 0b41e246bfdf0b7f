"""Direct sums: a two-step table split into ideals, ranked by parts.

The inputs are hidden-basis sums built by test_validate's direct_sum
and unimodular change_basis, which share no code with the search; the
references are oracles.dense_betti_numbers (dense Fraction ranks filled
entry by entry) and the Kunneth product of the summands' Betti numbers,
each summand ranked on its own family route.
"""

import random

import pytest

from heisenberg_cohomology import cohomology, directsum
from heisenberg_cohomology.algebra import (EVEN, ODD, LieSuperalgebra,
                                           adapted_basis, make_heisenberg_even,
                                           make_heisenberg_odd)
from heisenberg_cohomology.cohomology import betti_table, check_column_cap, cohomology_dims

from oracles import dense_betti_numbers, full_matrix_ranks
from test_validate import _table, change_basis, direct_sum, random_two_step

H1, H2, H11 = make_heisenberg_odd(1), make_heisenberg_odd(2), make_heisenberg_even(1, 1)
FREE_EVEN = LieSuperalgebra("u", [("u", EVEN)], {})
FREE_ODD = LieSuperalgebra("v", [("v", ODD)], {})

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
)

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
    parts, free = found
    # one part per Heisenberg summand, the free generators in R
    heisenberg = [a for a in summands if a.brackets]
    assert sorted(p.superdim for p in parts) == sorted(a.superdim for a in heisenberg)
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


def test_the_random_two_step_pool_matches_the_oracle():
    # random two-step tables, hidden, summed pairwise and with an h_1:
    # whichever route each takes, the dense oracle agrees in degrees up
    # to 2, and the whole table's differential_matrix up to 4
    rng = random.Random(28)
    routes = {"split": 0, "whole": 0}
    for k in range(8):
        a = LieSuperalgebra("a", *random_two_step(rng, rng.randint(3, 4), 0.7))
        b = LieSuperalgebra("b", *random_two_step(rng, rng.randint(2, 3), 0.7))
        for alg in (hidden("a%d" % k, [a], rng.random()),
                    hidden("ab%d" % k, [a, b], rng.random()),
                    hidden("ah%d" % k, [a, H1], rng.random())):
            split = _splits(alg, 4)
            routes["split" if split else "whole"] += 1
            table = betti_table(alg, 4)
            assert [r.dim_cohomology for r in table[:3]] == dense_betti_numbers(alg, 2), alg.name
            ranks = full_matrix_ranks(alg, 4)
            assert [r.dim_cochain - r.dim_cocycles for r in table] == \
                [ranks[q] for q in range(5)], alg.name
    # both routes are taken
    assert routes["split"] >= 2 and routes["whole"] >= 2, routes


def _corruptions():
    """Ways to spoil a found split, each (name, spaces -> spaces)."""
    def moved(spaces):
        return [spaces[0][1:], spaces[1] + spaces[0][:1]] + spaces[2:]

    def mixed(spaces):
        x, y = spaces[0][0], spaces[1][0]
        out = dict(y)
        for i, v in x.items():
            out[i] = out.get(i, 0) + v
        return [spaces[0], [out] + spaces[1][1:]] + spaces[2:]

    def dropped(spaces):
        return [spaces[0][1:]] + spaces[1:]

    def doubled(spaces):
        return [spaces[0] + spaces[0][:1]] + spaces[1:]

    return [moved, mixed, dropped, doubled]


@pytest.mark.parametrize("corrupt", _corruptions(), ids=lambda f: f.__name__)
def test_a_wrong_split_is_rejected_by_the_check(corrupt, monkeypatch):
    alg = hidden("h_{1,1}+h_1", (H11, H1), 7)
    want = betti_table(alg, 5)
    real = directsum._checked
    verdicts = []

    def spoiled(forms, parity, radical, spaces, pivot_parity):
        verdicts.append(real(forms, parity, radical, corrupt(spaces), pivot_parity))
        return verdicts[-1]

    monkeypatch.setattr(directsum, "_checked", spoiled)
    assert _found(alg) is None and verdicts == [None]
    # the table takes the whole-table route, with the same answers
    assert betti_table(alg, 5) == want
    assert [cohomology_dims(alg, q) for q in range(6)] == want
