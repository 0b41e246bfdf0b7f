"""The basis adapted to [g, g] changes no Betti number and no rank.

The inputs are hidden-basis tables built by the unimodular change_basis
and direct_sum of test_validate, which share no code with adapted_basis;
the references are the closed forms (through Kunneth), the ranks in the
input's own basis, and dense eliminations.
"""

import random
from fractions import Fraction

import pytest

from heisenberg_cohomology import algebra
from heisenberg_cohomology.algebra import (EVEN, ODD, LieSuperalgebra,
                                           _adapted_brackets, adapted_basis,
                                           make_heisenberg_even,
                                           make_heisenberg_odd, validate)
from heisenberg_cohomology.cohomology import betti_table, cohomology_dims
from heisenberg_cohomology.elements import SuperSpaceDims, differential_matrix
from heisenberg_cohomology.fileformats import format_algebra, parse_algebra
from heisenberg_cohomology.formulas import dim_h_even, dim_h_odd_proof
from heisenberg_cohomology.limits import graded_dim
from heisenberg_cohomology.linalg import rank

from oracles import adapted_brackets_fractions, dense_rank_bareiss, matmul
from test_validate import (OSP12, SL2, _table, change_basis, direct_sum,
                           random_graded_table, random_table, random_two_step)

# (table, closed-form Betti number in degree q)
FACTORS = {
    "h_1": (_table(make_heisenberg_odd(1)), lambda q: dim_h_odd_proof(1, q)),
    "h_2": (_table(make_heisenberg_odd(2)), lambda q: dim_h_odd_proof(2, q)),
    "h_{1,1}": (_table(make_heisenberg_even(1, 1)), lambda q: dim_h_even(1, 1, q)),
    "h_{1,2}": (_table(make_heisenberg_even(1, 2)), lambda q: dim_h_even(1, 2, q)),
}
Q_MAX = 4


def _hidden_sums():
    rng = random.Random(20137)
    names = sorted(FACTORS)
    out = []
    for i, a in enumerate(names):
        for b in names[i:]:
            table = change_basis(rng, direct_sum(FACTORS[a][0], FACTORS[b][0]))
            out.append((a, b, LieSuperalgebra("%s+%s" % (a, b), *table)))
    return out


HIDDEN_SUMS = _hidden_sums()


def _hidden_two_step(count, seed):
    rng = random.Random(seed)
    return [LieSuperalgebra("twostep%d" % k,
                            *change_basis(rng, random_two_step(rng, rng.randint(3, 7), 0.6)))
            for k in range(count)]


def _hidden_with_simple_part(count, seed):
    # [g, g] is not central here, so pivot generators have brackets too
    rng = random.Random(seed)
    summands = [SL2, OSP12, FACTORS["h_1"][0], FACTORS["h_{1,1}"][0]]
    return [LieSuperalgebra("simple%d" % k, *change_basis(rng, direct_sum(
        rng.choice((SL2, OSP12)), rng.choice(summands)))) for k in range(count)]


def test_hidden_sums_match_kunneth_of_the_closed_forms():
    for a, b, alg in HIDDEN_SUMS:
        assert adapted_basis(alg) is not alg, alg.name
        ha, hb = FACTORS[a][1], FACTORS[b][1]
        kunneth = [sum(ha(i) * hb(q - i) for i in range(q + 1)) for q in range(Q_MAX + 1)]
        table = betti_table(alg, Q_MAX)
        assert [r.dim_cohomology for r in table] == kunneth, alg.name
        assert [cohomology_dims(alg, q) for q in range(Q_MAX + 1)] == table, alg.name


def test_ranks_equal_in_the_adapted_basis():
    # a change of basis conjugates every d_q, Jacobi identity or not, so
    # hidden graded tables that fail Jacobi are inputs here too
    rng = random.Random(7)
    graded = [LieSuperalgebra("graded%d" % k, *change_basis(
        rng, random_graded_table(rng, rng.randint(2, 6), 0.5))) for k in range(20)]
    changed = 0
    for alg in ([s for _, _, s in HIDDEN_SUMS] + _hidden_two_step(12, 11)
                + _hidden_with_simple_part(8, 17) + graded):
        adapted = adapted_basis(alg)
        changed += adapted is not alg
        assert adapted.name == alg.name and adapted.generators == alg.generators
        for q in range(Q_MAX):
            assert rank(differential_matrix(alg, q).matrix) == \
                rank(differential_matrix(adapted, q).matrix), (alg.name, q)
    assert changed >= 30


def _dense_rref_basis(alg):
    """Columns {old index: coefficient} of the new generators: the rows of
    a dense RREF of the bracket images at their pivots, parity by parity."""
    basis = [{a: Fraction(1)} for a in range(alg.dim)]
    for parity in (EVEN, ODD):
        idx = [k for k in range(alg.dim) if alg.parity(k) == parity]
        mat = [[Fraction(t.get(k, 0)) for k in idx] for t in alg.brackets.values()]
        pivots = []
        for c in range(len(idx)):
            r = len(pivots)
            piv = next((i for i in range(r, len(mat)) if mat[i][c]), None)
            if piv is None:
                continue
            mat[r], mat[piv] = mat[piv], mat[r]
            mat[r] = [x / mat[r][c] for x in mat[r]]
            for i in range(len(mat)):
                if i != r and mat[i][c]:
                    f = mat[i][c]
                    mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
            pivots.append(c)
        for r, c in enumerate(pivots):
            basis[idx[c]] = {idx[j]: x for j, x in enumerate(mat[r]) if x}
    return basis


def _apply(basis, coords):
    out = {}
    for k, c in coords.items():
        for i, x in basis[k].items():
            out[i] = out.get(i, 0) + c * x
    return {i: v for i, v in out.items() if v}


def _scaled(alg, factor):
    """alg with every structure constant times factor."""
    return LieSuperalgebra(alg.name, alg.generators,
                           {pair: {k: c * factor for k, c in targets.items()}
                            for pair, targets in alg.brackets.items()})


def _in_order(brackets):
    """The table as nested item lists, each value with its type, so that
    == compares pair order, target order, values and types."""
    return None if brackets is None else [
        (pair, [(k, c, type(c)) for k, c in targets.items()])
        for pair, targets in brackets.items()]


def _same_rewrite(alg):
    """_adapted_brackets(alg), checked against the Fraction rewrite."""
    got = _adapted_brackets(alg)
    assert _in_order(got) == _in_order(adapted_brackets_fractions(alg)), alg.name
    return got


def test_adapted_basis_is_the_rref_change_of_basis():
    # B [b_a, b_b]_new == [B b_a, B b_b]_old on every pair, B from a dense
    # RREF; the table equals the Fraction rewrite's, key order included
    rng = random.Random(23)
    graded = [LieSuperalgebra("graded%d" % k, *change_basis(
        rng, random_graded_table(rng, rng.randint(2, 6), 0.5))) for k in range(20)]
    # constants over 3, which no binary float holds exactly
    thirds = [_scaled(s, Fraction(1, 3)) for _, _, s in HIDDEN_SUMS]
    for alg in ([s for _, _, s in HIDDEN_SUMS] + _hidden_two_step(12, 29)
                + _hidden_with_simple_part(8, 31) + graded + thirds):
        rewritten = _same_rewrite(alg)
        basis = _dense_rref_basis(alg)
        adapted = adapted_basis(alg)
        if all(len(col) == 1 for col in basis):
            assert adapted is alg and rewritten is None, alg.name
            continue
        assert all(type(c) is Fraction for targets in rewritten.values()
                   for c in targets.values()), alg.name
        for a in range(alg.dim):
            for b in range(a, alg.dim):
                old = {}
                for i, x in basis[a].items():
                    for j, y in basis[b].items():
                        for k, c in alg.bracket(i, j).items():
                            old[k] = old.get(k, 0) + x * y * c
                old = {k: v for k, v in old.items() if v}
                assert _apply(basis, adapted.bracket(a, b)) == old, (alg.name, a, b)


def test_integer_rewrite_equals_the_fraction_rewrite_hypothesis():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    summands = [SL2, OSP12] + [table for table, _ in FACTORS.values()]

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(st.integers(0, 2 ** 32), st.sampled_from(("two-step", "sum")),
                      st.integers(2, 7), st.sampled_from((0.3, 0.6, 0.9)))
    def check(seed, kind, dim, density):
        rng = random.Random(seed)
        if kind == "two-step":
            table = random_two_step(rng, dim, density)
        else:
            table = direct_sum(rng.choice(summands), rng.choice(summands))
        _same_rewrite(LieSuperalgebra("h", *change_basis(rng, table)))

    check()


def test_adapted_basis_of_a_valid_algebra_is_valid():
    for alg in ([s for _, _, s in HIDDEN_SUMS] + _hidden_two_step(12, 13)
                + _hidden_with_simple_part(8, 19)):
        assert validate(alg) == [], alg.name
        assert validate(adapted_basis(alg)) == [], alg.name


def test_adapted_basis_is_valid_exactly_when_the_input_is():
    # betti_table validates the adapted table in place of the input
    rng = random.Random(20139)
    kinds = {"valid": 0, "invalid": 0, "rewritten": 0}
    for k in range(150):
        table = random_table(rng, rng.randint(1, 7), rng.choice((0.2, 0.4, 0.7)))
        for alg in (LieSuperalgebra("random%d" % k, *table),
                    LieSuperalgebra("hidden%d" % k, *change_basis(rng, table))):
            adapted = adapted_basis(alg)
            valid = validate(alg) == []
            assert (validate(adapted) == []) == valid, alg.name
            kinds["valid" if valid else "invalid"] += 1
            kinds["rewritten"] += adapted is not alg
    # skew, parity and Jacobi faults, and rewrites, all occur
    assert min(kinds.values()) >= 20, kinds


def test_identity_case_returns_the_algebra_itself():
    families = [make_heisenberg_odd(n) for n in range(1, 6)]
    families += [make_heisenberg_even(n, m) for n in range(1, 5) for m in range(1, 5)]
    families += [make_heisenberg_even(40, 2), make_heisenberg_even(12, 20)]
    for alg in families:
        assert adapted_basis(alg) is alg, alg.name


def test_no_family_member_runs_the_echelon(monkeypatch):
    # every bracket of h_n and h_{n,m} has one target, in any generator
    # order, so the adapted basis is the identity without an elimination
    from test_symmetric_blocks import shuffled

    def refused(rows):
        raise AssertionError("_echelon ran")

    monkeypatch.setattr(algebra, "_echelon", refused)
    families = [make_heisenberg_odd(n) for n in range(1, 7)]
    families += [make_heisenberg_even(n, m) for n in range(1, 5) for m in range(1, 5)]
    families += [shuffled(alg, seed) for alg in families[2:5] + families[-4:]
                 for seed in range(3)]
    for alg in families:
        assert adapted_basis(alg) is alg, alg.name


def test_single_target_tables_keep_their_basis():
    # random tables, valid or not, whose every bracket has one target of
    # either parity: no echelon, and the Fraction rewrite agrees
    rng = random.Random(20132)
    parities = set()
    for k in range(200):
        gens = [("g%d" % i, rng.choice((EVEN, ODD))) for i in range(rng.randint(1, 7))]
        brackets = {(i, j): {rng.randrange(len(gens)): Fraction(rng.choice((-3, -1, 1, 2)),
                                                                rng.choice((1, 2, 5)))}
                    for i in range(len(gens)) for j in range(i, len(gens))
                    if rng.random() < 0.4}
        alg = LieSuperalgebra("single%d" % k, gens, brackets)
        parities.update(gens[t][1] for targets in brackets.values() for t in targets)
        assert _same_rewrite(alg) is None and adapted_basis(alg) is alg, alg.name
    assert parities == {EVEN, ODD}


def test_even_self_bracket_still_names_the_users_generator():
    gens = [("x", EVEN), ("u", EVEN), ("v", EVEN), ("w", ODD)]
    # [x, x] = u lands on a generator (identity case); [x, x] = u + v
    # does not, and u is replaced by u + v
    for image in ({1: 1}, {1: 1, 2: 1}):
        alg = LieSuperalgebra("bad", gens, {(0, 0): image})
        with pytest.raises(ValueError, match="even generator 'x' has a nonzero self-bracket"):
            betti_table(alg, 2)


def _dense_betti(alg, q_max):
    """Betti numbers in the input's own basis, by dense elimination."""
    dims = SuperSpaceDims(*alg.superdim)
    ranks = [0]
    for q in range(q_max + 1):
        mat = differential_matrix(alg, q).matrix
        ranks.append(dense_rank_bareiss(mat.rows, mat.cols, mat.entries))
    return [graded_dim(dims, q) - ranks[q + 1] - ranks[q] for q in range(q_max + 1)]


def test_hidden_two_step_hypothesis():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(st.integers(0, 2 ** 32), st.integers(2, 6),
                      st.sampled_from((0.3, 0.6, 0.9)))
    def check(seed, dim, density):
        rng = random.Random(seed)
        alg = LieSuperalgebra("h", *change_basis(rng, random_two_step(rng, dim, density)))
        adapted = adapted_basis(alg)
        assert validate(adapted) == []
        for q in range(4):
            assert rank(differential_matrix(alg, q).matrix) == \
                rank(differential_matrix(adapted, q).matrix)
        assert [r.dim_cohomology for r in betti_table(alg, 3)] == _dense_betti(alg, 3)

    check()


def test_hidden_two_step_squares_to_zero_and_round_trips_hypothesis():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(st.integers(0, 2 ** 32), st.integers(2, 6),
                      st.sampled_from((0.3, 0.6, 0.9)))
    def check(seed, dim, density):
        rng = random.Random(seed)
        alg = LieSuperalgebra("h", *change_basis(rng, random_two_step(rng, dim, density)))
        assert parse_algebra(format_algebra(alg)) == alg
        d = [differential_matrix(alg, q).matrix for q in range(4)]
        for q in range(3):
            assert matmul(d[q + 1], d[q]).is_zero(), q

    check()
