"""validate against the dense triple-scan oracle, strings and order included."""

import random
from fractions import Fraction

import pytest

from heisenberg_cohomology.algebra import (EVEN, ODD, LieSuperalgebra,
                                           _heisenberg_even, make_heisenberg_even,
                                           make_heisenberg_odd, validate)

from oracles import validate_dense

COEFFS = (-2, -1, 1, 2, Fraction(1, 2), Fraction(-3, 2))


def _table(alg):
    """(generators, brackets) of an algebra as plain lists and dicts."""
    gens = [(g.name, g.parity) for g in alg.generators]
    return gens, {pair: dict(t) for pair, t in alg.brackets.items()}


def _algebra(name, table):
    gens, brackets = table
    return LieSuperalgebra(name, gens, brackets)


def _random_parities(rng, dim):
    return [(("g%d" % i), rng.choice((EVEN, ODD))) for i in range(dim)]


def random_table(rng, dim, density):
    """Any targets, any coefficients: skew, parity and Jacobi violations."""
    gens = _random_parities(rng, dim)
    brackets = {}
    for i in range(dim):
        for j in range(i, dim):
            if rng.random() < density:
                targets = rng.sample(range(dim), min(dim, rng.choice((1, 1, 2))))
                brackets[(i, j)] = {k: rng.choice(COEFFS) for k in targets}
    return gens, brackets


def random_graded_table(rng, dim, density):
    """Parity-homogeneous, no even self-brackets: only Jacobi can fail."""
    gens = _random_parities(rng, dim)
    brackets = {}
    for i in range(dim):
        for j in range(i, dim):
            if (i == j and gens[i][1] == EVEN) or rng.random() >= density:
                continue
            want = (gens[i][1] + gens[j][1]) % 2
            allowed = [k for k in range(dim) if gens[k][1] == want]
            if allowed:
                brackets[(i, j)] = {rng.choice(allowed): rng.choice(COEFFS)}
    return gens, brackets


def random_two_step(rng, dim, density):
    """Two-step nilpotent: brackets of the first generators land in the rest."""
    gens = _random_parities(rng, dim)
    split = rng.randint(1, dim - 1)
    brackets = {}
    for i in range(split):
        for j in range(i, split):
            if (i == j and gens[i][1] == EVEN) or rng.random() >= density:
                continue
            want = (gens[i][1] + gens[j][1]) % 2
            center = [k for k in range(split, dim) if gens[k][1] == want]
            if center:
                k = rng.choice(center)
                brackets[(i, j)] = {k: rng.choice(COEFFS)}
    return gens, brackets


SL2 = ([("h", EVEN), ("e", EVEN), ("f", EVEN)],
       {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}})

# [h, f] = -f instead of -2f: Jacobi on (h, e, f) leaves -h
BAD_SL2 = (SL2[0], {(0, 1): {1: 2}, (0, 2): {2: -1}, (1, 2): {0: 1}})

# osp(1|2): sl2 plus the odd doublet F+, F- (indices 3, 4)
OSP12 = ([("h", EVEN), ("e", EVEN), ("f", EVEN), ("Fp", ODD), ("Fm", ODD)],
         {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1},
          (0, 3): {3: 1}, (0, 4): {4: -1}, (1, 4): {3: -1}, (2, 3): {4: -1},
          (3, 3): {1: 2}, (3, 4): {0: 1}, (4, 4): {2: -2}})


def _bracket(gens, brackets, i, j):
    if i <= j:
        return brackets.get((i, j), {})
    base = brackets.get((j, i), {})
    if gens[i][1] == ODD and gens[j][1] == ODD:
        return base
    return {k: -c for k, c in base.items()}


def direct_sum(a, b):
    gens_a, br_a = a
    gens_b, br_b = b
    off = len(gens_a)
    gens = [(name + "_1", p) for name, p in gens_a]
    gens += [(name + "_2", p) for name, p in gens_b]
    brackets = {pair: dict(t) for pair, t in br_a.items()}
    for (i, j), t in br_b.items():
        brackets[(i + off, j + off)] = {k + off: c for k, c in t.items()}
    return gens, brackets


def _unitriangular(rng, n, lower):
    return [[1 if i == j else (rng.choice((-1, 1)) if (j < i) == lower and i != j else 0)
             for j in range(n)] for i in range(n)]


def _matmul(x, y):
    return [[sum(x[i][k] * y[k][j] for k in range(len(y))) for j in range(len(y[0]))]
            for i in range(len(x))]


def _inverse_unitriangular(t, lower):
    n = len(t)
    inv = [[int(i == j) for j in range(n)] for i in range(n)]
    order = range(n) if lower else range(n - 1, -1, -1)
    for i in order:
        for j in range(n):
            inner = range(i) if lower else range(i + 1, n)
            inv[i][j] -= sum(t[i][k] * inv[k][j] for k in inner)
    return inv


def change_basis(rng, table):
    """The same algebra in a seeded unimodular basis of each parity, with
    the generators listed in a seeded order (as in the benchmark inputs)."""
    gens, brackets = table
    dim = len(gens)
    a = [[0] * dim for _ in range(dim)]
    a_inv = [[0] * dim for _ in range(dim)]
    for parity in (EVEN, ODD):
        block = [i for i in range(dim) if gens[i][1] == parity]
        if not block:
            continue
        low = _unitriangular(rng, len(block), lower=True)
        up = _unitriangular(rng, len(block), lower=False)
        u = _matmul(low, up)
        u_inv = _matmul(_inverse_unitriangular(up, lower=False),
                        _inverse_unitriangular(low, lower=True))
        for r, i in enumerate(block):
            for c, j in enumerate(block):
                a[i][j] = u[r][c]
                a_inv[i][j] = u_inv[r][c]
    order = list(range(dim))
    rng.shuffle(order)
    position = {old: new for new, old in enumerate(order)}
    new_gens = [("f%d" % (new + 1), gens[old][1]) for new, old in enumerate(order)]
    new_brackets = {}
    for x in range(dim):
        for y in range(x, dim):
            out = {}
            for i in range(dim):
                for j in range(dim):
                    if not (a[x][i] and a[y][j]):
                        continue
                    for k, c in _bracket(gens, brackets, i, j).items():
                        for t in range(dim):
                            if a_inv[k][t]:
                                out[t] = out.get(t, 0) + a[x][i] * a[y][j] * c * a_inv[k][t]
            out = {t: v for t, v in out.items() if v}
            if not out:
                continue
            px, py = position[x], position[y]
            if px > py:
                flip = 1 if gens[x][1] == ODD and gens[y][1] == ODD else -1
                px, py = py, px
                out = {t: flip * v for t, v in out.items()}
            new_brackets[(px, py)] = {position[t]: v for t, v in out.items()}
    return new_gens, new_brackets


def _tables():
    rng = random.Random(20131)
    out = []
    for k in range(120):
        out.append(("random%d" % k, random_table(rng, rng.randint(1, 7), rng.choice((0.2, 0.4, 0.7)))))
    for k in range(80):
        out.append(("graded%d" % k, random_graded_table(rng, rng.randint(2, 8), rng.choice((0.2, 0.5)))))
    for k in range(40):
        out.append(("twostep%d" % k, random_two_step(rng, rng.randint(2, 9), rng.choice((0.3, 0.7)))))
    families = [_table(make_heisenberg_odd(1)), _table(make_heisenberg_odd(2)),
                _table(make_heisenberg_even(1, 1)), _table(make_heisenberg_even(1, 2)),
                SL2, OSP12]
    out += [("sl2", SL2), ("osp12", OSP12), ("bad_sl2", BAD_SL2)]
    pairs = [(a, b) for a in families for b in families + [BAD_SL2]
             if len(a[0]) + len(b[0]) <= 8]
    for k in range(24):
        summand_a, summand_b = rng.choice(pairs)
        kind = "hidden_bad" if summand_b is BAD_SL2 else "hidden_sum"
        out.append(("%s%d" % (kind, k), change_basis(rng, direct_sum(summand_a, summand_b))))
    for k in range(12):
        two_step = random_two_step(rng, rng.randint(3, 7), 0.6)
        out.append(("hidden_twostep%d" % k, change_basis(rng, two_step)))
    return out


TABLES = _tables()


def test_validate_matches_dense_oracle():
    invalid = 0
    for name, table in TABLES:
        alg = _algebra(name, table)
        got = validate(alg)
        assert got == validate_dense(alg), name
        invalid += bool(got)
    # the set is not vacuous on either side
    assert 150 <= invalid <= len(TABLES) - 40


def test_the_tables_the_engine_builds_are_lie_superalgebras():
    # the engine validates no table it builds for itself: each verify
    # grid member and each direct-sum part's canonical table, h_{n,m}
    # (n or m may be 0) and h_n, is held to the axioms here instead, by
    # validate and by the dense oracle
    built = [_heisenberg_even("h_{%d,%d}" % (n, m), n, m)
             for n in range(5) for m in range(5)]
    built += [make_heisenberg_odd(n) for n in range(1, 9)]
    for alg in built:
        assert validate(alg) == validate_dense(alg) == [], alg.name
    # make_heisenberg_even builds the same tables past its shape check
    for n in range(1, 5):
        for m in range(1, 5):
            assert make_heisenberg_even(n, m) == _heisenberg_even("h_{%d,%d}" % (n, m), n, m)


def test_valid_tables_pass_and_broken_sums_fail_jacobi():
    for name, table in TABLES:
        issues = validate(_algebra(name, table))
        if name.startswith(("twostep", "hidden_twostep", "hidden_sum", "sl2", "osp12")):
            assert issues == [], name
        elif name.startswith("hidden_bad"):
            # the basis change spreads the defect of BAD_SL2 over many triples
            assert issues and all(v.startswith("jacobi") for v in issues), name
    assert any(name.startswith("hidden_bad") for name, _ in TABLES)


def test_validate_matches_dense_oracle_hypothesis():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @st.composite
    def tables(draw):
        dim = draw(st.integers(1, 6))
        parities = draw(st.lists(st.sampled_from((EVEN, ODD)), min_size=dim, max_size=dim))
        pairs = [(i, j) for i in range(dim) for j in range(i, dim)]
        chosen = draw(st.lists(st.sampled_from(pairs), max_size=8, unique=True))
        brackets = {pair: draw(st.dictionaries(st.integers(0, dim - 1),
                                                st.sampled_from(COEFFS),
                                                min_size=1, max_size=2))
                    for pair in chosen}
        return [("g%d" % i, p) for i, p in enumerate(parities)], brackets

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(tables())
    def check(table):
        alg = _algebra("h", table)
        assert validate(alg) == validate_dense(alg)

    check()
