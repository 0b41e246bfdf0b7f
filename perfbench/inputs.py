"""Seeded input generators for the benchmark.

Nothing here imports the package under test: the built-in families are
written out from their definitions, direct sums and basis changes are
done on plain integer tables, and definition files are rendered in the
README grammar.  An algebra is a pair (generators, brackets) where
generators is a list of (name, parity) and brackets maps index pairs
(i, j) with i <= j to {target index: integer coefficient}.
"""

from __future__ import annotations

import random

EVEN = 0
ODD = 1


def rng_for(workload: str, seed: int) -> random.Random:
    """The one random stream a workload draws its inputs from."""
    return random.Random("%s/%d" % (workload, seed))


def heisenberg_even(n: int, m: int):
    """h_{n,m}: z, x1..x2n even, y1..ym odd; [x_i, x_{n+i}] = [y_j, y_j] = z."""
    gens = [("z", EVEN)] + [("x%d" % i, EVEN) for i in range(1, 2 * n + 1)]
    gens += [("y%d" % j, ODD) for j in range(1, m + 1)]
    brackets = {(i, n + i): {0: 1} for i in range(1, n + 1)}
    for j in range(1, m + 1):
        brackets[(2 * n + j, 2 * n + j)] = {0: 1}
    return gens, brackets


def heisenberg_odd(n: int):
    """h_n: x1..xn even, y1..yn and z odd; [x_i, y_i] = z."""
    gens = [("x%d" % i, EVEN) for i in range(1, n + 1)]
    gens += [("y%d" % i, ODD) for i in range(1, n + 1)] + [("z", ODD)]
    brackets = {(i, n + i): {2 * n: 1} for i in range(n)}
    return gens, brackets


def _bracket(gens, brackets, i, j):
    # [g_i, g_j] for any order, by super skew-symmetry
    if i <= j:
        return brackets.get((i, j), {})
    base = brackets.get((j, i), {})
    if gens[i][1] == ODD and gens[j][1] == ODD:
        return base
    return {k: -c for k, c in base.items()}


def direct_sum(a, b):
    """g_1 (+) g_2, generators renamed with suffixes _1 and _2."""
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
    # every off-diagonal entry on one side is +-1, so the density of the
    # basis change does not depend on the seed, only its signs do
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


def random_unimodular(rng, n):
    """(A, A^-1): a seeded integer matrix of determinant 1 and its inverse."""
    low = _unitriangular(rng, n, lower=True)
    up = _unitriangular(rng, n, lower=False)
    a = _matmul(low, up)
    a_inv = _matmul(_inverse_unitriangular(up, lower=False),
                    _inverse_unitriangular(low, lower=True))
    return a, a_inv


def change_basis(rng, algebra):
    """The same algebra in a seeded unimodular basis of each parity.

    New generators f_a = sum_i A[a][i] e_i, with A block diagonal by
    parity, then listed in a seeded order and renamed g1..gd.  The
    brackets stay integral because A^-1 is integral; the weight grading
    of the original basis is no longer visible.
    """
    gens, brackets = algebra
    dim = len(gens)
    a = [[0] * dim for _ in range(dim)]
    a_inv = [[0] * dim for _ in range(dim)]
    for parity in (EVEN, ODD):
        block = [i for i in range(dim) if gens[i][1] == parity]
        if not block:
            continue
        u, u_inv = random_unimodular(rng, len(block))
        for r, i in enumerate(block):
            for c, j in enumerate(block):
                a[i][j] = u[r][c]
                a_inv[i][j] = u_inv[r][c]
    order = list(range(dim))
    rng.shuffle(order)
    position = {old: new for new, old in enumerate(order)}
    new_gens = [("g%d" % (new + 1), gens[old][1]) for new, old in enumerate(order)]
    new_brackets = {}
    for x in range(dim):
        for y in range(x, dim):
            out = {}
            for i in range(dim):
                if not a[x][i]:
                    continue
                for j in range(dim):
                    if not a[y][j]:
                        continue
                    for k, c in _bracket(gens, brackets, i, j).items():
                        for t in range(dim):
                            if a_inv[k][t]:
                                out[t] = out.get(t, 0) + a[x][i] * a[y][j] * c * a_inv[k][t]
            out = {t: v for t, v in out.items() if v}
            if not out:
                continue
            if x == y and gens[x][1] == EVEN:
                raise AssertionError("basis change produced an even self-bracket")
            px, py = position[x], position[y]
            if px > py:
                # [f_x, f_y] = -(-1)^{|x||y|} [f_y, f_x]
                flip = 1 if gens[x][1] == ODD and gens[y][1] == ODD else -1
                px, py = py, px
                out = {t: flip * v for t, v in out.items()}
            new_brackets[(px, py)] = {position[t]: v for t, v in out.items()}
    return new_gens, new_brackets


def signed_relabel(rng, algebra):
    """The algebra with each generator replaced by a seeded sign times itself,
    then listed in a seeded order.

    The matrices the package builds keep their sizes and entry sizes, up to
    row and column order and signs, so the cost of a job moves far less from
    seed to seed than under a fresh random basis.
    """
    gens, brackets = algebra
    sign = [rng.choice((-1, 1)) for _ in gens]
    signed = {(i, j): {k: sign[i] * sign[j] * sign[k] * c for k, c in t.items()}
              for (i, j), t in brackets.items()}
    return shuffle_generators(rng, (gens, signed))


def shuffle_generators(rng, algebra):
    """The same brackets with the generators listed in a seeded order."""
    gens, brackets = algebra
    order = list(range(len(gens)))
    rng.shuffle(order)
    position = {old: new for new, old in enumerate(order)}
    new_gens = [gens[old] for old in order]
    new_brackets = {}
    for (i, j), t in brackets.items():
        pi, pj = position[i], position[j]
        if pi > pj:
            flip = 1 if gens[i][1] == ODD and gens[j][1] == ODD else -1
            pi, pj = pj, pi
            t = {k: flip * c for k, c in t.items()}
        new_brackets[(pi, pj)] = {position[k]: c for k, c in t.items()}
    return new_gens, new_brackets


def definition_text(name: str, algebra) -> str:
    """Definition-file text in the README grammar."""
    gens, brackets = algebra
    lines = ["# generated by perfbench", "name %s" % name]
    lines += ["generator %s %d" % g for g in gens]
    for (i, j) in sorted(brackets):
        terms = " ".join("%s:%d" % (gens[k][0], c) for k, c in sorted(brackets[(i, j)].items()))
        lines.append("bracket %s %s = %s" % (gens[i][0], gens[j][0], terms))
    return "\n".join(lines) + "\n"
