"""Independent oracles for the test suite.

Everything here is written from first principles and shares no sign or
elimination logic with the package: products are reduced as tensor
words, ranks come from dense eliminations, and the coboundary is
evaluated through the alternating-sum pairing formula.
"""

from fractions import Fraction
from math import lcm


def tensor_normal_form(word):
    """Reduce a word of ('e'|'o', index) factors modulo supercommutativity.

    Uses only the relation u v = -(-1)^{|u||v|} v u: each adjacent swap
    flips the sign unless both factors are odd.  Returns (sign, tuple)
    with the factors sorted evens-then-odds ascending, or (0, None) if a
    repeated even factor kills the word.
    """
    word = list(word)
    sign = 1
    changed = True
    while changed:
        changed = False
        for i in range(len(word) - 1):
            u, v = word[i], word[i + 1]
            if u <= v:
                continue
            word[i], word[i + 1] = v, u
            if not (u[0] == "o" and v[0] == "o"):
                sign = -sign
            changed = True
    for i in range(len(word) - 1):
        if word[i][0] == "e" and word[i] == word[i + 1]:
            return 0, None
    return sign, tuple(word)


def dense_rank_fractions(rows, cols, entries):
    """Plain Gaussian elimination over Fraction."""
    m = [[Fraction(0)] * cols for _ in range(rows)]
    for (r, c), v in entries.items():
        m[r][c] = Fraction(v)
    rk = 0
    for c in range(cols):
        piv = next((r for r in range(rk, rows) if m[r][c]), None)
        if piv is None:
            continue
        m[rk], m[piv] = m[piv], m[rk]
        for r in range(rows):
            if r != rk and m[r][c]:
                f = m[r][c] / m[rk][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[rk])]
        rk += 1
    return rk


def dense_rank_bareiss(rows, cols, entries):
    """Textbook dense fraction-free elimination.

    Rows are scaled to integers (row scaling preserves rank), then the
    two-step exact-division rule is applied; the division is checked and
    raises on a remainder instead of silently corrupting the run.
    """
    m = [[Fraction(0)] * cols for _ in range(rows)]
    for (r, c), v in entries.items():
        m[r][c] = Fraction(v)
    g = []
    for row in m:
        scale = lcm(*(x.denominator for x in row))
        g.append([int(x * scale) for x in row])
    prev = 1
    rk = 0
    for c in range(cols):
        piv = next((r for r in range(rk, rows) if g[r][c]), None)
        if piv is None:
            continue
        g[rk], g[piv] = g[piv], g[rk]
        p = g[rk][c]
        for r in range(rk + 1, rows):
            a = g[r][c]
            for j in range(cols):
                num = p * g[r][j] - a * g[rk][j]
                quo, rem = divmod(num, prev)
                if rem:
                    raise ArithmeticError("inexact division in Bareiss oracle")
                g[r][j] = quo
        prev = p
        rk += 1
    return rk


def generator_slot(algebra, i):
    """('e'|'o', position) of generator i among its parity class."""
    if algebra.parity(i):
        return ("o", algebra.odd_indices.index(i))
    return ("e", algebra.even_indices.index(i))


def slot_generator(algebra, slot):
    kind, pos = slot
    return algebra.odd_indices[pos] if kind == "o" else algebra.even_indices[pos]


def monomial_generator_sequence(algebra, mono):
    """Generator indices of a primal basis monomial, in canonical order."""
    return [slot_generator(algebra, slot) for slot in mono.factors()]


def insertion_terms(algebra, gen_seq):
    """Expand <d ., a_0 ^ ... ^ a_q> into (coefficient, word) summands.

    gen_seq lists generator indices a_0..a_q.  For r < s the pair
    (a_r, a_s) is replaced by [a_r, a_s] at position r with a_s removed,
    weighted by (-1)^{s + |a_s| (|a_{r+1}| + ... + |a_{s-1}|)}; each
    yielded word is a list of slot factors, unnormalized.
    """
    par = [algebra.parity(g) for g in gen_seq]
    for s in range(len(gen_seq)):
        for r in range(s):
            inner = algebra.bracket(gen_seq[r], gen_seq[s])
            if not inner:
                continue
            exp = s + par[s] * sum(par[r + 1:s])
            outer_sign = -1 if exp % 2 else 1
            for k, ck in inner.items():
                new_seq = list(gen_seq)
                new_seq[r] = k
                del new_seq[s]
                yield outer_sign * ck, [generator_slot(algebra, g) for g in new_seq]


def coboundary_alternating_sum(algebra, gen_seq, pair_with):
    """<d omega, a_0 ^ ... ^ a_q> by the defining alternating sum.

    pair_with(word) must return <omega, normal form of word> for a word
    of slot factors.
    """
    total = Fraction(0)
    for coeff, word in insertion_terms(algebra, gen_seq):
        total += coeff * pair_with(word)
    return total


def centralizer(algebra):
    """Indices bracketing to zero with every generator (brute force)."""
    out = []
    for i in range(algebra.dim):
        if all(not algebra.bracket(i, j) for j in range(algebra.dim)):
            out.append(i)
    return out


def derived_subalgebra_dim(algebra):
    """Dimension of the span of all bracket images (dense rank)."""
    rows = []
    for i in range(algebra.dim):
        for j in range(i, algebra.dim):
            targets = algebra.bracket(i, j)
            if targets:
                rows.append(targets)
    entries = {}
    for r, targets in enumerate(rows):
        for k, c in targets.items():
            entries[(r, k)] = c
    return dense_rank_fractions(len(rows), algebra.dim, entries)


def validate_dense(algebra):
    """Axiom violations found by a dense scan of every generator triple.

    Reads only the raw bracket table and the parities.  The full table of
    structure constants is filled first, each reversed pair by its own
    rule [g_j, g_i] = -(-1)^{|g_i||g_j|} [g_i, g_j]; then the graded Jacobi
    sum (-1)^{|a||c|}[a,[b,c]] + (-1)^{|b||a|}[b,[c,a]] + (-1)^{|c||b|}[c,[a,b]]
    is evaluated on every a <= b <= c.  Messages and their order follow
    the package's validate.
    """
    gens = algebra.generators
    dim = len(gens)
    par = [g.parity for g in gens]
    names = [g.name for g in gens]
    const = [[{} for _ in range(dim)] for _ in range(dim)]
    for (i, j), targets in algebra.brackets.items():
        reverse = 1 if par[i] == 1 and par[j] == 1 else -1
        for k, v in targets.items():
            const[i][j][k] = Fraction(v)
            if i != j:
                const[j][i][k] = reverse * Fraction(v)
    issues = []
    for (i, j) in sorted(algebra.brackets):
        if i == j and par[i] == 0:
            issues.append("skew-symmetry: even generator %r has a nonzero self-bracket"
                          % names[i])
        for k in sorted(algebra.brackets[(i, j)]):
            if par[k] != (par[i] + par[j]) % 2:
                issues.append("parity: [%s, %s] -> %s is not parity-homogeneous"
                              % (names[i], names[j], names[k]))
    for a in range(dim):
        for b in range(a, dim):
            for c in range(b, dim):
                total = [Fraction(0)] * dim
                for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
                    sign = (-1) ** (par[x] * par[z])
                    for k, inner in const[y][z].items():
                        for l, outer in const[x][k].items():
                            total[l] += sign * inner * outer
                if any(total):
                    terms = " + ".join("%s*%s" % (total[l], names[l])
                                       for l in range(dim) if total[l])
                    issues.append("jacobi: (%s, %s, %s) leaves %s"
                                  % (names[a], names[b], names[c], terms))
    return issues
