"""Independent oracles for the test suite.

Everything here is written from first principles and shares no sign or
elimination logic with the package: products are reduced as tensor
words, ranks come from dense eliminations, the dual pairing is a
determinant times a permanent, and the coboundary is evaluated through
the alternating-sum pairing formula.  The exceptions are z_power_block
and full_matrix_ranks, which read the package's full coboundary matrices
so that the odd-centre block route can be held to the full-matrix route
it stands in for, and kernel_matrices_are_checked, which checks the
package's own matrices, and adapted_brackets_fractions, the package's
former Fraction rewrite into the adapted basis, kept unchanged as the
reference for the fraction-free one.  ker_psi_dim_sum,
odd_cocycle_dim_sum and dim_h_odd_proof_shared_sum are the package's
former closed forms for h_n, which summed each kernel afresh over
graded_dim, kept as the reference for the series that replaced them;
dim_h_odd_proof_double_sum is the form before those.
orbit_listing_defects reads the package's packed keys and its copies'
generator tuples, but none of its charges, lattices, local groups or
listing code: the local permutations it applies come from its caller,
and it finds the shifts by brute force over the copies' local
monomials.  series_product is
the package's former weight-series arithmetic (symmetry._product and
_power, a product of coefficient tuples cut after t^top), kept as the
reference for the factored weights that replaced it.
"""

from collections import Counter
from fractions import Fraction
from itertools import permutations, product
from math import lcm
from typing import Dict, List, Mapping

import pytest

from heisenberg_cohomology.algebra import EVEN, ODD
from heisenberg_cohomology.elements import (SuperMonomial, SuperSpaceDims,
                                            differential_matrix, enumerate_basis)
from heisenberg_cohomology.limits import graded_dim
from heisenberg_cohomology.linalg import RationalMatrix, rank


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


def matmul(a, b):
    """a @ b for RationalMatrix operands, column by column: column c of
    the product is sum_k b[k, c] * (column k of a), over the integers,
    with scale a.scale * b.scale."""
    if a.cols != b.rows:
        raise ValueError("shape mismatch: %dx%d @ %dx%d"
                         % (a.rows, a.cols, b.rows, b.cols))
    out = []
    for col in b.columns:
        acc = {}
        for k, w in col.items():
            for r, v in a.columns[k].items():
                acc[r] = acc.get(r, 0) + v * w
        out.append({r: v for r, v in acc.items() if v})
    return RationalMatrix.from_columns(a.rows, out, a.scale * b.scale)


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


def det(mat):
    """Determinant of a small square integer matrix (fraction-free)."""
    k = len(mat)
    if k == 0:
        return 1
    m = [list(row) for row in mat]
    prev = 1
    sign = 1
    for c in range(k):
        piv = next((r for r in range(c, k) if m[r][c]), None)
        if piv is None:
            return 0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            sign = -sign
        p = m[c][c]
        for r in range(c + 1, k):
            a = m[r][c]
            for j in range(c + 1, k):
                num = p * m[r][j] - a * m[c][j]
                q, rem = divmod(num, prev)
                if rem:
                    raise ArithmeticError("inexact division in determinant")
                m[r][j] = q
            m[r][c] = 0
        prev = p
    return sign * m[k - 1][k - 1]


def permanent(mat, row=0):
    """Permanent of a small square integer matrix, by its definition.

    Expands along `row` first, then along the other rows in order;
    which row comes first must not change the value.  Removing either
    of two equal columns leaves the same minor, so each expansion runs
    over the distinct columns left, times how many copies are left,
    and a minor is summed once per multiset of columns left: the delta
    matrix of o^alpha's factors has prod_j (alpha_j + 1) such minors,
    where a plain expansion visits prod_j alpha_j! leaves.
    """
    k = len(mat)
    if k == 0:
        return 1
    if row < 0 or row >= k:
        raise IndexError("expansion row out of range")
    rows = [mat[row]] + [r for i, r in enumerate(mat) if i != row]
    kinds = Counter(zip(*rows))
    columns = list(kinds)
    # {copies of each distinct column left: sum over the rows expanded}
    minors = {tuple(kinds[c] for c in columns): 1}
    for i in range(k):
        below = {}
        for left, value in minors.items():
            for c, copies in enumerate(left):
                a = columns[c][i]
                if copies and a:
                    rest = left[:c] + (copies - 1,) + left[c + 1:]
                    below[rest] = below.get(rest, 0) + value * a * copies
        minors = below
    return sum(minors.values())


def _odd_sequence(mono):
    return tuple(j for j, a in enumerate(mono.odd_exponents) for _ in range(a))


def pairing_det_perm(alpha, u):
    """<alpha, u> of two normal-form monomials, from its definition.

    A determinant of the delta matrix of the even factors times a
    permanent of the delta matrix of the odd factor sequences.
    """
    if len(alpha.odd_exponents) != len(u.odd_exponents):
        raise ValueError("monomials live over different odd dimensions")
    if len(alpha.even_set) != len(u.even_set):
        return Fraction(0)
    if alpha.odd_degree != u.odd_degree:
        return Fraction(0)
    even = [[1 if i == j else 0 for j in u.even_set] for i in alpha.even_set]
    arow = _odd_sequence(alpha)
    ucol = _odd_sequence(u)
    odd = [[1 if i == j else 0 for j in ucol] for i in arow]
    return Fraction(det(even) * permanent(odd))


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


def coboundary_entry(algebra, omega, u):
    """Coefficient of the dual monomial u in d omega: <d omega, u> / <u, u>.

    <d omega, u> is the alternating bracket-insertion sum over u's
    generators, each word put in normal form by tensor_normal_form and
    paired with omega by pairing_det_perm; the pairing is diagonal on
    normal forms, so dividing by <u, u> isolates the coefficient.
    """
    n1 = algebra.superdim[1]

    def pair(word):
        sign, normal = tensor_normal_form(word)
        if sign == 0:
            return Fraction(0)
        evens = tuple(i for kind, i in normal if kind == "e")
        exps = [0] * n1
        for kind, i in normal:
            if kind == "o":
                exps[i] += 1
        return sign * pairing_det_perm(omega, SuperMonomial(evens, tuple(exps)))

    seq = monomial_generator_sequence(algebra, u)
    return coboundary_alternating_sum(algebra, seq, pair) / pairing_det_perm(u, u)


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


def assert_kernel_matrix(matrix):
    """The invariant RationalMatrix.from_columns checks, on a matrix the
    coboundary kernel built without it: rows >= 0, a nonzero rational
    scale, and every column a {row: nonzero int} over rows 0..rows-1."""
    assert matrix.rows >= 0 and matrix.cols == len(matrix.columns), matrix
    assert isinstance(matrix.scale, Fraction) and matrix.scale, matrix
    for c, col in enumerate(matrix.columns):
        for r, v in col.items():
            assert 0 <= r < matrix.rows, (matrix, c, r)
            assert type(v) is int and v, (matrix, c, r, v)


@pytest.fixture(autouse=True)
def kernel_matrices_are_checked(monkeypatch):
    """Autouse fixture for a test module that imports it: every matrix
    built through RationalMatrix._wrap, the kernel's unchecked
    constructor, is held to assert_kernel_matrix."""
    real = RationalMatrix._wrap.__func__

    def checked(cls, rows, columns, scale):
        matrix = real(cls, rows, columns, scale)
        assert_kernel_matrix(matrix)
        return matrix

    monkeypatch.setattr(RationalMatrix, "_wrap", classmethod(checked))


def z_power_block(algebra, z, t, l):
    """The block of differential_matrix(algebra, t + l) from the domain
    monomials with z-dual power l to the rows with power l - 1, z's odd
    slot dropped, over the canonical bases of the other duals' degree-t
    and degree-(t+2) spaces.  Returns (block, rest): block is a
    {(row, col): Fraction} map, and rest counts the entries of that
    column range that fall outside every row with power l - 1."""
    j = algebra.odd_indices.index(z)
    n0, n1 = algebra.superdim
    free = SuperSpaceDims(n0, n1 - 1)
    col_of = {m: c for c, m in enumerate(enumerate_basis(free, t))}
    row_of = {m: r for r, m in enumerate(enumerate_basis(free, t + 2))}

    def strip(mono, power):
        odds = mono.odd_exponents
        if odds[j] != power:
            return None
        return SuperMonomial(mono.even_set, odds[:j] + odds[j + 1:])

    dm = differential_matrix(algebra, t + l)
    block, rest = {}, 0
    for (r, c), v in dm.matrix.entries.items():
        col = strip(dm.domain[c], l)
        if col is None:
            continue
        row = strip(dm.codomain[r], l - 1)
        if row is None:
            rest += 1
        else:
            block[(row_of[row], col_of[col])] = v
    return block, rest


def orbit_listing_defects(algebra, copies, groups, basis, radix, local, top) -> List[str]:
    """How the representative groups fail to list one degree's cochains
    once per orbit of the copies and per shift; [] when they do not.

    `copies` has, per class, the copies' generator tuples, `basis` the
    degree's packed keys over `radix`, and `groups` is
    [(k, weight, keys)]: packed keys of k degrees less, each standing
    for weight[k] cochains of this degree (0 past weight's end).
    `local` has, per class, the permutations of one copy's generators
    (sigma[a], a position in the copy's tuple) that each copy takes on
    its own.  Every permutation of the copies within their classes,
    after any local permutation of each copy, applied to a group's keys
    as a relabelling of generators, must give exactly weight[0] times
    len(keys) monomials; k shifts of those, exactly weight[k] times
    len(keys) cochains, none given by another group; and together the
    images must be every cochain of `basis`.

    A shift multiplies one copy's monomial by its y, the first odd
    generator of the copy that no bracket targets, in a class whose
    copies take the identity alone (`local`).  It is allowed when every
    local monomial of degree at most top in the class of the image has
    y; a class is a set of local monomials joined by the copy's bracket
    moves, e -> e + e_i + e_j (- e_k when k lies in the copy) for each
    nonzero [g_i, g_j] -> g_k of the table (_shift_targets).
    """
    n0 = len(algebra.even_indices)

    def monomial(key):
        out = {g: 1 for p, g in enumerate(algebra.even_indices) if key >> p & 1}
        odd = key >> n0
        for g in algebra.odd_indices:
            odd, a = divmod(odd, radix)
            if a:
                out[g] = a
        return out

    relabellings = []
    for orders in product(*(permutations(c) for c in copies)):
        # then each copy's own permutation: old[a] goes to new[sigma[a]]
        for sigmas in product(*(product(perms, repeat=len(c)) for c, perms in zip(copies, local))):
            relabel = {}
            for c, order, within in zip(copies, orders, sigmas):
                for old, new, sigma in zip(c, order, within):
                    relabel.update((old[a], new[b]) for a, b in enumerate(sigma))
            relabellings.append(relabel)
    targets = {k for t in algebra.brackets.values() for k, c in t.items() if c}
    shifts = []
    for c, perms in zip(copies, local):
        ys = [a for a, g in enumerate(c[0]) if algebra.parity(g) == ODD and g not in targets]
        if len(perms) == 1 and ys:
            allowed = _shift_targets(algebra, c[0], ys[0], top)
            shifts += [(copy, copy[ys[0]], allowed) for copy in c]

    def shifted(images):
        out = set()
        for image in images:
            mono = dict(image)
            for copy, y, allowed in shifts:
                if tuple(mono.get(g, 0) + (g == y) for g in copy) in allowed:
                    out.add(frozenset({**mono, y: mono.get(y, 0) + 1}.items()))
        return out

    defects, seen = [], set()
    for k, weight, keys in groups:
        images = {frozenset((relabel.get(g, g), a) for g, a in monomial(key).items())
                  for key in keys for relabel in relabellings}
        if len(images) != weight[0] * len(keys):
            defects.append("the group of weight %s has %d images, not %d x %d"
                           % (weight, len(images), weight[0], len(keys)))
        for _ in range(k):
            images = shifted(images)
        want = weight[k] if k < len(weight) else 0
        if len(images) != want * len(keys):
            defects.append("the group of weight %s has %d images %d shifts up, not %d x %d"
                           % (weight, len(images), k, want, len(keys)))
        if images & seen:
            defects.append("the group of weight %s meets an earlier group" % (weight,))
        seen |= images
    want = {frozenset(monomial(key).items()) for key in basis}
    if seen != want:
        defects.append("the orbits miss %d monomials and add %d"
                       % (len(want - seen), len(seen - want)))
    return defects


def _shift_targets(algebra, copy, y, top):
    """The exponent vectors over `copy`'s generators, of degree at most
    top, whose class under the copy's bracket moves has y (a position
    in `copy`) in every member of degree at most top.  A move can pass
    through a monomial of higher degree (the filiform triple's
    [a, c] -> t adds f_a f_c), so the moves join the vectors of degree
    up to 2 top + 2."""
    reach = 2 * top + 2
    vectors = [()]
    for g in copy:
        bound = reach if algebra.parity(g) == ODD else 1
        vectors = [v + (a,) for v in vectors for a in range(bound + 1)]
    vectors = {v for v in vectors if sum(v) <= reach}
    position = {g: a for a, g in enumerate(copy)}
    moves = []
    for (i, j), ts in algebra.brackets.items():
        if i in position and j in position:
            for k, c in ts.items():
                if c:
                    move = [0] * len(copy)
                    move[position[i]] += 1
                    move[position[j]] += 1
                    if k in position:
                        move[position[k]] -= 1
                    moves.append(move)
    root = {v: v for v in vectors}

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    for v in vectors:
        for move in moves:
            w = tuple(a + b for a, b in zip(v, move))
            if w in root:
                root[find(w)] = find(v)
    classes: Dict[tuple, list] = {}
    for v in vectors:
        if sum(v) <= top:
            classes.setdefault(find(v), []).append(v)
    return {v for members in classes.values() if all(u[y] for u in members) for v in members}


def series_product(factors, top: int) -> tuple:
    """The product of the series `factors` (coefficient tuples), cut
    after t^top, term by term: as long as the uncut product, at most
    top + 1 terms, and (1,) for no factor."""
    out = (1,)
    for f in factors:
        new = [0] * min(len(out) + len(f) - 1, top + 1)
        for i, x in enumerate(out):
            for j, y in enumerate(f):
                if i + j <= top:
                    new[i + j] += x * y
        out = tuple(new)
    return out


def full_matrix_ranks(algebra, q_max):
    """{q: rank d_q} for q = -1..q_max from each full differential_matrix."""
    out = {-1: 0}
    for q in range(q_max + 1):
        out[q] = rank(differential_matrix(algebra, q).matrix)
    return out


def dense_betti_numbers(algebra, q_max):
    """dim H^q for q = 0..q_max from dense Fraction ranks of matrices
    filled entry by entry from coboundary_entry."""
    dims = SuperSpaceDims(*algebra.superdim)
    bases = [enumerate_basis(dims, q) for q in range(q_max + 2)]
    ranks = [0]
    for q in range(q_max + 1):
        entries = {(r, c): coboundary_entry(algebra, omega, u)
                   for c, omega in enumerate(bases[q])
                   for r, u in enumerate(bases[q + 1])}
        ranks.append(dense_rank_fractions(len(bases[q + 1]), len(bases[q]), entries))
    return [len(bases[q]) - ranks[q + 1] - ranks[q] for q in range(q_max + 1)]


def _subtract(v: Dict[int, Fraction], c: Fraction, row: Mapping) -> None:
    """v -= c * row, in place, dropping the coordinates that cancel."""
    for i, x in row.items():
        w = v.get(i, 0) - c * x
        if w:
            v[i] = w
        else:
            del v[i]


def adapted_brackets_fractions(alg):
    """The nonzero brackets of alg in the adapted basis, or None when
    the change of basis is the identity: the exact Fraction RREF and
    rewrite that algebra._adapted_brackets must equal, pair order,
    target order and values included."""
    scale, ad = alg._scale, alg._ad
    rows: Dict[int, Dict[int, Fraction]] = {}
    for (i, j) in alg.brackets:
        for parity in (EVEN, ODD):
            # a row of one parity only reduces against rows of that parity
            v = {k: c for k, c in ad[i][j].items() if alg.parity(k) == parity}
            # every row is zero at the other pivots, so one pass reduces v
            for p in [k for k in v if k in rows]:
                _subtract(v, v[p], rows[p])
            if not v:
                continue
            lead = min(v)
            v = {g: Fraction(x, v[lead]) for g, x in v.items()}
            for row in rows.values():
                if lead in row:
                    _subtract(row, row[lead], v)
            rows[lead] = v
    if all(len(row) == 1 for row in rows.values()):
        return None
    # users[j]: the pivot rows with a g_j coordinate; a generator that is
    # no pivot is also its own basis vector
    users: Dict[int, List[int]] = {}
    for p, row in rows.items():
        for j in row:
            users.setdefault(j, []).append(p)

    def touching(js) -> List[int]:
        """The new basis vectors with a nonzero coordinate on some g_j."""
        out = {j for j in js if j not in rows}
        for j in js:
            out.update(users.get(j, ()))
        return sorted(out)

    # only pairs of basis vectors that touch a bracketing pair are
    # visited, so the cost follows the nonzero brackets, not dim^2
    brackets = {}
    for a in touching(ad):
        # image[j] = L [b_a, g_j] in the old coordinates
        image: Dict[int, Dict[int, Fraction]] = {}
        for i, x in rows.get(a, {a: 1}).items():
            for j, targets in ad.get(i, {}).items():
                acc = image.setdefault(j, {})
                for k, c in targets.items():
                    acc[k] = acc.get(k, 0) + x * c
        for b in touching(image):
            if b < a:
                continue
            w: Dict[int, Fraction] = {}
            for j, y in rows.get(b, {b: 1}).items():
                for k, c in image.get(j, {}).items():
                    w[k] = w.get(k, 0) + y * c
            # coordinates in the new basis: w[p] on pivot row p, and
            # w[i] - sum_p w[p] * row_p[i] on a generator i that stays
            new = {k: c for k, c in w.items() if c}
            for p in [k for k in new if k in rows]:
                c = w[p]
                _subtract(new, c, rows[p])
                new[p] = c
            if new:  # the table's L cancels in the rows; divide it out
                brackets[(a, b)] = {k: Fraction(c, scale) for k, c in new.items()}
    return brackets


def ker_psi_dim_sum(t, n):
    """ker_psi_dim(t, n) as its alternating sum over graded_dim."""
    if t < 0:
        return 0
    total = int(t == n)
    free = (n, n)
    for i in range(1, t // 2 + 1):
        term = graded_dim(free, t - 2 * i) - (t - 2 * i == n)
        total += term if i % 2 == 1 else -term
    return total


def odd_cocycle_dim_sum(n, q):
    """dim Z^q(h_n): z-dual-free monomials plus one kernel per z-power."""
    if q < 0:
        return 0
    total = graded_dim((n, n), q)
    for l in range(1, q + 1):
        total += ker_psi_dim_sum(q - l, n)
    return total


def dim_h_odd_proof_shared_sum(n, q):
    """dim H^q(h_n) as dim Z^q + dim Z^{q-1} - dim C^{q-1}, the two sums
    of kernels sharing ker_psi_dim_sum(s, n) for s <= q-2."""
    if q < 0:
        return 0
    free = (n, n)
    full = (n, n + 1)
    total = graded_dim(free, q) + graded_dim(free, q - 1) - graded_dim(full, q - 1)
    # dim Z^q's kernels are those of s = 0..q-1, dim Z^{q-1}'s those of 0..q-2
    kernels = [ker_psi_dim_sum(s, n) for s in range(q)]
    return total + sum(kernels) + sum(kernels[:-1])


def dim_h_odd_proof_double_sum(n, q):
    """dim H^q(h_n) as dim Z^q + dim Z^{q-1} - dim C^{q-1}, each dim Z
    with its own sum of kernels (dim_h_odd_proof_shared_sum shares them)."""
    if q < 0:
        return 0
    free = (n, n)
    full = (n, n + 1)
    total = graded_dim(free, q) + graded_dim(free, q - 1) - graded_dim(full, q - 1)
    for i in range(1, q + 1):
        total += ker_psi_dim_sum(q - i, n)
    for i in range(1, q):
        total += ker_psi_dim_sum(q - 1 - i, n)
    return total
