"""Direct sums: a two-step table split into ideals, each split checked
exactly before it is used.

Past cohomology's gate the adapted table is two-step: its bracket
targets P, the pivots that span [g, g], appear in no bracket, so every
bracket of two other generators is [x, y] = sum_p B_p(x, y) p, with one
super-symmetric form B_p per pivot on the span K of the others (the
algebra's ints, over its one scale L).  split() looks for ideals
g_s = K_s + [K_s, K_s] such that g is their direct sum plus R, the
common radical of the B_p: R holds the central generators outside
[g, g], and each of them is a free part of dimension 1.

- A parity class of pivots with one pivot gives one centre line.  A
  class with two or more gives theirs from a pencil of its forms
  (M. Gauger, Trans. AMS 179, 1973): for a combination omega of the
  class's forms, nondegenerate on K modulo their common radical, and
  another combination B, T = omega^-1 B acts on each K_s of the class
  as one scalar.  Its eigenvalues are the rational roots of its
  minimal polynomial, and each eigenspace brackets onto one centre
  line.  For a class of two pivots and omega, B two single forms
  B_{p_i}, B_{p_j}, T is c_sj / c_si on K_s, z_s = sum_p c_sp p, so
  each root num/den is the line den p_i + num p_j itself.
- The functionals lambda_s dual to the centre lines give the parts:
  K_s is the intersection of rad B_{lambda_t}, t != s, less R.

Nothing the search finds is trusted.  _checked proves on integer
vectors that every vector has one parity, [K_s, K_t] = 0 for s != t,
R is central, the centres [K_s, K_s] are independent and span P, and
the K_s and R together are a basis of K.  Then g is the direct sum of
the parts g_s and R, and H(g) is the Kunneth product of the parts' and
R's cohomology.  There are as many parts as pivots, so each centre is
one line, spanned by a z_s of one parity, and [x, y] = beta_s(x, y) z_s
on K_s.  A part's Betti numbers follow from its type alone,
(dim K_s^0, dim K_s^1, parity of z_s), in three steps:

1. R is the full common radical of the forms.  An x in K_s with
   beta_s(x, K_s) = 0 brackets to 0 with every K_t and with R, so it
   lies in R, and K_s meets R in 0: beta_s is nondegenerate on K_s.
2. Over C a nondegenerate form is fixed up to a change of basis by its
   dimension and parity (E. Artin, Geometric Algebra, 1957, ch. III).
   For even z_s, beta_s is skew on K_s^0 (so dim K_s^0 = 2n is even)
   and symmetric on K_s^1, and g_s (x) C is h_{n,m} (x) C, m = dim
   K_s^1.  For odd z_s, beta_s pairs K_s^0 with K_s^1 (so both have
   dimension n), and g_s (x) C is h_n (x) C.
3. A rank does not depend on the field: the cochain complex of
   g_s (x) C is that of g_s tensored with C, so g_s has the Betti
   numbers of h_{n,m} (or h_n) over Q, though over Q a symmetric
   form need not normalise (2, 3 and -1 are not squares).

So split returns types, not tables, and a type that no nondegenerate
form has is refused.  Everything runs fraction-free on linalg._echelon,
the echelon form the adapted basis uses too, and this module runs no
elimination of its own: a minimal polynomial is the first dependence
of the Krylov vectors, fed one at a time into one echelon form and
stopped there (_min_poly), and a kernel vector is read off the echelon
rows that hold its free column (_kernel).  The engine imports this
module only past its gate, so a table that fails the gate compiles
none of it.
"""

from __future__ import annotations

from math import gcd, isqrt, lcm
from typing import Dict, List, Optional, Sequence, Tuple

from .algebra import EVEN, ODD, LieSuperalgebra
from .linalg import _echelon

Vector = Dict[int, int]
Form = Dict[int, Vector]  # {row: {column: value}}, no stored zeros

# a minimal polynomial whose end coefficients are larger than this is
# not searched for rational roots (trial division up to its square root)
_ROOT_SEARCH_BOUND = 10 ** 9


def split(algebra: LieSuperalgebra, pivots: Sequence[int]
          ) -> Optional[Tuple[List[Tuple[int, int, int]], Tuple[int, int]]]:
    """(types, free) for the two-step table `algebra`, whose bracket
    targets are `pivots` and appear in no bracket: g is the direct sum
    of one part per pivot and of an abelian algebra of superdimension
    `free`, and each part's type is (dim K_s^0, dim K_s^1, parity of
    its centre).  None when no split is found, a found one fails the
    exact check, or a type has no nondegenerate form."""
    targets = set(pivots)
    others = [g for g in range(algebra.dim) if g not in targets]
    at = {g: i for i, g in enumerate(others)}
    n = len(others)
    forms: Dict[int, Form] = {p: {} for p in pivots}
    for g, row in algebra._ad.items():
        for h, image in row.items():
            for p, c in image.items():
                forms[p].setdefault(at[g], {})[at[h]] = c
    reduced = _echelon(row for form in forms.values() for row in form.values())
    radical = _kernel(reduced, n)
    duals: List[Vector] = []
    classes = []
    for parity in (EVEN, ODD):
        cls = [p for p in pivots if algebra.parity(p) == parity]
        if len(cls) == 1:
            duals.append({cls[0]: 1})
        elif cls:
            # W: the leads of the class's forms, reduced's own when the
            # class holds every pivot
            echelon = reduced if len(cls) == len(pivots) else _echelon(
                row for p in cls for row in forms[p].values())
            found = _class_duals(forms, cls, sorted(echelon))
            if found is None:
                return None
            duals += found
        classes.append(len(duals))
    # K_s + R is the common radical of the forms B_{lambda_t}, t != s;
    # summing them per parity class keeps each sum homogeneous, and
    # x_f = 0 on R's free coordinates f leaves R out
    outside_r = [{f: 1} for f in range(n) if f not in reduced]
    spaces = []
    for s in range(len(duals)):
        rows = list(outside_r)
        for lo, hi in ((0, classes[0]), (classes[0], classes[1])):
            weights: Vector = {}
            for t in range(lo, hi):
                if t != s:
                    for p, c in duals[t].items():
                        weights[p] = weights.get(p, 0) + c
            rows += _combine(forms, weights).values()
        spaces.append(_kernel(_echelon(rows), n))
    parity = [algebra.parity(g) for g in others]
    centres = _checked(forms, parity, radical, spaces, [algebra.parity(p) for p in pivots])
    if centres is None:
        return None
    types = []
    for space, centre in zip(spaces, centres):
        odd = sum(parity[min(x)] for x in space)
        even, z = len(space) - odd, algebra.parity(min(centre))
        # an odd centre pairs K_s^0 with K_s^1; an even one is skew on K_s^0
        if (even != odd) if z == ODD else even % 2:
            return None
        types.append((even, odd, z))
    free = sum(1 for r in radical if parity[min(r)] == ODD)
    return types, (len(radical) - free, free)


def _class_duals(forms: Dict[int, Form], cls: List[int],
                 space: List[int]) -> Optional[List[Vector]]:
    """The functionals, over the pivots `cls` of one parity class, dual
    to the class's centre lines, or None.  W, the coordinates `space`
    (the leads of an echelon form of the class's forms' rows, so a
    coordinate complement of the class's common radical), carries the
    pencil: omega and B run through pairs of the class's forms, then of
    their combinations, until omega is nondegenerate on W and
    T = omega^-1 B has len(cls) rational eigenvalues, each eigenspace
    bracketing onto a line."""
    k = len(cls)
    at = {c: i for i, c in enumerate(space)}
    w = len(space)

    def on_space(weights) -> List[Vector]:
        form = _combine(forms, dict(zip(cls, weights)))
        return [{at[j]: x for j, x in form.get(c, {}).items() if j in at} for c in space]

    # single forms first, omega = B_{cls[i]} and B = B_{cls[j]}: T's
    # eigenvalues are then ratios of two coordinates of the centre
    # lines, the smallest numbers to find roots among.  Then the
    # weights t^i and (t + 1)^i: each part's omega-weight a_s(t) has at
    # most k - 1 roots, so t = 1..k(k - 1) + 1 reach a nondegenerate
    # omega if any exists
    units = [[int(a == i) for a in range(k)] for i in range(k)]
    pencils = [(units[i], units[j], (i, j)) for i in range(k) for j in range(k) if i != j]
    pencils += [([t ** i for i in range(k)], [(t + 1) ** i for i in range(k)], None)
                for t in range(1, k * k - k + 2)]
    for omega, other, pair in pencils:
        solved = _solve(on_space(omega), on_space(other), w)
        if solved is None:
            continue
        # N = D T as integer rows.  The roots of T's minimal polynomial
        # relative to a start vector, N's with coefficient i scaled by
        # D^i: the all-ones vector, then each unit vector, until k are
        # found (a start vector inside fewer eigenspaces finds fewer).
        # On a split T is diagonal over Q, for every nondegenerate
        # omega: an irrational or repeated root rules the split out
        denom, scaled = solved
        roots = set()
        for start in [dict.fromkeys(range(w), 1)] + [{j: 1} for j in range(w)]:
            poly = [c * denom ** i for i, c in enumerate(_min_poly(scaled, w, start))]
            g = gcd(*poly)
            found = _rational_roots([c // g for c in poly])
            if found is None or len(found) < len(poly) - 1:
                return None
            roots.update(found)
            if len(roots) >= k:
                break
        if len(roots) != k:
            continue
        if pair and k == 2:
            # T is c_sj / c_si on K_s, z_s = c_s0 cls[0] + c_s1 cls[1], so
            # the root num/den is the line den cls[i] + num cls[j] itself
            i, j = pair
            lines = [{a: c for a, c in ((i, den), (j, num)) if c} for num, den in sorted(roots)]
        else:
            lines = _eigen_lines(forms, cls, space, scaled, denom, sorted(roots))
            if lines is None:
                continue
        # lambda_s = column s of the inverse of the matrix of lines
        solved = _solve(lines, [{s: 1} for s in range(k)], k)
        if solved is None:
            return None
        _, inverse = solved
        return [{cls[i]: row[s] for i, row in enumerate(inverse) if s in row}
                for s in range(k)]
    return None


def _eigen_lines(forms: Dict[int, Form], cls: List[int], space: List[int],
                 scaled: List[Vector], denom: int, roots) -> Optional[List[Vector]]:
    """The centre line that each eigenspace of T = N / D on W, one per
    root num/den, brackets onto, or None when one brackets to 0."""
    w = len(space)
    lines = []
    for num, den in roots:
        # T x = (num/den) x  <=>  (den N - num D) x = 0
        rows = []
        for l in range(w):
            row = {j: den * x for j, x in scaled[l].items()}
            row[l] = row.get(l, 0) - num * denom
            rows.append(row)
        eigen = [{space[i]: x for i, x in v.items()} for v in _kernel(_echelon(rows), w)]
        line = _centre_line(forms, cls, eigen)
        if line is None:
            return None
        lines.append(line)
    return lines


def _centre_line(forms: Dict[int, Form], cls: List[int],
                 vectors: List[Vector]) -> Optional[Vector]:
    """The first nonzero bracket of two of `vectors`, as {i: its
    coordinate on the pivot cls[i]}; None when they all bracket to 0."""
    for i, x in enumerate(vectors):
        covectors = [_covector(forms[p], x) for p in cls]
        for y in vectors[i:]:
            line = {a: c for a, c in enumerate(_dot(cov, y) for cov in covectors) if c}
            if line:
                return line
    return None


def _checked(forms: Dict[int, Form], parity: List[int], radical: List[Vector],
             spaces: List[List[Vector]], pivot_parity: List[int]) -> Optional[list]:
    """Per part, its centre when the split passes the exact check, else
    None: the fully reduced echelon basis, over the pivots, of the span
    [K_s, K_s] of the brackets of the vectors of K_s.  The check: every
    vector has one parity;
    the K_s and R together are a basis of K; R is central;
    [K_s, K_t] = 0 for s != t; and the centres are independent and
    together span P."""
    vectors = radical + [x for space in spaces for x in space]
    if any(not x or len({parity[i] for i in x}) != 1 for x in vectors):
        return None
    if len(vectors) != len(parity) or len(_echelon(vectors)) != len(parity):
        return None
    if any(_covector(form, r) for r in radical for form in forms.values()):
        return None
    pivots = list(forms)
    covectors = [[[_covector(forms[p], x) for p in pivots] for x in space] for space in spaces]
    for s, space in enumerate(spaces):
        for t in range(s + 1, len(spaces)):
            for covs in covectors[s]:
                if any(_dot(cov, y) for cov in covs for y in spaces[t]):
                    return None
    out = []
    for space, covs in zip(spaces, covectors):
        centre = _echelon({p: _dot(cov, space[j]) for p, cov in zip(pivots, covs_x)}
                          for i, covs_x in enumerate(covs) for j in range(i, len(space)))
        if not centre:
            return None
        out.append(centre)
    rows = [row for centre in out for row in centre.values()]
    pivot_of = dict(zip(pivots, pivot_parity))
    if any(len({pivot_of[p] for p in row}) != 1 for row in rows):
        return None
    if len(rows) != len(pivots) or len(_echelon(rows)) != len(pivots):
        return None
    return out


def _combine(forms: Dict[int, Form], weights: Dict[int, int]) -> Form:
    """sum_p weights[p] B_p, with no stored zeros: B_p itself, not a
    copy, when it is the only form weighted, with weight 1."""
    used = [(p, c) for p, c in weights.items() if c]
    if len(used) == 1 and used[0][1] == 1:
        return forms[used[0][0]]
    out: Form = {}
    for p, c in used:
        for i, row in forms[p].items():
            acc = out.setdefault(i, {})
            for j, x in row.items():
                acc[j] = acc.get(j, 0) + c * x
    return {i: r for i, r in ((i, {j: x for j, x in row.items() if x})
                              for i, row in out.items()) if r}


def _covector(form: Form, x: Vector) -> Vector:
    """B(x, .) as {column: value}, with no stored zeros."""
    out: Vector = {}
    for i, a in x.items():
        for j, b in form.get(i, {}).items():
            out[j] = out.get(j, 0) + a * b
    return {j: v for j, v in out.items() if v}


def _dot(u: Vector, v: Vector) -> int:
    # a loop: a generator's frame costs more than the few terms
    total = 0
    for j, a in u.items():
        if j in v:
            total += a * v[j]
    return total


def _kernel(basis: Dict[int, Vector], n: int) -> List[Vector]:
    """An integer basis of the x in Q^n with row . x = 0 for every row of
    the fully reduced echelon `basis`: one vector per free column f,
    zero at every other free column."""
    users: Dict[int, List[int]] = {}
    for lead, row in basis.items():
        for j in row:
            if j != lead:
                users.setdefault(j, []).append(lead)
    out = []
    for f in range(n):
        if f in basis:
            continue
        leads = users.get(f, ())
        d = lcm(1, *(basis[l][l] for l in leads))
        x = {f: d}
        for l in leads:
            x[l] = -basis[l][f] * (d // basis[l][l])
        g = gcd(*x.values())
        out.append({j: v // g for j, v in x.items()})
    return out


def _solve(a_rows: List[Vector], b_rows: List[Vector], w: int
           ) -> Optional[Tuple[int, List[Vector]]]:
    """(D, N) with N = D A^-1 B as integer rows, for the w x w matrix A
    and the matrix B given by their rows; None when A is singular.  One
    Gauss-Jordan elimination of [A | B], B's columns shifted by w."""
    basis = _echelon({**a, **{w + j: x for j, x in b.items()}}
                     for a, b in zip(a_rows, b_rows))
    if sorted(basis) != list(range(w)):
        return None
    denom = lcm(*(basis[l][l] for l in range(w)))
    return denom, [{j - w: x * (denom // basis[l][l]) for j, x in basis[l].items() if j >= w}
                   for l in range(w)]


def _min_poly(rows: List[Vector], w: int, start: Vector) -> List[int]:
    """c_0..c_d, c_d > 0, the first linear dependence sum c_i N^i start = 0
    of the Krylov vectors of the w x w integer matrix N (its rows): the
    minimal polynomial of N relative to `start`.  Vector i carries the
    marker column 2w - i and goes into one echelon form, and the vectors
    stop at the first row led from column w on: that row is the
    dependence, led by the marker of its top power d."""
    basis: Dict[int, Vector] = {}

    def krylov():
        u = start
        for i in range(w + 1):
            yield {**u, 2 * w - i: 1}
            if max(basis) >= w:
                return
            u = {l: s for l, s in ((l, _dot(row, u)) for l, row in enumerate(rows)) if s}

    lead = max(_echelon(krylov(), basis))
    return [basis[lead].get(2 * w - i, 0) for i in range(2 * w - lead + 1)]


def _rational_roots(poly: List[int]) -> Optional[List[Tuple[int, int]]]:
    """The distinct rational roots p/q (q > 0, lowest terms) of the
    integer polynomial sum poly[i] t^i, or None when its end
    coefficients are over _ROOT_SEARCH_BOUND."""
    roots = []
    if poly[0] == 0:
        roots.append((0, 1))
        while poly[0] == 0:
            poly = poly[1:]
    first, last = abs(poly[0]), abs(poly[-1])
    if max(first, last) > _ROOT_SEARCH_BOUND:
        return None
    d = len(poly) - 1
    numerators = _divisors(first)
    for q in _divisors(last):
        for p in numerators:
            if gcd(p, q) == 1:
                for sp in (p, -p):
                    if sum(c * sp ** i * q ** (d - i) for i, c in enumerate(poly)) == 0:
                        roots.append((sp, q))
    return roots


def _divisors(m: int) -> List[int]:
    """The positive divisors of m > 0, by trial division."""
    out = []
    for a in range(1, isqrt(m) + 1):
        if m % a == 0:
            out += (a, m // a) if a * a != m else (a,)
    return out
