"""Finite-dimensional Lie superalgebras presented by structure constants.

A LieSuperalgebra stores an ordered list of named generators, each of
parity 0 (even) or 1 (odd), and a sparse table of brackets

    [g_i, g_j] = sum_k c_{ij}^k g_k        (stored only for i <= j),

with rational coefficients.  Brackets for i > j are derived from super
skew-symmetry, [x, y] = -(-1)^{|x||y|} [y, x].  The two families built
here are the Heisenberg superalgebras: an even-center family h_{n,m}
and an odd-center family h_n, both two-step nilpotent.

The constructor converts each coefficient once, into an int over one
scale L, the lcm of the reduced denominators, and keeps that table in
both index orders: every consumer of the structure constants (validate,
the adapted basis, bracket(), differential's d f_k, symmetry's copy
classes, directsum.split and cohomology's split gate) reads those ints.
`brackets` is a read-only Fraction view of the same table, built on
first read, which no engine path reads.  The algebra cannot be changed,
so the tables derived from it are kept on it (`_derived`), derived on
first use and never stale: the Fraction view, the Generator records,
the bracket targets (_targets), the adapted basis, the validity
verdict, and the copy classes symmetry finds.  The engine reads the
names and parities the constructor keeps (`_names`, `_parities`), so a
computation builds no Generator record.  Copy, deepcopy and pickle
rebuild an algebra through its constructor.  This module imports no
listing code.  require_valid is the one door that decides validity,
for the tables that come from outside: parse_algebra, betti_table and
cohomology_dims pass through it, so each such algebra is validated
once, on its adapted table.  The family constructors only build their
explicit tables, which are Lie superalgebras by construction; the
tests hold them to the axioms.  The adapted basis is computed on the
ints, fraction-free, by linalg._echelon, the package's one echelon
form: the one Fraction it makes per structure constant is the
rewritten constant itself, which the constructor of the rewritten
algebra scales back to ints.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, Tuple

from .limits import (AlgebraValidationError, even_family_shape,
                     odd_family_shape)
from .linalg import _echelon, _subtract
from .reports import _Record

EVEN = 0
ODD = 1


class Generator(_Record):
    """One generator: its name, its position and its parity."""

    __slots__ = ()

    def __new__(cls, name, index, parity):
        return tuple.__new__(cls, (name, index, parity))


class LieSuperalgebra:
    """Immutable structure-constant presentation of a Lie superalgebra.

    `generators` is a sequence of (name, parity) pairs or Generator
    records, kept as the tuples `_names` and `_parities`; the property
    `generators` gives the records, built on first read.  The bracket
    table maps index pairs (i, j) with i <= j to {target_index:
    coefficient}.
    The constructor drops zeros, converts each coefficient that is not
    an int to Fraction once, and keeps the table as ints over one scale
    L, the lcm of the reduced denominators: `_table` in the given pair
    and target order, with `_ad[i][j]` for both index orders, the super
    sign applied, and `_ad[i][j]` the row of `_table` itself for i <= j.
    It does not check the axioms; use validate() for that.  No attribute
    can be rebound and nothing reads the ints to change them, so
    `_derived`, the tables derived from them, cannot go stale.
    """

    __slots__ = ("name", "_names", "_parities", "_scale", "_table", "_ad", "_index_by_name",
                 "even_indices", "odd_indices", "_derived")

    def __init__(self, name: str, generators: Iterable, brackets: Mapping):
        names, parities = [], []
        for idx, g in enumerate(generators):
            if isinstance(g, Generator):
                if g.index != idx:
                    raise ValueError("generator %r listed at position %d" % (g, idx))
                g = g.name, g.parity
            gname, parity = g
            names.append(str(gname))
            # only a parity equal to 0 or 1 is converted; any other is refused below
            parities.append(int(parity) if parity in (EVEN, ODD) else parity)
        if not names:
            raise ValueError("an algebra needs at least one generator")
        by_name = {}
        for gname, parity in zip(names, parities):
            if parity not in (EVEN, ODD):
                raise ValueError("parity of %r must be 0 or 1" % gname)
            if gname in by_name:
                raise ValueError("duplicate generator name %r" % gname)
            by_name[gname] = len(by_name)
        dim = len(names)
        table, ad, scale, fractions = {}, {}, 1, False
        for (i, j), targets in brackets.items():
            if not (0 <= i <= j < dim):
                raise ValueError("bracket pair (%d, %d) out of range or unordered" % (i, j))
            cleaned = {}
            for k, c in targets.items():
                if not 0 <= k < dim:
                    raise ValueError("bracket target %d out of range" % k)
                if type(c) is not int:
                    c = c if type(c) is Fraction else Fraction(c)
                    scale, fractions = lcm(scale, c.denominator), True
                if c:
                    cleaned[k] = c
            if cleaned:
                table[(i, j)] = cleaned
        for (i, j), row in table.items():
            if fractions:
                # an int's numerator is itself and its denominator 1
                row = table[(i, j)] = {k: c.numerator * (scale // c.denominator)
                                       for k, c in row.items()}
            ad.setdefault(i, {})[j] = row
            # [x, y] = -(-1)^{|x||y|} [y, x]; ad[i][i] is the row itself
            flip = 1 if parities[i] and parities[j] else -1
            ad.setdefault(j, {}).setdefault(i, {k: flip * c for k, c in row.items()})
        for attr, value in (("name", str(name)), ("_names", tuple(names)),
                            ("_parities", tuple(parities)), ("_scale", scale), ("_table", table),
                            ("_ad", ad), ("_index_by_name", by_name), ("_derived", {}),
                            ("even_indices", tuple([g for g, p in enumerate(parities) if not p])),
                            ("odd_indices", tuple([g for g, p in enumerate(parities) if p]))):
            object.__setattr__(self, attr, value)

    def __setattr__(self, attr, value):
        # rebinding the table or the generators would leave _derived stale
        raise AttributeError("LieSuperalgebra is read-only")

    @property
    def brackets(self) -> Mapping:
        """The table {(i, j): {k: c_ij^k}}, i <= j, as Fractions in the
        given order; read-only, built on first read and kept."""
        if "brackets" not in self._derived:
            self._derived["brackets"] = MappingProxyType({
                pair: MappingProxyType({k: Fraction(c, self._scale) for k, c in row.items()})
                for pair, row in self._table.items()})
        return self._derived["brackets"]

    @property
    def generators(self) -> Tuple[Generator, ...]:
        """The Generator records, in order; built on first read and kept."""
        if "generators" not in self._derived:
            self._derived["generators"] = tuple(map(
                Generator, self._names, range(len(self._names)), self._parities))
        return self._derived["generators"]

    @property
    def dim(self) -> int:
        return len(self._names)

    @property
    def superdim(self) -> Tuple[int, int]:
        """(number of even generators, number of odd generators)."""
        return (len(self.even_indices), len(self.odd_indices))

    def parity(self, i: int) -> int:
        return self._parities[i]

    def index_of(self, name: str) -> int:
        try:
            return self._index_by_name[name]
        except KeyError:
            raise ValueError("unknown generator name %r" % name) from None

    def bracket(self, i: int, j: int) -> Dict[int, Fraction]:
        """[g_i, g_j] as a new {target: coefficient}, for any index order."""
        for g in (i, j):
            if not 0 <= g < self.dim:
                raise ValueError("generator index %d out of range" % g)
        return {k: Fraction(c, self._scale) for k, c in self._ad.get(i, {}).get(j, {}).items()}

    def __eq__(self, other) -> bool:
        if not isinstance(other, LieSuperalgebra):
            return NotImplemented
        # L is fixed by the reduced denominators, so equal ints over equal
        # L are equal Fraction tables
        return ((self.name, self._names, self._parities, self._scale, self._table)
                == (other.name, other._names, other._parities, other._scale, other._table))

    def __reduce__(self):
        # rebuilt through the constructor, which the read-only slots need
        return (LieSuperalgebra, (self.name, list(zip(self._names, self._parities)),
                                  {pair: dict(row) for pair, row in self.brackets.items()}))

    def __repr__(self) -> str:
        n0, n1 = self.superdim
        return "LieSuperalgebra(%r, dim=(%d|%d), brackets=%d)" % (
            self.name, n0, n1, len(self._table))


def _jacobi_defect(alg: LieSuperalgebra, a: int, b: int, c: int) -> Dict[int, int]:
    """Left side of the graded Jacobi identity on (a, b, c); {} if it holds.

    Computes (-1)^{|a||c|}[a,[b,c]] + (-1)^{|b||a|}[b,[c,a]]
    + (-1)^{|c||b|}[c,[a,b]] on the algebra's ints, so scaled by L^2.
    """
    ad = alg._ad
    out: Dict[int, int] = {}
    for (x, y, z) in ((a, b, c), (b, c, a), (c, a, b)):
        sign = -1 if alg._parities[x] * alg._parities[z] else 1
        for k, ck in ad.get(y, {}).get(z, {}).items():
            for l, cl in ad.get(x, {}).get(k, {}).items():
                out[l] = out.get(l, 0) + sign * ck * cl
    return {l: v for l, v in out.items() if v}


def validate(alg: LieSuperalgebra) -> list:
    """Check the Lie-superalgebra axioms; returns violation messages.

    Checks: no even generator has a nonzero self-bracket (skew-symmetry),
    every bracket is parity-homogeneous, and the graded Jacobi identity
    holds on every generator triple.  An empty list means the table is a
    genuine Lie superalgebra.

    A term [x,[y,z]] of the Jacobi sum is nonzero only if [y,z] has a
    target k with [x,k] != 0, so only the triples {x, y, z} built that
    way from the stored brackets are evaluated: the cost is
    O(nonzero brackets x partners) rather than O(dim^3).  They are
    visited in sorted order, the order of a full a <= b <= c loop.
    """
    issues = []
    names, parity = alg._names, alg._parities
    for (i, j), targets in sorted(alg._table.items()):
        if i == j and parity[i] == EVEN:
            issues.append("skew-symmetry: even generator %r has a nonzero self-bracket"
                          % names[i])
        want = parity[i] ^ parity[j]
        for k in sorted(targets):
            if parity[k] != want:
                issues.append("parity: [%s, %s] -> %s is not parity-homogeneous"
                              % (names[i], names[j], names[k]))
    triples = {tuple(sorted((x, i, j))) for (i, j), targets in alg._table.items()
               for k in targets for x in alg._ad.get(k, ())}
    for (a, b, c) in sorted(triples):
        defect = _jacobi_defect(alg, a, b, c)
        if defect:
            terms = " + ".join("%s*%s" % (Fraction(v, alg._scale ** 2), names[l])
                               for l, v in sorted(defect.items()))
            issues.append("jacobi: (%s, %s, %s) leaves %s"
                          % (names[a], names[b], names[c], terms))
    return issues


def adapted_basis(alg: LieSuperalgebra) -> LieSuperalgebra:
    """The same algebra in a sparse basis adapted to [g, g].

    Parity by parity, the exact RREF of the bracket images spans [g, g];
    the generator at each pivot position is replaced by its RREF row and
    every other generator stays, so the change of basis never mixes
    parities.  The structure constants are rewritten by bilinearity.
    Both steps run in integers, fraction-free: each RREF row is kept as
    an integer row over its positive pivot entry, and each rewritten
    constant is divided out once, as one Fraction.
    Name, generator names, parities and order are kept, and Betti
    numbers do not depend on the basis.  When every RREF row is a single
    generator the change is the identity and `alg` itself is returned;
    a table whose every bracket has a single target (both built-in
    families, in any generator order) echelons to such rows, so it is
    returned after one pass over the brackets, with no elimination.

    The rewrite visits only the pairs of new basis vectors that touch a
    nonzero bracket, so it costs O(nonzero brackets x row lengths), not
    O(dim^2), and a wide file reaches the engine's size refusals.  It is
    derived once per algebra and kept on it, so parse_algebra's check
    and the rank engine that follows share one.
    """
    if "adapted" not in alg._derived:
        brackets = _adapted_brackets(alg)
        alg._derived["adapted"] = (None if brackets is None else
                                   LieSuperalgebra(alg.name, zip(alg._names, alg._parities),
                                                   brackets))
    return alg._derived["adapted"] or alg


def _adapted_brackets(alg: LieSuperalgebra):
    """The nonzero brackets of alg in the adapted basis, or None when
    the change of basis is the identity, as it is without an echelon
    when every bracket has a single target.

    Pivot row p is kept as an integer vector r_p with r_p[p] > 0 and
    content gcd 1; the RREF row is r_p / r_p[p].  Every dict is updated
    in the order an elimination over Fraction updates it, so the pair
    order, the target order and the values match that elimination's."""
    # single targets echelon to unit rows, the identity, so only a
    # table with a bracket of two or more targets is eliminated
    if all(len(targets) == 1 for targets in alg._table.values()):
        return None
    ad = alg._ad
    parity = alg._parities

    def halves():
        # each bracket split by parity, even half first: a row of one
        # parity only reduces against rows of that parity.  A bracket of
        # one parity, as in a valid table, is its own half
        for row in alg._table.values():
            odd = {k: c for k, c in row.items() if parity[k]}
            if len(odd) < len(row):
                yield {k: c for k, c in row.items() if not parity[k]} if odd else row
            if odd:
                yield odd

    rows = _echelon(halves())
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

    # images[a][j] = L d_a [b_a, g_j] in the old coordinates, d_a =
    # row_a[a], for each b_a that touches a bracketing pair and is not
    # central: a central one, such as a pivot row of a two-step table,
    # brackets to 0 with every b_b, so none of its pairs is visited
    images: Dict[int, Dict[int, Dict[int, int]]] = {}
    for a in touching(ad):
        image: Dict[int, Dict[int, int]] = {}
        for i, x in rows.get(a, {a: 1}).items():
            for j, targets in ad.get(i, {}).items():
                acc = image.setdefault(j, {})
                for k, c in targets.items():
                    acc[k] = acc.get(k, 0) + x * c
        if any(any(acc.values()) for acc in image.values()):
            images[a] = image
    # D r_p / r_p[p] is an integer vector for every pivot p
    common = lcm(*(row[p] for p, row in rows.items()))
    # only pairs of basis vectors that touch a bracketing pair are
    # visited, so the cost follows the nonzero brackets, not dim^2
    brackets = {}
    for a, image in images.items():
        d_a = rows[a][a] if a in rows else 1
        for b in touching(image):
            if b < a or b not in images:
                continue
            row_b = rows.get(b, {b: 1})
            # w = L d_a d_b [b_a, b_b] in the old coordinates
            w: Dict[int, int] = {}
            for j, y in row_b.items():
                for k, c in image.get(j, {}).items():
                    w[k] = w.get(k, 0) + y * c
            # coordinates in the new basis, times D: D w[p] on pivot row
            # p, and D w[i] - sum_p w[p] (D / r_p[p]) r_p[i] on a
            # generator i that stays
            new = {k: common * c for k, c in w.items() if c}
            for p in [k for k in new if k in rows]:
                c = w[p]
                _subtract(new, c * (common // rows[p][p]), rows[p])
                new[p] = common * c
            if new:
                den = alg._scale * d_a * row_b[b] * common
                brackets[(a, b)] = {k: Fraction(c, den) for k, c in new.items()}
    return brackets


def _targets(alg: LieSuperalgebra) -> set:
    """The generators that some nonzero bracket of alg targets, derived
    once and kept on alg; callers do not change the set."""
    if "targets" not in alg._derived:
        alg._derived["targets"] = {k for t in alg._table.values() for k in t}
    return alg._derived["targets"]


def require_valid(alg: LieSuperalgebra) -> None:
    """Raise AlgebraValidationError unless alg is a Lie superalgebra.

    The axioms hold in every basis or in none, so the sparse table
    adapted_basis(alg) is validated, once per algebra: the verdict is
    kept on it beside the rewrite.  A failure lists validate(alg), whose
    messages name the generators of the table as given.
    """
    if "valid" not in alg._derived:
        alg._derived["valid"] = not validate(adapted_basis(alg))
    if not alg._derived["valid"]:
        raise AlgebraValidationError(validate(alg))


def make_heisenberg_even(n: int, m: int) -> LieSuperalgebra:
    """Heisenberg superalgebra h_{n,m} with even central element z.

    Generators: z (even), x_1..x_{2n} (even), y_1..y_m (odd); brackets
    [x_i, x_{n+i}] = z and [y_j, y_j] = z.  Superdimension (2n+1 | m).
    """
    name, _ = even_family_shape(n, m)
    return _heisenberg_even(name, n, m)


def _heisenberg_even(name: str, n: int, m: int) -> LieSuperalgebra:
    """h_{n,m} named `name`, for any n, m >= 0: make_heisenberg_even
    past its shape check, and the direct-sum route's canonical even
    part, where n or m may be 0."""
    gens = [("z", EVEN)]
    gens += [("x%d" % i, EVEN) for i in range(1, 2 * n + 1)]
    gens += [("y%d" % j, ODD) for j in range(1, m + 1)]
    brackets = {(i, n + i): {0: 1} for i in range(1, n + 1)}
    for j in range(1, m + 1):
        brackets[(2 * n + j, 2 * n + j)] = {0: 1}
    return LieSuperalgebra(name, gens, brackets)


def make_heisenberg_odd(n: int) -> LieSuperalgebra:
    """Heisenberg superalgebra h_n with odd central element z.

    Generators: x_1..x_n (even), y_1..y_n (odd), z (odd); brackets
    [x_i, y_i] = z.  Superdimension (n | n+1).
    """
    name, _ = odd_family_shape(n)
    gens = [("x%d" % i, EVEN) for i in range(1, n + 1)]
    gens += [("y%d" % i, ODD) for i in range(1, n + 1)]
    gens.append(("z", ODD))
    brackets = {(i - 1, n + i - 1): {2 * n: 1} for i in range(1, n + 1)}
    return LieSuperalgebra(name, gens, brackets)
