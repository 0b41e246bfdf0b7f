"""Finite-dimensional Lie superalgebras presented by structure constants.

A LieSuperalgebra stores an ordered list of named generators, each of
parity 0 (even) or 1 (odd), and a sparse table of brackets

    [g_i, g_j] = sum_k c_{ij}^k g_k        (stored only for i <= j),

with rational coefficients.  Brackets for i > j are derived from super
skew-symmetry, [x, y] = -(-1)^{|x||y|} [y, x].  The two families built
here are the Heisenberg superalgebras: an even-center family h_{n,m}
and an odd-center family h_n, both two-step nilpotent.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Tuple

EVEN = 0
ODD = 1


class AlgebraValidationError(ValueError):
    """Bracket table that violates the axioms; `violations` lists how."""

    def __init__(self, violations: List[str]):
        super().__init__("algebra fails validation:\n  "
                         + "\n  ".join(violations))
        self.violations = list(violations)


@dataclass(frozen=True)
class Generator:
    name: str
    index: int
    parity: int


class LieSuperalgebra:
    """Immutable structure-constant presentation of a Lie superalgebra.

    `generators` is a sequence of (name, parity) pairs; `brackets` maps
    index pairs (i, j) with i <= j to {target_index: coefficient}.  The
    constructor normalizes coefficients to Fraction and drops zeros but
    does not check the axioms; use validate() for that.
    """

    __slots__ = ("name", "generators", "brackets", "_index_by_name",
                 "even_indices", "odd_indices")

    def __init__(self, name: str, generators: Iterable, brackets: Mapping):
        gens = []
        for idx, g in enumerate(generators):
            if isinstance(g, Generator):
                if g.index != idx:
                    raise ValueError("generator %r listed at position %d" % (g, idx))
                gens.append(g)
            else:
                gname, parity = g
                gens.append(Generator(str(gname), idx, int(parity)))
        if not gens:
            raise ValueError("an algebra needs at least one generator")
        by_name = {}
        for g in gens:
            if g.parity not in (EVEN, ODD):
                raise ValueError("parity of %r must be 0 or 1" % g.name)
            if g.name in by_name:
                raise ValueError("duplicate generator name %r" % g.name)
            by_name[g.name] = g.index
        dim = len(gens)
        table: Dict[Tuple[int, int], Dict[int, Fraction]] = {}
        for (i, j), targets in brackets.items():
            if not (0 <= i <= j < dim):
                raise ValueError("bracket pair (%d, %d) out of range or unordered" % (i, j))
            cleaned = {}
            for k, c in targets.items():
                if not 0 <= k < dim:
                    raise ValueError("bracket target %d out of range" % k)
                c = Fraction(c)
                if c:
                    cleaned[k] = c
            if cleaned:
                table[(i, j)] = cleaned
        self.name = str(name)
        self.generators = tuple(gens)
        self.brackets = table
        self._index_by_name = by_name
        self.even_indices = tuple(g.index for g in gens if g.parity == EVEN)
        self.odd_indices = tuple(g.index for g in gens if g.parity == ODD)

    @property
    def dim(self) -> int:
        return len(self.generators)

    @property
    def superdim(self) -> Tuple[int, int]:
        """(number of even generators, number of odd generators)."""
        return (len(self.even_indices), len(self.odd_indices))

    def parity(self, i: int) -> int:
        return self.generators[i].parity

    def index_of(self, name: str) -> int:
        try:
            return self._index_by_name[name]
        except KeyError:
            raise ValueError("unknown generator name %r" % name) from None

    def bracket(self, i: int, j: int) -> Dict[int, Fraction]:
        """[g_i, g_j] as {target: coefficient}, for any index order."""
        if i <= j:
            return dict(self.brackets.get((i, j), {}))
        base = self.brackets.get((j, i), {})
        # [x, y] = -(-1)^{|x||y|} [y, x]: symmetric only for odd-odd
        if self.parity(i) and self.parity(j):
            return dict(base)
        return {k: -c for k, c in base.items()}

    def __eq__(self, other) -> bool:
        if not isinstance(other, LieSuperalgebra):
            return NotImplemented
        return (self.name == other.name
                and self.generators == other.generators
                and self.brackets == other.brackets)

    def __repr__(self) -> str:
        n0, n1 = self.superdim
        return "LieSuperalgebra(%r, dim=(%d|%d), brackets=%d)" % (
            self.name, n0, n1, len(self.brackets))


def _jacobi_defect(alg: LieSuperalgebra, a: int, b: int, c: int) -> Dict[int, Fraction]:
    """Left side of the graded Jacobi identity on (a, b, c); {} if it holds.

    Computes (-1)^{|a||c|}[a,[b,c]] + (-1)^{|b||a|}[b,[c,a]]
    + (-1)^{|c||b|}[c,[a,b]] as a coefficient map.
    """
    out: Dict[int, Fraction] = {}
    for (x, y, z) in ((a, b, c), (b, c, a), (c, a, b)):
        sign = -1 if alg.parity(x) * alg.parity(z) else 1
        for k, ck in alg.bracket(y, z).items():
            for l, cl in alg.bracket(x, k).items():
                out[l] = out.get(l, Fraction(0)) + sign * ck * cl
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
    names = [g.name for g in alg.generators]
    for (i, j), targets in sorted(alg.brackets.items()):
        if i == j and alg.parity(i) == EVEN:
            issues.append("skew-symmetry: even generator %r has a nonzero self-bracket"
                          % names[i])
        want = (alg.parity(i) + alg.parity(j)) % 2
        for k in sorted(targets):
            if alg.parity(k) != want:
                issues.append("parity: [%s, %s] -> %s is not parity-homogeneous"
                              % (names[i], names[j], names[k]))
    partners: Dict[int, set] = {}
    for (i, j) in alg.brackets:
        partners.setdefault(i, set()).add(j)
        partners.setdefault(j, set()).add(i)
    triples = set()
    for (i, j), targets in alg.brackets.items():
        for k in targets:
            for x in partners.get(k, ()):
                triples.add(tuple(sorted((x, i, j))))
    for (a, b, c) in sorted(triples):
        defect = _jacobi_defect(alg, a, b, c)
        if defect:
            terms = " + ".join("%s*%s" % (v, names[l])
                               for l, v in sorted(defect.items()))
            issues.append("jacobi: (%s, %s, %s) leaves %s"
                          % (names[a], names[b], names[c], terms))
    return issues


def _subtract(v: Dict[int, Fraction], c: Fraction, row: Mapping) -> None:
    """v -= c * row, in place, dropping the coordinates that cancel."""
    for i, x in row.items():
        w = v.get(i, 0) - c * x
        if w:
            v[i] = w
        else:
            del v[i]


def adapted_basis(alg: LieSuperalgebra) -> LieSuperalgebra:
    """The same algebra in a sparse basis adapted to [g, g].

    Parity by parity, the exact RREF of the bracket images spans [g, g];
    the generator at each pivot position is replaced by its RREF row and
    every other generator stays, so the change of basis never mixes
    parities.  The structure constants are rewritten by bilinearity.
    Name, generator names, parities and order are kept, and Betti
    numbers do not depend on the basis.  When every RREF row is a single
    generator the change is the identity and `alg` itself is returned,
    at O(brackets) cost.
    """
    rows: Dict[int, Dict[int, Fraction]] = {}
    for targets in alg.brackets.values():
        for parity in (EVEN, ODD):
            # a row of one parity only reduces against rows of that parity
            v = {k: c for k, c in targets.items() if alg.parity(k) == parity}
            # every row is zero at the other pivots, so one pass reduces v
            for p in [k for k in v if k in rows]:
                _subtract(v, v[p], rows[p])
            if not v:
                continue
            lead = min(v)
            v = {i: x / v[lead] for i, x in v.items()}
            for row in rows.values():
                if lead in row:
                    _subtract(row, row[lead], v)
            rows[lead] = v
    if all(len(row) == 1 for row in rows.values()):
        return alg
    basis = [rows.get(a, {a: Fraction(1)}) for a in range(alg.dim)]
    partners: Dict[int, Dict[int, Dict[int, Fraction]]] = {}
    for (i, j) in alg.brackets:
        partners.setdefault(i, {})[j] = alg.bracket(i, j)
        partners.setdefault(j, {})[i] = alg.bracket(j, i)
    brackets = {}
    for a in range(alg.dim):
        # ad[j] = [b_a, g_j] in the old coordinates
        ad: Dict[int, Dict[int, Fraction]] = {}
        for i, x in basis[a].items():
            for j, targets in partners.get(i, {}).items():
                acc = ad.setdefault(j, {})
                for k, c in targets.items():
                    acc[k] = acc.get(k, 0) + x * c
        for b in range(a, alg.dim):
            w: Dict[int, Fraction] = {}
            for j, y in basis[b].items():
                for k, c in ad.get(j, {}).items():
                    w[k] = w.get(k, 0) + y * c
            # coordinates in the new basis: w[p] on pivot row p, and
            # w[i] - sum_p w[p] * row_p[i] on a generator i that stays
            new = dict(w)
            for p in [k for k, c in w.items() if c and k in rows]:
                _subtract(new, w[p], rows[p])
                new[p] = w[p]
            brackets[(a, b)] = new
    return LieSuperalgebra(alg.name, alg.generators, brackets)


def even_family_shape(n: int, m: int) -> Tuple[str, Tuple[int, int]]:
    """Name and superdimension (2n+1 | m) of h_{n,m}, without building it."""
    if n < 1 or m < 1:
        raise ValueError("h_{n,m} needs n >= 1 and m >= 1")
    return "h_{%d,%d}" % (n, m), (2 * n + 1, m)


def odd_family_shape(n: int) -> Tuple[str, Tuple[int, int]]:
    """Name and superdimension (n | n+1) of h_n, without building it."""
    if n < 1:
        raise ValueError("h_n needs n >= 1")
    return "h_%d" % n, (n, n + 1)


def make_heisenberg_even(n: int, m: int) -> LieSuperalgebra:
    """Heisenberg superalgebra h_{n,m} with even central element z.

    Generators: z (even), x_1..x_{2n} (even), y_1..y_m (odd); brackets
    [x_i, x_{n+i}] = z and [y_j, y_j] = z.  Superdimension (2n+1 | m).
    """
    name, _ = even_family_shape(n, m)
    gens = [("z", EVEN)]
    gens += [("x%d" % i, EVEN) for i in range(1, 2 * n + 1)]
    gens += [("y%d" % j, ODD) for j in range(1, m + 1)]
    brackets = {(i, n + i): {0: 1} for i in range(1, n + 1)}
    for j in range(1, m + 1):
        brackets[(2 * n + j, 2 * n + j)] = {0: 1}
    alg = LieSuperalgebra(name, gens, brackets)
    bad = validate(alg)
    if bad:
        raise AssertionError("%s failed validation: %s" % (name, bad))
    return alg


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
    alg = LieSuperalgebra(name, gens, brackets)
    bad = validate(alg)
    if bad:
        raise AssertionError("%s failed validation: %s" % (name, bad))
    return alg
