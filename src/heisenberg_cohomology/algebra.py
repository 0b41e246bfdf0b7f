"""Finite-dimensional Lie superalgebras presented by structure constants.

A LieSuperalgebra stores an ordered list of named generators, each of
parity 0 (even) or 1 (odd), and a sparse table of brackets

    [g_i, g_j] = sum_k c_{ij}^k g_k        (stored only for i <= j),

with rational coefficients.  Brackets for i > j are derived from super
skew-symmetry, [x, y] = -(-1)^{|x||y|} [y, x].  The two families built
here are the Heisenberg superalgebras: an even-center family h_{n,m}
and an odd-center family h_n, both two-step nilpotent.

The table is read-only, so the tables derived from it (the adapted
basis here, the coboundary's slot table in differential) are kept on
the algebra itself, derived on first use and never stale.
"""

from __future__ import annotations

from fractions import Fraction
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, Tuple

# AlgebraValidationError and the family shapes live in limits, which
# needs no engine module; they stay importable from here
from .limits import (AlgebraValidationError, even_family_shape,
                     odd_family_shape)

EVEN = 0
ODD = 1


class _Record:
    """Base of the package's record types: a `__slots__` class whose
    fields, `_fields`, are its `__slots__`, in order.

    It gives immutable value semantics: construction by position or
    keyword (TypeError on a missing or unknown field), equality and hash
    by the field tuple within one class, the repr
    `Name(field=value, ...)`, and no assignment or deletion.  Pickle and
    copy rebuild through the constructor, which also re-runs a
    subclass's checks.  No import or code generation happens when a
    subclass is defined, so the CLI starts without either.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = cls.__dict__.get("__slots__")
        if fields:  # a subclass that adds no slots keeps its parent's fields
            cls._fields = cls.__match_args__ = fields
            # the slots' own setters, which the refusing __setattr__ bypasses
            cls._setters = tuple(cls.__dict__[f].__set__ for f in fields)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._setters):
            args = self._arrange(args, kwargs)
        for set_field, value in zip(self._setters, args):
            set_field(self, value)

    def _arrange(self, args: tuple, kwargs: dict) -> list:
        """The field values in order, from positions and keywords."""
        fields = self._fields
        if len(args) > len(fields):
            raise TypeError("%s takes %d fields but %d were given"
                            % (type(self).__name__, len(fields), len(args)))
        values = dict(zip(fields, args))
        for name, value in kwargs.items():
            if name not in fields or name in values:
                raise TypeError("%s got an unexpected or repeated field %r"
                                % (type(self).__name__, name))
            values[name] = value
        missing = [f for f in fields if f not in values]
        if missing:
            raise TypeError("%s missing field(s) %s"
                            % (type(self).__name__, ", ".join(map(repr, missing))))
        return [values[f] for f in fields]

    def _values(self) -> tuple:
        """The field values, in field order."""
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (f, getattr(self, f)) for f in self._fields))

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def __reduce__(self):
        return type(self), self._values()


class Generator(_Record):
    """One generator: its name, its position and its parity."""

    __slots__ = ("name", "index", "parity")


class LieSuperalgebra:
    """Immutable structure-constant presentation of a Lie superalgebra.

    `generators` is a sequence of (name, parity) pairs; `brackets` maps
    index pairs (i, j) with i <= j to {target_index: coefficient}.  The
    constructor normalizes coefficients to Fraction and drops zeros but
    does not check the axioms; use validate() for that.  No attribute
    can be rebound, and the stored table and each of its target maps
    are read-only mappings, so `_derived`, the tables derived from it,
    cannot go stale.
    """

    __slots__ = ("name", "generators", "brackets", "_index_by_name",
                 "even_indices", "odd_indices", "_derived")

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
        table = {}
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
                table[(i, j)] = MappingProxyType(cleaned)
        fields = {"name": str(name), "generators": tuple(gens),
                  "brackets": MappingProxyType(table), "_index_by_name": by_name,
                  "even_indices": tuple(g.index for g in gens if g.parity == EVEN),
                  "odd_indices": tuple(g.index for g in gens if g.parity == ODD),
                  "_derived": {}}
        for attr, value in fields.items():
            object.__setattr__(self, attr, value)

    def __setattr__(self, attr, value):
        # rebinding brackets or generators would leave _derived stale
        raise AttributeError("LieSuperalgebra is read-only")

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
    generator the change is the identity and `alg` itself is returned.

    The rewrite visits only the pairs of new basis vectors that touch a
    nonzero bracket, so it costs O(nonzero brackets x row lengths), not
    O(dim^2), and a wide file reaches the engine's size refusals.  It is
    derived once per algebra and kept on it, so parse_algebra's check
    and the rank engine that follows share one.
    """
    if "adapted" not in alg._derived:
        brackets = _adapted_brackets(alg)
        alg._derived["adapted"] = (None if brackets is None else
                                   LieSuperalgebra(alg.name, alg.generators, brackets))
    return alg._derived["adapted"] or alg


def _adapted_brackets(alg: LieSuperalgebra):
    """The nonzero brackets of alg in the adapted basis, or None when
    the change of basis is the identity."""
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
        return None
    partners: Dict[int, Dict[int, Dict[int, Fraction]]] = {}
    for (i, j) in alg.brackets:
        partners.setdefault(i, {})[j] = alg.bracket(i, j)
        partners.setdefault(j, {})[i] = alg.bracket(j, i)
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
    for a in touching(partners):
        # ad[j] = [b_a, g_j] in the old coordinates
        ad: Dict[int, Dict[int, Fraction]] = {}
        for i, x in rows.get(a, {a: 1}).items():
            for j, targets in partners.get(i, {}).items():
                acc = ad.setdefault(j, {})
                for k, c in targets.items():
                    acc[k] = acc.get(k, 0) + x * c
        for b in touching(ad):
            if b < a:
                continue
            w: Dict[int, Fraction] = {}
            for j, y in rows.get(b, {b: 1}).items():
                for k, c in ad.get(j, {}).items():
                    w[k] = w.get(k, 0) + y * c
            # coordinates in the new basis: w[p] on pivot row p, and
            # w[i] - sum_p w[p] * row_p[i] on a generator i that stays
            new = {k: c for k, c in w.items() if c}
            for p in [k for k in new if k in rows]:
                c = w[p]
                _subtract(new, c, rows[p])
                new[p] = c
            if new:
                brackets[(a, b)] = new
    return brackets


def _built_in(name: str, gens, brackets) -> LieSuperalgebra:
    """A built-in family member, validated once: the verdict is kept on
    it, so the rank engine does not validate it again."""
    alg = LieSuperalgebra(name, gens, brackets)
    bad = validate(alg)
    if bad:
        raise AssertionError("%s failed validation: %s" % (name, bad))
    alg._derived["valid"] = True
    return alg


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
    return _built_in(name, gens, brackets)


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
    return _built_in(name, gens, brackets)
