"""The monomial-level API of the super-exterior algebra: monomials,
elements, and the public matrix builders.

A superspace here is just a pair of dimensions: `even_count` generators
e_0, ..., e_{n-1} of parity 0 and `odd_count` generators o_0, ..., o_{m-1}
of parity 1.  In the super-exterior algebra the even generators
anticommute with each other and square to zero, odd generators commute
with each other (so arbitrary powers survive), and an even generator
anticommutes past an odd one.  Every product therefore reduces to a
rational combination of normal-form monomials

    e_{i_1} * ... * e_{i_k} * o_0^{a_0} * ... * o_{m-1}^{a_{m-1}},

with i_1 < ... < i_k, which is the basis enumerate_basis lists.  A
SuperMonomial is the tuple (even_mask, odd_exponents), so len,
iteration and tuple `<` apply to it; the canonical basis order is
`monomial_sort_key`, not tuple order.  _pack and _unpack turn a
monomial into its packed key (superexterior._units) and back.

SuperElement is a homogeneous rational combination of normal-form
monomials; wedge and wedge_monomials multiply them, dual_pairing and
element_pairing pair a dual monomial against a primal one (a
determinant over the even blocks times a permanent over the odd ones),
and d_generator, d_element and tau apply the coboundary to elements.

differential_matrix, lefschetz_block and psi_matrix build full
matrices over the canonical bases.  Each refuses a degree over
limits.MAX_Q_MAX and a codomain over CODOMAIN_ROWS_PER_COLUMN times its
column cap before anything is enumerated, takes a fresh
differential._Workspace, lists its keys with superexterior._keys over
the workspace's units, numbers its rows by them, and hands the
kernel's integer columns over as a RationalMatrix with scale 1/D,
unchecked.  lefschetz_block is the part of d that lowers the power of
an odd central dual by one; psi_matrix is that block of h_n with scale
(-1)^t / D.  What these return is never mutated.

Every d this module applies goes through the engine's one door into
the kernel, a _coboundary call on a fresh differential._Workspace:
d_generator is d_element of the dual f_k, d_element and tau one
_coboundary call that numbers its rows on first use, differential_matrix
one over the canonical rows, and lefschetz_block and psi_matrix the
rank engine's differential._lefschetz_block given the canonical rows.
So there is one implementation of d, and one refusal of a table the
kernel cannot take.  The tests, the demos and the README use this
module; no CLI verb imports it, and no engine module imports it, so a
computing run never loads it.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, combinations_with_replacement, repeat
from math import factorial, prod
from operator import add, itemgetter
from typing import (Dict, Iterable, Iterator, List, Mapping, NamedTuple,
                    Optional, Tuple, Union)

from .algebra import LieSuperalgebra, make_heisenberg_odd
from .differential import _coboundary, _lefschetz_block, _odd_centre, _Workspace
from .limits import (DEFAULT_COLUMN_CAP, _check_codomain, _check_psi_codomain,
                     check_degree, graded_dim)
from .linalg import RationalMatrix
from .reports import _Record
from .superexterior import _keys

Rational = Union[int, Fraction]


class SuperSpaceDims(NamedTuple):
    """Dimensions (even_count, odd_count) of a superspace."""

    even_count: int
    odd_count: int


class SuperMonomial(tuple):
    """The normal-form monomial e_S o^alpha as the tuple (even_mask, alpha).

    Bit i of `even_mask` marks i in S.  Built from `even_set` (S, strictly
    increasing) and `odd_exponents` (alpha), ints, whose length fixes the
    odd dimension: monomials over different superspaces never compare
    equal.
    """

    __slots__ = ()

    def __new__(cls, even_set: Iterable[int] = (), odd_exponents: Iterable[int] = ()):
        even_set, odd_exponents = tuple(even_set), tuple(odd_exponents)
        for v in even_set + odd_exponents:
            if not isinstance(v, int):
                raise TypeError("SuperMonomial takes int indices and exponents, "
                                "not %r" % (v,))
        mask = 0
        for i in even_set:
            if i < 0:
                raise ValueError("even generator indices must be nonnegative")
            bit = 1 << i
            if bit <= mask:
                raise ValueError("even indices must be strictly increasing")
            mask |= bit
        if odd_exponents and min(odd_exponents) < 0:
            raise ValueError("odd exponents must be nonnegative")
        return tuple.__new__(cls, (mask, odd_exponents))

    def __getnewargs__(self):
        return (self.even_set, self.odd_exponents)

    even_mask = property(itemgetter(0))
    odd_exponents = property(itemgetter(1))

    @property
    def even_set(self) -> Tuple[int, ...]:
        mask = self.even_mask
        return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)

    @property
    def even_degree(self) -> int:
        return self.even_mask.bit_count()

    @property
    def odd_degree(self) -> int:
        return sum(self.odd_exponents)

    @property
    def degree(self) -> int:
        return self.even_degree + self.odd_degree

    @property
    def parity(self) -> int:
        return self.odd_degree & 1

    def factors(self) -> Iterator[Tuple[str, int]]:
        """Canonical degree-1 factor sequence: evens ascending, then odds."""
        for i in self.even_set:
            yield ("e", i)
        for j, a in enumerate(self.odd_exponents):
            for _ in range(a):
                yield ("o", j)

    def __repr__(self) -> str:
        return "SuperMonomial(%r, %r)" % (self.even_set, self.odd_exponents)

    def __str__(self) -> str:
        parts = ["e%d" % i for i in self.even_set]
        for j, a in enumerate(self.odd_exponents):
            if a == 1:
                parts.append("o%d" % j)
            elif a > 1:
                parts.append("o%d^%d" % (j, a))
        return "*".join(parts) if parts else "1"


def _monomial(mask: int, odd_exponents: Tuple[int, ...]) -> SuperMonomial:
    # unchecked: for keys that are normal forms by construction
    return tuple.__new__(SuperMonomial, (mask, odd_exponents))


def monomial_sort_key(mono: SuperMonomial):
    """Sort key realizing the basis order used by enumerate_basis."""
    return (-mono.even_degree, mono.even_set,
            tuple(-a for a in mono.odd_exponents))


def enumerate_basis(dims: SuperSpaceDims, q: int) -> List[SuperMonomial]:
    """Degree-q basis monomials over `dims`, in the canonical order.

    The order is: more even factors first, then even index sets in
    ascending lexicographic order, then odd exponent tuples in
    descending lexicographic order, that of superexterior._keys over
    ascending units.  enumerate_basis(dims, q) always has
    graded_dim(dims, q) entries.
    """
    n, m = dims
    if n < 0 or m < 0:
        raise ValueError("dimensions must be nonnegative")
    if q < 0:
        return []
    # index multisets come in lexicographic order, which is descending
    # lexicographic order of the exponent tuples; each exponent tuple is
    # built once and shared over the even masks
    monomials = []
    for q0 in range(min(q, n), -1, -1):
        alphas = tuple(map(_exponents, combinations_with_replacement(range(m), q - q0),
                           repeat(m)))
        if not alphas:
            continue
        for bits in combinations([1 << i for i in range(n)], q0):
            mask = sum(bits)
            monomials.extend([_monomial(mask, alpha) for alpha in alphas])
    return monomials


def _exponents(multiset: Tuple[int, ...], m: int) -> Tuple[int, ...]:
    """The exponent tuple, of length m, of an odd index multiset."""
    alpha = [0] * m
    for j in multiset:
        alpha[j] += 1
    return tuple(alpha)


def _pack(mono: SuperMonomial, n: int, radix: int) -> int:
    """The key of a monomial over n even duals: even_mask plus
    sum_j alpha_j radix^j shifted past the mask; every alpha_j < radix."""
    odd = 0
    for a in reversed(mono.odd_exponents):
        odd = odd * radix + a
    return mono.even_mask + (odd << n)


def _unpack(key: int, dims: SuperSpaceDims, radix: int) -> SuperMonomial:
    """The monomial over `dims` whose key is `key` (inverse of _pack);
    it stops at the last nonzero exponent."""
    n, m = dims
    odd = key >> n
    alpha = [0] * m
    j = 0
    while odd:
        odd, alpha[j] = divmod(odd, radix)
        j += 1
    return _monomial(key & ((1 << n) - 1), tuple(alpha))


def wedge_monomials(a: SuperMonomial, b: SuperMonomial):
    """Product of two normal-form monomials.

    Returns None when the product vanishes (a repeated even generator),
    otherwise (sign, monomial) with sign in {1, -1}: commuting the odd
    block of `a` past the even block of `b` costs one sign per crossing,
    and merging the two even blocks costs one sign per inversion.
    """
    if len(a.odd_exponents) != len(b.odd_exponents):
        raise ValueError("monomials live over different odd dimensions")
    am = a.even_mask
    if am & b.even_mask:
        return None
    swaps = a.odd_degree * b.even_degree
    for j in b.even_set:
        swaps += (am >> (j + 1)).bit_count()
    odds = tuple(map(add, a.odd_exponents, b.odd_exponents))
    return (-1 if swaps & 1 else 1), _monomial(am | b.even_mask, odds)


class SuperElement:
    """A homogeneous rational linear combination of SuperMonomials.

    Homogeneous means every monomial has the same total degree and the
    same parity (and lives over the same odd dimension); the zero
    element is the empty combination.  `terms` is a mapping or an
    iterable of (monomial, coefficient) pairs; the constructor sums like
    terms and drops zeros, so sums and products hand it their terms
    unmerged.  Instances are treated as immutable: do not mutate `terms`
    after construction.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        data = {}
        for mono, coeff in items:
            if not isinstance(mono, SuperMonomial):
                raise TypeError("keys must be SuperMonomials")
            if isinstance(coeff, float):
                raise TypeError("the coefficient of %r is the float %r; a float is not "
                                "exact" % (mono, coeff))
            data[mono] = data.get(mono, 0) + Fraction(coeff)
        data = {m: c for m, c in data.items() if c}
        shapes = {(m.degree, m.parity, len(m.odd_exponents)) for m in data}
        if len(shapes) > 1:
            raise ValueError("inhomogeneous combination: %s" % sorted(shapes))
        self.terms = data

    @classmethod
    def zero(cls) -> "SuperElement":
        return cls()

    @classmethod
    def from_monomial(cls, mono: SuperMonomial, coeff: Rational = 1) -> "SuperElement":
        return cls({mono: coeff})

    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree(self):
        """Common total degree of the terms; None for the zero element."""
        for m in self.terms:
            return m.degree
        return None

    @property
    def parity(self):
        for m in self.terms:
            return m.parity
        return None

    def coefficient(self, mono: SuperMonomial) -> Fraction:
        return self.terms.get(mono, Fraction(0))

    def __add__(self, other):
        if not isinstance(other, SuperElement):
            return NotImplemented
        return SuperElement([*self.terms.items(), *other.terms.items()])

    def __sub__(self, other):
        if not isinstance(other, SuperElement):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return SuperElement({m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, SuperElement):
            return wedge(self, other)
        if isinstance(other, (int, Fraction)):
            return SuperElement({m: c * other for m, c in self.terms.items()})
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __eq__(self, other) -> bool:
        if not isinstance(other, SuperElement):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self) -> str:
        if not self.terms:
            return "SuperElement(0)"
        bits = []
        for m in sorted(self.terms, key=monomial_sort_key):
            bits.append("%s*%s" % (self.terms[m], m))
        return "SuperElement(%s)" % " + ".join(bits)


def wedge(a: SuperElement, b: SuperElement) -> SuperElement:
    """Bilinear extension of the monomial product to elements."""
    terms = []
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            hit = wedge_monomials(ma, mb)
            if hit is not None:
                sign, mono = hit
                terms.append((mono, sign * ca * cb))
    # the constructor sums the terms that land on one monomial
    return SuperElement(terms)


def dual_pairing(alpha: SuperMonomial, u: SuperMonomial) -> Fraction:
    """Pair a dual-basis monomial `alpha` against a primal monomial `u`.

    The pairing is a determinant over the even blocks times a permanent
    over the odd blocks.  On normal forms the determinant is 1 exactly
    when the even index sets agree, and the permanent counts the
    prod_j (odd exponent_j)! matchings of equal odd factors, so the value
    is that product when alpha == u and 0 otherwise.
    """
    if len(alpha.odd_exponents) != len(u.odd_exponents):
        raise ValueError("monomials live over different odd dimensions")
    if alpha != u:
        return Fraction(0)
    return Fraction(prod(map(factorial, alpha.odd_exponents)))


def element_pairing(dual: SuperElement, primal: SuperElement) -> Fraction:
    """Bilinear extension of dual_pairing."""
    total = Fraction(0)
    for ma, ca in dual.terms.items():
        for mu, cu in primal.terms.items():
            val = dual_pairing(ma, mu)
            if val:
                total += ca * cu * val
    return total


def d_generator(algebra: LieSuperalgebra, k: int) -> SuperElement:
    """Coboundary of the k-th dual generator, as a degree-2 element:
    d_element of its dual f_k."""
    if not isinstance(k, int):
        raise TypeError("generator index %r is not an int" % (k,))
    if not 0 <= k < algebra.dim:
        raise ValueError("generator index %d out of range" % k)
    n1 = algebra.superdim[1]
    if algebra._parities[k]:
        f_k = _monomial(0, _exponents((algebra.odd_indices.index(k),), n1))
    else:
        f_k = _monomial(1 << algebra.even_indices.index(k), (0,) * n1)
    return d_element(algebra, SuperElement.from_monomial(f_k))


def d_element(algebra: LieSuperalgebra, elem: SuperElement) -> SuperElement:
    """Coboundary of a homogeneous element over the algebra's dual
    superdimension: one _coboundary call on its monomials' keys, whose
    rows it numbers on first use."""
    n0, n1 = algebra.superdim
    monos = list(elem.terms)
    for mono in monos:
        # the kernel would silently truncate or mis-index these
        if len(mono.odd_exponents) != n1 or mono.even_mask >> n0:
            raise ValueError("%s is not a cochain of %s, whose dual "
                             "superdimension is (%d|%d)"
                             % (mono, algebra.name, n0, n1))
    workspace = _Workspace(algebra, (elem.degree or 0) + 1)
    radix = workspace.radix
    row_index: Dict[int, int] = {}
    mat = _coboundary(workspace, [_pack(mono, n0, radix) for mono in monos], row_index)
    image: Dict[int, Fraction] = {}
    for mono, col in zip(monos, mat.columns):
        coeff = elem.terms[mono]
        for r, v in col.items():
            image[r] = image.get(r, 0) + coeff * v
    rows = list(row_index)
    return SuperElement({_unpack(rows[r], workspace.dims, radix): c * mat.scale
                         for r, c in image.items()})


def tau(n: int, l: int) -> SuperElement:
    """The element tau_{(n,l)} = d((z-dual)^l) for the odd-center family h_n.

    It lives over dual dims (n, n+1), the z-dual being the last odd slot,
    and equals l * (sum_i -e_i o_i) * (z-dual)^{l-1}.
    """
    if n < 1 or l < 1:
        raise ValueError("tau needs n >= 1 and l >= 1")
    zpow = SuperMonomial((), (0,) * n + (l,))
    return d_element(make_heisenberg_odd(n), SuperElement.from_monomial(zpow))


def _space(workspace: _Workspace, q: int, skip: Optional[int] = None) -> List[int]:
    """The keys of the workspace's cochains of degree q, in the
    canonical order: superexterior._keys over its units, with `skip`, an
    odd generator, those of the cochains without its dual."""
    algebra, unit = workspace.algebra, workspace.unit
    return _keys([unit[g] for g in algebra.even_indices],
                 [unit[g] for g in algebra.odd_indices if g != skip], q)


class DifferentialMatrix(_Record):
    """d_q : C^q -> C^{q+1} over the canonical bases of both sides: the
    degree q, the domain and codomain as tuples of SuperMonomial, and
    the RationalMatrix."""

    __slots__ = ()

    def __new__(cls, q, domain, codomain, matrix):
        return tuple.__new__(cls, (q, domain, codomain, matrix))


def differential_matrix(algebra: LieSuperalgebra, q: int,
                        column_cap: int = DEFAULT_COLUMN_CAP) -> DifferentialMatrix:
    """Matrix of the coboundary in degree q (columns indexed by C^q);
    refuses q over MAX_Q_MAX, and a codomain C^{q+1} over
    CODOMAIN_ROWS_PER_COLUMN times `column_cap`, before enumerating
    anything."""
    if q < 0:
        raise ValueError("degree must be nonnegative")
    check_degree(q)
    _check_codomain(algebra.name, q, graded_dim(algebra.superdim, q + 1),
                    column_cap)
    workspace = _Workspace(algebra, q + 1)
    codomain = _space(workspace, q + 1)
    mat = _coboundary(workspace, _space(workspace, q),
                      dict(zip(codomain, range(len(codomain)))))
    # the listing gives the monomials of the keys, in the same order,
    # without unpacking each key one digit at a time
    return DifferentialMatrix(q, tuple(enumerate_basis(algebra.superdim, q)),
                              tuple(enumerate_basis(algebra.superdim, q + 1)), mat)


def lefschetz_block(algebra: LieSuperalgebra, z: int, t: int, l: int,
                    column_cap: int = DEFAULT_COLUMN_CAP) -> RationalMatrix:
    """d from A^t (z-dual)^l to A^{t+2} (z-dual)^{l-1}, scale 1/D.

    z is an odd generator, A the cochains on every other dual.  When
    the z-dual f_z is the only dual with a nonzero d and no term of
    omega = d f_z contains it, the cochains are A (x) k[f_z] and the
    Leibniz rule gives
    d(alpha f_z^l) = (-1)^t l (alpha omega) f_z^{l-1}: this matrix is
    (-1)^t l times L^(t), multiplication by omega from A^t to A^{t+2}.
    It is the rank engine's block (differential._lefschetz_block) on
    all of A^t, f_z^l put in z's odd slot, which may be any slot; the
    rows are A^{t+2}'s keys with f_z^{l-1}, in the canonical order.
    For t < 0 the domain is empty.  An l below 1, a z
    that is not an odd generator, a table that breaks the precondition
    (z is not its _odd_centre), a degree t + l over MAX_Q_MAX and a
    codomain A^{t+2} over CODOMAIN_ROWS_PER_COLUMN times `column_cap`
    are refused before anything is enumerated.
    """
    if l < 1:
        raise ValueError("lefschetz_block needs l >= 1, not %r" % (l,))
    if z not in algebra.odd_indices:
        raise ValueError("z = %r is not an odd generator of %s" % (z, algebra.name))
    if _odd_centre(algebra) != z:
        raise ValueError("z = %r (%s) is not the odd centre of %s: it must be the "
                         "only bracket target and in no bracket"
                         % (z, algebra.generators[z].name, algebra.name))
    check_degree(t + l)
    n0, n1 = algebra.superdim
    _check_codomain(algebra.name, t, graded_dim((n0, n1 - 1), t + 2),
                    column_cap, "codomain A^%d" % (t + 2))
    workspace = _Workspace(algebra, t + l + 1)
    return _lefschetz_block(workspace, z, t, l, _space(workspace, t, z),
                            _space(workspace, t + 2, z))


def psi_matrix(t: int, n: int, l: int,
               column_cap: int = DEFAULT_COLUMN_CAP) -> RationalMatrix:
    """Right multiplication by tau_{(n,l)} on z-dual-free cochains.

    Domain: degree-t monomials over dims (n, n); codomain: degree-(t+2)
    monomials over (n, n), the constant (z-dual)^{l-1} factor dropped.
    For t < 0 the domain is empty.

    It is h_n's Lefschetz block: d kills every dual but the z-dual's, so
    for z-dual-free omega of degree t the Leibniz rule gives
    omega * tau = (-1)^t d(omega * (z-dual)^l), which is
    lefschetz_block(h_n, z, t, l) with scale (-1)^t / D.  Like that
    block, it refuses t + l over MAX_Q_MAX and a codomain over
    CODOMAIN_ROWS_PER_COLUMN times `column_cap`, here before h_n is
    built.
    """
    if n < 1 or l < 1:
        raise ValueError("psi needs n >= 1 and l >= 1")
    check_degree(t + l)
    _check_psi_codomain(n, t, column_cap)
    block = lefschetz_block(make_heisenberg_odd(n), 2 * n, t, l, column_cap)
    if t & 1:
        # the same integer columns, the scale times -1
        return RationalMatrix._wrap(block.rows, block.columns, -block.scale)
    return block
