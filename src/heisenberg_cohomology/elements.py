"""The element-level reference API of the super-exterior algebra.

SuperElement is a homogeneous rational combination of normal-form
monomials; wedge and wedge_monomials multiply them, dual_pairing and
element_pairing pair a dual monomial against a primal one (a
determinant over the even blocks times a permanent over the odd ones),
and d_generator, d_element and tau apply the coboundary to elements,
through the engine's integer kernel.  The tests, the demos and the
README use it; no CLI verb imports it, and no engine module imports
it, so a computing run never loads it.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, prod
from operator import add
from typing import Dict, Mapping, Union

from .algebra import LieSuperalgebra, make_heisenberg_odd
from .differential import _d_columns, _d_duals, _RowIndex, _Workspace
from .superexterior import (SuperMonomial, _exponents, _monomial, _pack, _unpack,
                            monomial_sort_key)

Rational = Union[int, Fraction]


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
    element is the empty combination.  Instances are treated as
    immutable: do not mutate `terms` after construction.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        data = {}
        for mono, coeff in items:
            if not isinstance(mono, SuperMonomial):
                raise TypeError("keys must be SuperMonomials")
            coeff = Fraction(coeff)
            if mono in data:
                data[mono] += coeff
            else:
                data[mono] = coeff
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
        merged = dict(self.terms)
        for m, c in other.terms.items():
            if m in merged:
                merged[m] += c
            else:
                merged[m] = c
        return SuperElement(merged)

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
            return SuperElement({m: other * c for m, c in self.terms.items()})
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
    out = {}
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            hit = wedge_monomials(ma, mb)
            if hit is None:
                continue
            sign, mono = hit
            c = ca * cb if sign > 0 else -ca * cb
            if mono in out:
                out[mono] += c
            else:
                out[mono] = c
    return SuperElement(out)


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
    """Coboundary of the k-th dual generator, as a degree-2 element."""
    if not 0 <= k < algebra.dim:
        raise ValueError("generator index %d out of range" % k)
    terms, refused = _d_duals(algebra)
    if k in refused:
        raise ValueError(refused[k])
    m = algebra.superdim[1]
    return SuperElement({_monomial(mask, _exponents(odds, m)): Fraction(c, denom)
                         for mask, _, odds, c, denom in terms.get(k, ())})


def d_element(algebra: LieSuperalgebra, elem: SuperElement) -> SuperElement:
    """Coboundary of a homogeneous element over the algebra's dual
    superdimension, through the same integer kernel as the matrices."""
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
    row_index = _RowIndex()
    columns = _d_columns(workspace, [_pack(mono, n0, radix) for mono in monos],
                         row_index)
    image: Dict[int, Fraction] = {}
    for mono, col in zip(monos, columns):
        coeff = elem.terms[mono]
        for r, v in col.items():
            image[r] = image.get(r, 0) + coeff * v
    rows = list(row_index)
    return SuperElement({_unpack(rows[r], workspace.dims, radix): c / workspace.denom
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
