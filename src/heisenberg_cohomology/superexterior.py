"""Normal-form arithmetic in the super-exterior algebra of a superspace.

A superspace here is just a pair of dimensions: `even_count` generators
e_0, ..., e_{n-1} of parity 0 and `odd_count` generators o_0, ..., o_{m-1}
of parity 1.  In the super-exterior algebra the even generators
anticommute with each other and square to zero, odd generators commute
with each other (so arbitrary powers survive), and an even generator
anticommutes past an odd one.  Every product therefore reduces to a
rational combination of normal-form monomials

    e_{i_1} * ... * e_{i_k} * o_0^{a_0} * ... * o_{m-1}^{a_{m-1}},

with i_1 < ... < i_k, which is the basis enumerated and paired below.

A SuperMonomial is the tuple (even_mask, odd_exponents), so len,
iteration and tuple `<` apply to it; the canonical basis order is
`monomial_sort_key`, not tuple order.  The coboundary kernel indexes
packed keys instead: enumerate_basis lists each monomial as the one
int even_mask + (sum_j alpha_j B^j << n), n the even count, and returns
those keys when given the radix B, or their monomials, in the same
order (_pack and _unpack convert).  B must exceed every exponent, and
is odd: CPython hashes an int modulo 2^61 - 1, under which the powers
of a power-of-two radix repeat with period 61 bits, so wide keys of
such a radix share a few hash values.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, combinations_with_replacement, repeat
from math import factorial, prod
from operator import add, itemgetter
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional, Tuple, Union

# the dimension counts live in limits, which needs no engine module;
# they stay importable from here
from .limits import graded_dim, sym_power_dim

Rational = Union[int, Fraction]


class SuperSpaceDims(NamedTuple):
    """Dimensions (even_count, odd_count) of a superspace."""

    even_count: int
    odd_count: int


class SuperMonomial(tuple):
    """The normal-form monomial e_S o^alpha as the tuple (even_mask, alpha).

    Bit i of `even_mask` marks i in S.  Built from `even_set` (S, strictly
    increasing) and `odd_exponents` (alpha), whose length fixes the odd
    dimension: monomials over different superspaces never compare equal.
    """

    __slots__ = ()

    def __new__(cls, even_set: Iterable[int] = (), odd_exponents: Iterable[int] = ()):
        odd_exponents = tuple(odd_exponents)
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


def _radix(degree: int) -> int:
    """The smallest odd integer above `degree`: the radix of the keys of
    cochains of degree at most `degree`, so no exponent, even of a
    d-term's image, carries into the next slot.  It is odd so that wide
    keys spread over CPython's int hash, which is taken modulo
    2^61 - 1; the powers of 2 repeat under it every 61 bits."""
    return degree + 1 | 1


def enumerate_basis(dims: SuperSpaceDims, q: int, without: Optional[int] = None,
                    radix: Optional[int] = None):
    """Degree-q basis monomials over `dims`, in the canonical order.

    The order is: more even factors first, then even index sets in
    ascending lexicographic order, then odd exponent tuples in
    descending lexicographic order.  enumerate_basis(dims, q) always has
    graded_dim(dims, q) entries.

    With `without`, an odd generator's position, only the monomials in
    which it has exponent 0, in the same order: the basis of the
    cochains without that dual, graded_dim((n, m - 1), q) entries.

    With `radix`, an integer above q (odd, for the hash: see above),
    each monomial comes as its packed int key (_pack), in the same
    order.
    """
    n, m = dims
    if n < 0 or m < 0:
        raise ValueError("dimensions must be nonnegative")
    if without is not None and not 0 <= without < m:
        raise ValueError("no odd generator %d among %d" % (without, m))
    keys = []
    if q < 0:
        return keys
    # index multisets come in lexicographic order, which is descending
    # lexicographic order of the exponent tuples.  A factor is an odd
    # index, or its unit in a key, whose odd part is the factors' sum;
    # each odd part is built once and shared over the even masks
    slots = [j for j in range(m) if j != without]
    factors = slots if radix is None else [radix ** j << n for j in slots]
    for q0 in range(min(q, n), -1, -1):
        multisets = combinations_with_replacement(factors, q - q0)
        alphas = tuple(map(_exponents, multisets, repeat(m)) if radix is None
                       else map(sum, multisets))
        if not alphas:
            continue
        for bits in combinations([1 << i for i in range(n)], q0):
            mask = sum(bits)
            keys.extend([_monomial(mask, alpha) for alpha in alphas] if radix is None
                        else [mask + alpha for alpha in alphas])
    return keys


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
