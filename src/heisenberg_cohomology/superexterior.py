"""Normal-form monomials of the super-exterior algebra of a superspace,
and the listing of its graded pieces.

A superspace here is just a pair of dimensions: `even_count` generators
e_0, ..., e_{n-1} of parity 0 and `odd_count` generators o_0, ..., o_{m-1}
of parity 1.  In the super-exterior algebra the even generators
anticommute with each other and square to zero, odd generators commute
with each other (so arbitrary powers survive), and an even generator
anticommutes past an odd one.  Every product therefore reduces to a
rational combination of normal-form monomials

    e_{i_1} * ... * e_{i_k} * o_0^{a_0} * ... * o_{m-1}^{a_{m-1}},

with i_1 < ... < i_k, which is the basis enumerated below.  Elements,
their products and pairings are in the elements module.

A SuperMonomial is the tuple (even_mask, odd_exponents), so len,
iteration and tuple `<` apply to it; the canonical basis order is
`monomial_sort_key`, not tuple order.  The coboundary kernel indexes
packed keys instead: the key of e_S o^alpha is the one int
even_mask + sum_j alpha_j u_j, u_j = B^j << n the key of degree 1 of
o_j, n the even count.  _units is the one place that lays keys out:
every key builder reads its keys of degree 1 (enumerate_basis, the
coboundary workspace's d-term deltas and Lefschetz shifts, the orbit
listing), and _pack and _unpack are its inverses.  enumerate_basis
returns the keys when given the radix B, or their monomials, in the
same order.  B must exceed every exponent, and is odd: CPython hashes
an int modulo 2^61 - 1, under which the powers of a power-of-two radix
repeat with period 61 bits, so wide keys of such a radix share a few
hash values.  The keys come from _keys, the
package's one listing of keys over lists of degree-1 keys, which the
rank engine's orbit listing (symmetry.OrbitListing) calls too.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement, repeat
from operator import itemgetter
from typing import Iterable, Iterator, List, NamedTuple, Optional, Tuple

# the dimension counts live in limits, which needs no engine module;
# they stay importable from here
from .limits import graded_dim, sym_power_dim


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
    order; a radix not above q is refused, as two keys could collide.
    """
    n, m = dims
    if n < 0 or m < 0:
        raise ValueError("dimensions must be nonnegative")
    if without is not None and not 0 <= without < m:
        raise ValueError("no odd generator %d among %d" % (without, m))
    if radix is not None and q >= radix:
        raise ValueError("degree %d does not fit radix %d" % (q, radix))
    if q < 0:
        return []
    slots = [j for j in range(m) if j != without]
    if radix is not None:
        evens, odds = _units(dims, radix)
        return _keys(evens, [odds[j] for j in slots], q)
    # index multisets come in lexicographic order, which is descending
    # lexicographic order of the exponent tuples; each exponent tuple is
    # built once and shared over the even masks
    monomials = []
    for q0 in range(min(q, n), -1, -1):
        alphas = tuple(map(_exponents, combinations_with_replacement(slots, q - q0),
                           repeat(m)))
        if not alphas:
            continue
        for bits in combinations([1 << i for i in range(n)], q0):
            mask = sum(bits)
            monomials.extend([_monomial(mask, alpha) for alpha in alphas])
    return monomials


def _keys(evens, odds, q: int) -> List[int]:
    """The packed keys of degree q over the generators whose keys of
    degree 1 are `evens` and `odds`: the one listing of keys, that of
    enumerate_basis when each list ascends.  Each odd part, the sum of
    an odd multiset's units, is built once and shared over the even
    masks."""
    keys = []
    for q0 in range(min(q, len(evens)), -1, -1):
        alphas = tuple(map(sum, combinations_with_replacement(odds, q - q0)))
        if not alphas:
            continue
        for bits in combinations(evens, q0):
            mask = sum(bits)
            keys.extend([mask + alpha for alpha in alphas])
    return keys


def _exponents(multiset: Tuple[int, ...], m: int) -> Tuple[int, ...]:
    """The exponent tuple, of length m, of an odd index multiset."""
    alpha = [0] * m
    for j in multiset:
        alpha[j] += 1
    return tuple(alpha)


def _units(dims: SuperSpaceDims, radix: int) -> Tuple[List[int], List[int]]:
    """The keys of degree 1 over `dims`, (evens, odds): e_i's is 1 << i
    and o_j's radix^j << n, n the even count, so the key of e_S o^alpha
    is even_mask + sum_j alpha_j odds[j].  The one place that lays the
    keys out; _pack and _unpack are its inverses."""
    n, m = dims
    return [1 << i for i in range(n)], [radix ** j << n for j in range(m)]


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
