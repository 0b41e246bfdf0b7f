"""The packed keys of super-exterior cochains, and their one listing.

A superspace here is just a pair of dimensions: n even generators
e_0, ..., e_{n-1} and m odd generators o_0, ..., o_{m-1}.  A cochain
e_S o^alpha (S a set of even indices, alpha the odd exponents) is one
int key, even_mask + sum_j alpha_j u_j, u_j = B^j << n the key of
degree 1 of o_j.  _units is the one place that lays keys out: every key
builder reads its keys of degree 1 (the coboundary workspace's d-term
deltas and Lefschetz shifts, the orbit listing, the public builders in
the elements module, whose _pack and _unpack are its inverses).  B must
exceed every exponent, and is odd: CPython hashes an int modulo
2^61 - 1, under which the powers of a power-of-two radix repeat with
period 61 bits, so wide keys of such a radix share a few hash values.

_keys is the package's one listing of keys over lists of degree-1 keys:
the rank engine's orbit listing (symmetry.OrbitListing) and the public
builders call it, and over ascending units it lists the keys in the
canonical basis order of elements.enumerate_basis.  The monomials, and
everything that names a cochain by one, are in the elements module.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement
from typing import List, Tuple


def _radix(degree: int) -> int:
    """The smallest odd integer above `degree`: the radix of the keys of
    cochains of degree at most `degree`, so no exponent, even of a
    d-term's image, carries into the next slot.  It is odd so that wide
    keys spread over CPython's int hash, which is taken modulo
    2^61 - 1; the powers of 2 repeat under it every 61 bits."""
    return degree + 1 | 1


def _keys(evens, odds, q: int) -> List[int]:
    """The packed keys of degree q over the generators whose keys of
    degree 1 are `evens` and `odds`: the one listing of keys, in the
    canonical basis order when each list ascends (more even factors
    first, then even index sets in ascending lexicographic order, then
    odd exponent tuples in descending lexicographic order).  Each odd
    part, the sum of an odd multiset's units, is built once and shared
    over the even masks."""
    keys = []
    for q0 in range(min(q, len(evens)), -1, -1):
        alphas = tuple(map(sum, combinations_with_replacement(odds, q - q0)))
        if not alphas:
            continue
        for bits in combinations(evens, q0):
            mask = sum(bits)
            keys.extend([mask + alpha for alpha in alphas])
    return keys


def _units(dims, radix: int) -> Tuple[List[int], List[int]]:
    """The keys of degree 1 over the dimensions `dims` = (n, m),
    (evens, odds): e_i's is 1 << i and o_j's radix^j << n, so the key of
    e_S o^alpha is even_mask + sum_j alpha_j odds[j].  The one place
    that lays the keys out."""
    n, m = dims
    return [1 << i for i in range(n)], [radix ** j << n for j in range(m)]
