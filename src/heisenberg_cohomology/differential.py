"""The coboundary operator on super-exterior cochains, and the wedge maps
used by the odd-center family.

For a Lie superalgebra with dual degree-1 generators f_0, ..., f_{d-1}

    d f_k = - sum_{i<j} c_{ij}^k f_i f_j - (1/2) sum_{i odd} c_{ii}^k f_i f_i,

extended to higher degrees as a degree-+1 derivation: on a normal-form
monomial with canonical factor sequence g_1, ..., g_q

    d(g_1 ... g_q) = sum_t (-1)^{t-1} g_1 ... g_{t-1} (d g_t) g_{t+1} ... g_q.

The halved coefficient on odd self-brackets matches the dual pairing, in
which <o^2, y ^ y> = 2; tests check the whole convention against the
alternating-sum formula for <d omega, a_0 ^ ... ^ a_q>.

d_generator refuses an even self-bracket and a bracket that is not
parity-homogeneous, so a d-term of an even dual has 0 or 2 odd factors
and one of an odd dual exactly one even factor; the kernel relies on it.

One integer kernel applies the rule, on (even_mask, odd_exponents) keys
(a SuperMonomial is one, so enumerate_basis output goes in as it stands)
with every coefficient scaled by a common denominator D, and serves
every caller: differential_matrix and psi_matrix hand its integer columns
over as a RationalMatrix with scale 1/D (-1/D for psi at odd t), and
d_element (and tau through it) turns them into SuperElements with
coefficients coeff * v / D.  The tests hold the kernel to the
alternating-sum formula entry by entry.

Work that depends only on a value is done once per value: a cochain
space and its row index once per (dims, q), so the domain of d_q is the
codomain just built for d_{q-1}; an algebra's slot table once per
content of its table; h_n once per n for psi_matrix and tau.  The memos
are small and bounded, and what they return is never mutated.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import add
from typing import Dict, Tuple

from .algebra import LieSuperalgebra, ODD, make_heisenberg_odd
from .linalg import RationalMatrix
from .superexterior import (SuperElement, SuperMonomial, SuperSpaceDims,
                            _monomial, enumerate_basis, wedge_monomials)


def _dual_monomial(algebra: LieSuperalgebra, i: int) -> SuperMonomial:
    """Degree-1 dual monomial of generator i, over the algebra's dual dims."""
    n1 = algebra.superdim[1]
    if algebra.parity(i) == ODD:
        exps = [0] * n1
        exps[algebra.odd_indices.index(i)] = 1
        return _monomial(0, tuple(exps))
    return _monomial(1 << algebra.even_indices.index(i), (0,) * n1)


def d_generator(algebra: LieSuperalgebra, k: int) -> SuperElement:
    """Coboundary of the k-th dual generator, as a degree-2 element."""
    if not 0 <= k < algebra.dim:
        raise ValueError("generator index %d out of range" % k)
    out: Dict[SuperMonomial, Fraction] = {}
    for (i, j), targets in algebra.brackets.items():
        c = targets.get(k)
        if c is None:
            continue
        if algebra.parity(k) != (algebra.parity(i) + algebra.parity(j)) % 2:
            raise ValueError("bracket [%s, %s] -> %s is not parity-homogeneous"
                             % tuple(algebra.generators[g].name for g in (i, j, k)))
        if i == j:
            if algebra.parity(i) != ODD:
                raise ValueError("even generator %r has a nonzero self-bracket"
                                 % algebra.generators[i].name)
            # odd self-bracket: <o^2, y ^ y> = 2 forces the 1/2
            c = Fraction(c, 2)
        sign, mono = wedge_monomials(_dual_monomial(algebra, i),
                                     _dual_monomial(algebra, j))
        out[mono] = out.get(mono, Fraction(0)) - c * sign
    return SuperElement(out)


def _integer_slots(algebra: LieSuperalgebra):
    """d of every dual generator as integer terms over one denominator D.

    Returns (D, even_slots, odd_slots), one tuple of terms per even and
    per odd dual position.  A term is (even_mask, even_set,
    odd_exponents, D * coefficient) for a degree-2 monomial of
    d_generator; D is the lcm of the coefficient denominators, so every
    scaled coefficient is an integer.  Memoized on the algebra's
    content (generators and bracket table), never on its identity.
    """
    table = tuple(sorted((pair, tuple(sorted(targets.items())))
                         for pair, targets in algebra.brackets.items()))
    return _slot_table(algebra.generators, table)


@lru_cache(maxsize=16)
def _slot_table(generators, brackets):
    # rebuilt from the snapshot, so the memo holds no caller's algebra
    algebra = LieSuperalgebra("", generators, {pair: dict(targets)
                                               for pair, targets in brackets})
    table = [d_generator(algebra, g).terms
             for g in algebra.even_indices + algebra.odd_indices]
    denom = lcm(1, *(c.denominator for terms in table for c in terms.values()))
    slots = [tuple((m.even_mask, m.even_set, m.odd_exponents, int(c * denom))
                   for m, c in terms.items())
             for terms in table]
    n0 = algebra.superdim[0]
    return denom, tuple(slots[:n0]), tuple(slots[n0:])


@lru_cache(maxsize=4)
def _heisenberg_odd(n: int) -> LieSuperalgebra:
    # built and validated once per n for psi_matrix and tau
    return make_heisenberg_odd(n)


@lru_cache(maxsize=2)
def _cochain_space(dims: Tuple[int, int], q: int):
    """(basis, {key: row}) of C^q over `dims`, in the canonical order.

    Two spaces are kept: d_q's codomain is d_{q+1}'s domain, and psi's
    bases serve every power l.  Callers do not mutate either; the rank
    engine's entry points empty the memo when they return.
    """
    basis = tuple(enumerate_basis(SuperSpaceDims(*dims), q))
    return basis, {key: r for r, key in enumerate(basis)}


def _d_columns(even_slots, odd_slots, domain, row_index):
    """Integer coboundary columns {row: value} of (even_mask, alpha) keys.

    Applies the derivation rule to e_S o^alpha directly, visiting only
    the factors whose dual has a nonzero d.  The factor at position t
    contributes (-1)^t g_1..g_{t-1} (d g_t) g_{t+1}..g_q, put in normal
    form by counting crossings as wedge_monomials does: each even factor
    of a d-term crosses the earlier evens above it and the later evens
    below it, and each odd factor crosses the later evens.

    By the module's precondition the odd factors of an even dual's
    d-term add an even crossing count, and the one even factor e of
    o_j's d-term crosses the t - k odds before the copy at position t,
    so every copy's sign exponent is k plus e's crossings above it.
    """
    active = sum(1 << i for i, terms in enumerate(even_slots) if terms)
    active_odd = [(j, terms) for j, terms in enumerate(odd_slots) if terms]
    columns = []
    for mask, alpha in domain:
        col: Dict[int, int] = {}
        k = mask.bit_count()
        rest = mask & active
        while rest:
            low = rest & -rest
            rest ^= low
            others = mask ^ low
            below = others & (low - 1)
            above = others ^ below
            t = below.bit_count()
            for emask, evens, beta, c in even_slots[low.bit_length() - 1]:
                if emask & others:
                    continue
                swaps = t
                for e in evens:
                    swaps += ((below >> (e + 1)).bit_count()
                              + (above & ((1 << e) - 1)).bit_count())
                r = row_index[(others | emask, tuple(map(add, alpha, beta)))]
                col[r] = col.get(r, 0) + (-c if swaps & 1 else c)
        for j, terms in active_odd:
            a = alpha[j]
            if not a:
                continue
            odds = list(alpha)
            odds[j] -= 1
            for emask, (e,), beta, c in terms:
                if emask & mask:
                    continue
                swaps = k + (mask >> (e + 1)).bit_count()
                r = row_index[(mask | emask, tuple(map(add, odds, beta)))]
                col[r] = col.get(r, 0) + (-a * c if swaps & 1 else a * c)
        columns.append({r: v for r, v in col.items() if v})
    return columns


class _RowIndex(dict):
    """Row numbers handed out to keys in order of first use."""

    def __missing__(self, key):
        row = self[key] = len(self)
        return row


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
    denom, even_slots, odd_slots = _integer_slots(algebra)
    row_index = _RowIndex()
    columns = _d_columns(even_slots, odd_slots, monos, row_index)
    image: Dict[int, Fraction] = {}
    for mono, col in zip(monos, columns):
        coeff = elem.terms[mono]
        for r, v in col.items():
            image[r] = image.get(r, 0) + coeff * v
    rows = list(row_index)
    return SuperElement({_monomial(*rows[r]): c / denom for r, c in image.items()})


@dataclass(frozen=True)
class DifferentialMatrix:
    """d_q : C^q -> C^{q+1} over the canonical bases of both sides."""

    q: int
    domain: Tuple[SuperMonomial, ...]
    codomain: Tuple[SuperMonomial, ...]
    matrix: RationalMatrix


def differential_matrix(algebra: LieSuperalgebra, q: int) -> DifferentialMatrix:
    """Matrix of the coboundary in degree q (columns indexed by C^q)."""
    if q < 0:
        raise ValueError("degree must be nonnegative")
    domain, _ = _cochain_space(algebra.superdim, q)
    codomain, row_index = _cochain_space(algebra.superdim, q + 1)
    denom, even_slots, odd_slots = _integer_slots(algebra)
    columns = _d_columns(even_slots, odd_slots, domain, row_index)
    mat = RationalMatrix.from_columns(len(codomain), columns, Fraction(1, denom))
    return DifferentialMatrix(q, domain, codomain, mat)


def tau(n: int, l: int) -> SuperElement:
    """The element tau_{(n,l)} = d((z-dual)^l) for the odd-center family h_n.

    It lives over dual dims (n, n+1), the z-dual being the last odd slot,
    and equals l * (sum_i -e_i o_i) * (z-dual)^{l-1}.
    """
    if n < 1 or l < 1:
        raise ValueError("tau needs n >= 1 and l >= 1")
    zpow = SuperMonomial((), (0,) * n + (l,))
    return d_element(_heisenberg_odd(n), SuperElement.from_monomial(zpow))


def psi_matrix(t: int, n: int, l: int) -> RationalMatrix:
    """Right multiplication by tau_{(n,l)} on z-dual-free cochains.

    Domain: degree-t monomials over dims (n, n); codomain: degree-(t+2)
    monomials over (n, n), the constant (z-dual)^{l-1} factor dropped.
    For t < 0 the domain is empty.

    Built by the coboundary kernel of h_n: d kills every dual but the
    z-dual's, so for z-dual-free omega of degree t the Leibniz rule gives
    omega * tau = (-1)^t d(omega * (z-dual)^l).
    """
    if n < 1 or l < 1:
        raise ValueError("psi needs n >= 1 and l >= 1")
    codomain, _ = _cochain_space((n, n), t + 2)
    if t < 0:
        return RationalMatrix(len(codomain), 0)
    free, _ = _cochain_space((n, n), t)
    # a row outside the codomain (another z-dual power) raises KeyError
    row_index = {(mask, odds + (l - 1,)): r
                 for r, (mask, odds) in enumerate(codomain)}
    domain = [(mask, odds + (l,)) for mask, odds in free]
    denom, even_slots, odd_slots = _integer_slots(_heisenberg_odd(n))
    columns = _d_columns(even_slots, odd_slots, domain, row_index)
    sign = -1 if t & 1 else 1
    return RationalMatrix.from_columns(len(codomain), columns, Fraction(sign, denom))
