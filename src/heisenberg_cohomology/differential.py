"""The coboundary kernel: d on packed keys of super-exterior cochains.

For a Lie superalgebra with dual degree-1 generators f_0, ..., f_{d-1}

    d f_k = - sum_{i<j} c_{ij}^k f_i f_j - (1/2) sum_{i odd} c_{ii}^k f_i f_i,

extended to higher degrees as a degree-+1 derivation: on a normal-form
monomial with canonical factor sequence g_1, ..., g_q

    d(g_1 ... g_q) = sum_t (-1)^{t-1} g_1 ... g_{t-1} (d g_t) g_{t+1} ... g_q.

The halved coefficient on odd self-brackets matches the dual pairing, in
which <o^2, y ^ y> = 2; tests check the whole convention against the
alternating-sum formula for <d omega, a_0 ^ ... ^ a_q>.

There is one way into this kernel: a _Workspace, the d-term table, and
_coboundary, the one builder of d's columns.  Every block of the rank
engine, every Lefschetz block (_lefschetz_block, the part of d that
lowers the power of an odd central dual by one; _odd_centre finds that
dual), and, in the elements module, every public matrix, psi, tau,
d_element and d_generator goes through one _coboundary call on a
workspace; no other module derives a d-term.  The tests hold the
kernel to the alternating-sum formula entry by entry.

The workspace's constructor makes one pass over the algebra's integer
table that derives every d f_k and refuses, per target, the first even
self-bracket or bracket that is not parity-homogeneous, so a d-term of
an even dual has 0 or 2 odd factors and one of an odd dual exactly one
even factor; the kernel relies on it.  Every coefficient is scaled by
a common denominator D, so the kernel works in ints.

A key is the int even_mask + sum_j alpha_j u_j of e_S o^alpha, u_j the
key of degree 1 of o_j (superexterior._units, which lays the keys out:
u_j = B^j << n0, B an odd radix above the degree of every key the
call reaches, fixed per _Workspace by superexterior._radix).  A d-term
is then one int delta: the row of a term of even slot i is
key - (1 << i) + delta and that of odd slot j is key + delta, its unit
u_j already taken off, so the kernel finds each row with one addition
and one int-keyed lookup, and reads the exponent of slot j as
key // u_j % B.  Every sign of a d-term, and every test of its evens
against the key's, reads the key's even mask alone, so each workspace
builds one plan per even mask on first use (_mask_plan): per slot that
applies, its terms as (row offset, signed D * coefficient), an odd
slot's value times the key's exponent there.

Work that depends only on a value is done once per value.  Each call
owns one _Workspace(algebra, degree): it carries the algebra, derives
its d-term table once, and builds the kernel's plan of each even mask
once, which verify's L^(t), psi_2 and psi_3 of one n share.  The scale
1/D of every matrix it builds, and the kernel's units for reading a
key's slots, are made once per workspace too, not once per block: the
rank engine builds hundreds of blocks a few columns wide per call, on
keys that the orbit listing above this module (symmetry.OrbitListing)
lists, and numbers each block's rows in order of first use
(_coboundary).  The workspace is dropped when its call returns or
raises.  What the kernel returns is never mutated.  This module knows
nothing of monomials, copies or orbits: it imports no listing code.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Dict, List, Optional

from .algebra import ODD, LieSuperalgebra, _targets
from .linalg import RationalMatrix
from .superexterior import _radix, _units


class _Workspace:
    """One call's d-term table, built once, on packed keys over the
    algebra's dual superdimension.

    `dims` is the algebra's superdim pair (n0, n1), and `degree` the
    largest degree of any key of the call, which fixes the radix.
    `unit` maps each generator to its dual's key of degree
    1 (superexterior._units).  The constructor derives d of every dual
    generator in one pass over the integer table and raises the first
    refusal in slot order.  `scale` is the Fraction 1/D, D the lcm of
    the coefficient denominators, that every matrix of the workspace
    shares;
    `evens` has, per even slot, its d-terms as
    (emask, signs, delta, D * coefficient), and `odds` one
    (unit, terms) per odd slot with a nonzero d, its terms the same,
    delta having the slot's unit already taken off: `signs` has the
    evens of a key whose count, mod 2, is the term's sign exponent
    (_mask_plan).  `active` has the bit of every even slot with a
    nonzero d, `evens_only` the bits of every even slot, and `units`
    the kernel's (place in `odds`, unit) per odd slot with a nonzero d.
    Callers do not mutate any of it, except `plans`, which the kernel
    fills in: it maps the even mask of each key it met that has a
    d-term to the mask's _mask_plan.  A workspace lives as long as the
    call that made it.
    """

    def __init__(self, algebra: LieSuperalgebra, degree: int):
        self.algebra = algebra
        self.dims = algebra.superdim
        self.radix = _radix(degree)
        evens, odds = _units(self.dims, self.radix)
        order = algebra.even_indices + algebra.odd_indices
        self.unit = unit = dict(zip(order, evens + odds))
        names, parity, scale = algebra._names, algebra._parities, algebra._scale
        # one pass over the integer table: terms[k] lists d f_k's terms
        # (even mask, even factors' bits, key, numerator, denominator),
        # one per bracket with target k, in table order, and refused[k]
        # the first such bracket that is an even self-bracket or not
        # parity-homogeneous
        terms, refused = {}, {}
        for (i, j), row in algebra._table.items():
            bits = [unit[g] for g in (i, j) if parity[g] != ODD]
            # d f_k has -c f_i f_j, whose normal form costs a sign when an odd
            # f_i comes before an even f_j; <o^2, y ^ y> = 2 halves [y, y]
            sign = 1 if parity[i] > parity[j] else -1
            den = 2 * scale if i == j else scale
            for k, c in row.items():
                if k in refused:
                    continue
                if parity[k] != parity[i] ^ parity[j]:
                    refused[k] = ("bracket [%s, %s] -> %s is not parity-homogeneous"
                                  % (names[i], names[j], names[k]))
                elif i == j and parity[i] != ODD:
                    refused[k] = "even generator %r has a nonzero self-bracket" % names[i]
                else:
                    terms.setdefault(k, []).append(
                        (sum(bits), bits, unit[i] + unit[j], sign * c, den))
        if refused:
            raise ValueError(refused[min(refused, key=order.index)])
        denom = lcm(1, *[d // gcd(c, d) for slot in terms.values() for *_, c, d in slot])

        def signs(i, bits):
            # a key's evens whose count, mod 2, signs a d-term of even
            # slot i with these even factors (_mask_plan): those below
            # i, and for each factor's bit b those strictly between b and i
            low = 1 << i
            out = low - 1
            for b in bits:
                out ^= low - 1 & -(b << 1) | b - 1 & -(low << 1)
            return out

        def table(g, i=None, off=0):
            # a term's signs, in even slot i or an odd slot, and key
            # delta: the key of its monomial, less `off`
            return tuple([(emask, emask - 1 if i is None else signs(i, bits),
                           key - off, c * denom // d)
                          for emask, bits, key, c, d in terms[g]]) if g in terms else ()

        self.evens = tuple([table(g, i) for i, g in enumerate(algebra.even_indices)])
        self.odds = tuple([(unit[g], table(g, None, unit[g]))
                           for g in algebra.odd_indices if g in terms])
        self.active = sum([1 << i for i, slot in enumerate(self.evens) if slot])
        self.scale = Fraction(1, denom)
        self.evens_only = (1 << self.dims[0]) - 1
        self.units = [(i, u) for i, (u, _) in enumerate(self.odds)]
        self.plans = {}


def _mask_plan(workspace: _Workspace, mask: int):
    """The d-terms of every key whose even mask is `mask`, from the
    workspace's d-term table: (evens, odds), with one tuple of
    (row offset, signed D * coefficient) per active even slot in the
    mask that keeps a term, and one per odd slot with a nonzero d, in
    the order of the workspace's `odds`, whose values a key multiplies
    by its exponent in that slot.

    The factor at position t contributes
    (-1)^t g_1..g_{t-1} (d g_t) g_{t+1}..g_q, put in normal form by
    counting crossings as wedge_monomials does: each even factor of a
    d-term crosses the earlier evens above it and the later evens below
    it, and each odd factor crosses the later evens.  By the module's
    precondition the odd factors of an even dual's d-term add an even
    crossing count, and the one even factor e of o_j's d-term crosses
    the t - k odds before the copy at position t, so every copy's sign
    exponent is k plus e's crossings above it, which is as even as the
    mask's evens below e (e is not in the mask).  So every sign, and
    every test of a term's evens against the key's, reads the mask
    alone: the sign exponent is the count of the mask's evens in the
    term's `signs`, which the workspace derives once per term.
    """
    evens = []
    rest = mask & workspace.active
    while rest:
        low = rest & -rest
        rest ^= low
        terms = tuple([(delta - low, -c if (mask & signs).bit_count() & 1 else c)
                       for emask, signs, delta, c in workspace.evens[low.bit_length() - 1]
                       if not emask & (mask ^ low)])
        if terms:
            evens.append(terms)
    odds = tuple([tuple([(delta, -c if (mask & signs).bit_count() & 1 else c)
                         for emask, signs, delta, c in slot if not emask & mask])
                  for _, slot in workspace.odds])
    return tuple(evens), odds


def _coboundary(workspace: _Workspace, domain, row_index) -> RationalMatrix:
    """d of the workspace's keys `domain` as a matrix with scale 1/D: the
    one builder of d, which every block, Lefschetz block, public matrix
    and element coboundary goes through.

    Applies the derivation rule to e_S o^alpha directly, visiting only
    the factors whose dual has a nonzero d, through the plan of the
    key's even mask (_mask_plan), built once per workspace: a row is
    the key plus a plan's offset.  A key with no active even dual and
    no power of an odd dual with a nonzero d gets an empty column
    before any plan is looked up or built.  Distinct terms of one slot
    never share a row, so a key that one slot applies to takes its
    column straight from that slot's terms; terms of two or more slots
    are summed, and those that cancel leave no stored zero.  A row is
    numbered by `row_index`, {key: row}, which the call extends: a key
    it lacks gets the next number, with one setdefault per entry.  So a
    full index of the codomain gives the canonical rows, and {} numbers
    the rows in order of first use; then the rows reached are the
    matrix's rows.
    """
    radix, evens_only, units = workspace.radix, workspace.evens_only, workspace.units
    active, plans = workspace.active, workspace.plans
    number = row_index.setdefault
    columns = []
    for key in domain:
        mask = key & evens_only
        if units:
            # the odd slots with a nonzero d that the key has a power of:
            # (that power, the slot's place in the plan)
            powers = []
            for i, unit in units:
                a = key // unit % radix
                if a:
                    powers.append((a, i))
            if not (powers or mask & active):
                columns.append({})
                continue
        elif mask & active:
            powers = ()
        else:
            columns.append({})
            continue
        plan = plans.get(mask)
        if plan is None:
            plan = plans[mask] = _mask_plan(workspace, mask)
        evens, odds = plan
        if len(evens) + len(powers) < 2:
            # filled in this loop: a comprehension's frame costs more
            # than the one to four entries most columns have
            col = {}
            if evens:
                for o, v in evens[0]:
                    col[number(key + o, len(row_index))] = v
            elif powers:
                a, i = powers[0]
                for o, v in odds[i]:
                    col[number(key + o, len(row_index))] = a * v
            columns.append(col)
            continue
        col: Dict[int, int] = {}
        for terms in evens:
            for o, v in terms:
                r = number(key + o, len(row_index))
                col[r] = col.get(r, 0) + v
        for a, i in powers:
            for o, v in odds[i]:
                r = number(key + o, len(row_index))
                col[r] = col.get(r, 0) + a * v
        columns.append({r: v for r, v in col.items() if v}
                       if 0 in col.values() else col)
    return RationalMatrix._wrap(len(row_index), columns, workspace.scale)


def _lefschetz_block(workspace: _Workspace, z: int, t: int, l: int,
                     keys: List[int], rows: Optional[List[int]] = None) -> RationalMatrix:
    """The block of elements.lefschetz_block on `keys`, keys of A^t (a
    stack of symmetry.OrbitListing.orbits, or all of A^t), in the
    workspace's algebra.  Its rows are `rows`, keys of A^(t+2), in that
    order, or when None (the rank engine) numbered on first use: the
    same numbers for every l.  The radix must exceed the degree
    t + l + 1 of the rows."""
    if t + l + 1 >= workspace.radix:
        raise ValueError("degree %d does not fit radix %d"
                         % (t + l + 1, workspace.radix))
    # f_z^l in z's slot, which the keys of A leave at 0
    unit = workspace.unit[z]
    row_index = {} if rows is None else {key + (l - 1) * unit: r for r, key in enumerate(rows)}
    return _coboundary(workspace, [key + l * unit for key in keys], row_index)


def _odd_centre(algebra: LieSuperalgebra) -> Optional[int]:
    """The odd generator z that is the only nonzero bracket target and
    appears in no nonzero bracket, or None: then the z-dual is the only
    dual with a nonzero d, and no d-term contains it."""
    targets = _targets(algebra)
    if len(targets) != 1:
        return None
    (z,) = targets
    if algebra._parities[z] != ODD or any(z in pair for pair in algebra._table):
        return None
    return z
