"""Symmetric weight blocks: each copy's charge, and the keys of one
charge tuple per orbit of identical copies.

algebra.copy_classes finds the classes of identical components of an
adapted table (h_n's pairs (x_i, y_i), h_{n,m}'s pairs and y_j).  A
copy's charge is the class of its local exponent vector in Z^C / R_C,
R_C spanned by e_i + e_j (- e_k when k lies in the component) over its
bracket terms; _echelon_lattice and _lattice_class are the integer row
reduction that gives each class one representative.  d keeps every
copy's charge, so it is block diagonal over charge tuples, and
permuting the copies of a class permutes the blocks up to sign: the
rank engine ranks one block per orbit.

An OrbitListing lists those blocks' keys for one workspace
(differential._Workspace.orbits), as sums of each copy's local keys and
the keys of the other generators; no other key is built.  The engine
imports this module only for a table with a copy class, so a table
without one compiles none of it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

Keys = Dict[int, List[int]]  # {degree: packed keys}


def _echelon_lattice(vectors, width: int) -> List[Tuple[int, List[int]]]:
    """An echelon basis of the lattice that the integer `vectors` (of
    length `width`) span, as (pivot, row) pairs: row[pivot] > 0 is the
    row's first nonzero entry, and the pivots increase.  Reducing v by
    the rows in order, v[pivot] into 0..row[pivot] - 1 (_lattice_class),
    gives one representative per coset of the lattice."""
    rows = [list(v) for v in vectors if any(v)]
    basis = []
    for col in range(width):
        live = [r for r in rows if r[col]]
        rows = [r for r in rows if not r[col]]
        # Euclid on column col: the row of least |entry| clears the others
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[col]))
            pivot, reduced = live[0], []
            for r in live[1:]:
                f = r[col] // pivot[col]
                reduced.append([x - f * y for x, y in zip(r, pivot)])
            rows += [r for r in reduced if any(r) and not r[col]]
            live = [pivot] + [r for r in reduced if r[col]]
        if live:
            pivot = live[0] if live[0][col] > 0 else [-x for x in live[0]]
            basis.append((col, pivot))
    return basis


def _lattice_class(v, basis) -> Tuple[int, ...]:
    """The representative of v's coset of the lattice with this echelon
    basis (_echelon_lattice)."""
    v = list(v)
    for p, row in basis:
        f = v[p] // row[p]
        if f:
            v = [x - f * y for x, y in zip(v, row)]
    return tuple(v)


class OrbitListing:
    """One workspace's representative keys, up to degree `top`.

    `classes` has, per copy class, (nonzero, keys, tails): the charges
    but the zero charge with their least degrees, in order, keys[i] the
    {charge: {degree: keys}} of copy i, and tails[i] the keys of the
    zero charge on copies i, i+1, ...  `picks` are the representatives
    (_picks); `in_copies` the generators inside a copy and `unit` each
    generator's key of degree 1.
    """

    def __init__(self, workspace, copy_classes, top: int):
        algebra, n0, radix = workspace.algebra, workspace.dims.even_count, workspace.radix
        self.algebra, self.top = algebra, top
        self.unit = unit = {g: 1 << p for p, g in enumerate(algebra.even_indices)}
        unit.update((g, radix ** j << n0) for j, g in enumerate(algebra.odd_indices))
        self.classes, self.in_copies = [], set()
        for parities, lattice, copies in copy_classes:
            table: Dict[tuple, Dict[int, list]] = {}
            for d, e in _exponents(parities, top):
                table.setdefault(_lattice_class(e, lattice), {}).setdefault(d, []).append(e)
            zero = (0,) * len(parities)
            keys = [{c: {d: [sum(map(int.__mul__, e, units)) for e in es]
                         for d, es in t.items()} for c, t in table.items()}
                    for units in ([unit[g] for g in copy] for copy in copies)]
            # a pick gives at most top copies a nonzero charge, each of
            # least degree 1 or more, so its zero charge starts at most there
            tails, tail = {}, {0: [0]}
            for i in range(len(keys), -1, -1):
                if i < len(keys):
                    tail = _fold(tail, keys[i][zero], top)
                if i <= top:
                    tails[i] = tail
            self.classes.append((sorted((c, min(t)) for c, t in table.items() if c != zero),
                                 keys, tails))
            self.in_copies.update(*copies)
        self.picks = _picks(self.classes, top)
        self._bases: Dict[tuple, Keys] = {}
        self._reach: Dict[Optional[int], Dict[int, list]] = {}

    def orbits(self, q: int, skip: Optional[int]) -> Optional[List[Tuple[int, List[int]]]]:
        """[(orbit size, keys)] of degree q, smallest orbit first, the
        generator `skip` left out; None when `skip` is inside a copy."""
        if skip in self.in_copies:
            return None
        if skip not in self._reach:
            # each pick's keys span the degrees min(acc)..max(acc) + max(base)
            reach = self._reach[skip] = {}
            for orbit, firsts, acc in self.picks:
                base = self._base(firsts, skip)
                for d in range(min(acc), min(max(acc) + max(base), self.top) + 1):
                    reach.setdefault(d, []).append((orbit, acc, base))
        groups: Dict[int, List[int]] = {}
        for orbit, acc, base in self._reach[skip].get(q, ()):
            listed = [a + b for d, ks in acc.items() for b in base.get(q - d, ())
                      for a in ks]
            if listed:
                groups.setdefault(orbit, []).extend(listed)
        return sorted(groups.items())

    def _base(self, firsts: Tuple[int, ...], skip: Optional[int]) -> Keys:
        """{degree: keys} of the zero charge on every copy of class c from
        copy firsts[c] on, times every monomial over the generators in no
        copy but `skip`."""
        key = (firsts, skip)
        if key not in self._bases:
            if (None, skip) not in self._bases:
                rest = [g for g in range(self.algebra.dim)
                        if g not in self.in_copies and g != skip]
                acc: Keys = {}
                for d, e in _exponents([self.algebra.parity(g) for g in rest], self.top):
                    acc.setdefault(d, []).append(sum(a * self.unit[g] for a, g in zip(e, rest)))
                self._bases[(None, skip)] = acc
            acc = self._bases[(None, skip)]
            for (_, _, tails), first in zip(self.classes, firsts):
                acc = _fold(acc, tails[first], self.top)
            self._bases[key] = acc
        return self._bases[key]


def _picks(classes, top: int):
    """(orbit, firsts, acc) per representative charge tuple with a key
    of degree at most top.  A representative gives copies
    0..firsts[c]-1 of class c its nonzero charges in sorted order and
    the zero charge to the rest; orbit is the product of the classes'
    multinomials, and acc the {degree: keys} of the copies with a
    nonzero charge."""
    picks = []

    def visit(c, firsts, i, last, run, acc, orbit):
        # the pick so far gives copies 0..i-1 of class c nonzero charges,
        # nonzero[last] the last `run` times over: keep it with the zero
        # charge on every later copy of class c, then extend it by one
        # more nonzero charge, in sorted order
        nonzero, keys, _ = classes[c]
        if c + 1 < len(classes):
            visit(c + 1, firsts + (i,), 0, 0, 0, acc, orbit)
        else:
            picks.append((orbit, firsts + (i,), acc))
        if i < len(keys):
            room = top - min(acc)
            for s in range(last, len(nonzero)):
                charge, least = nonzero[s]
                if least <= room:
                    # one of the len(keys) - i copies left takes it
                    r = run + 1 if s == last else 1
                    visit(c, firsts, i + 1, s, r, _fold(acc, keys[i][charge], top),
                          orbit * (len(keys) - i) // r)

    visit(0, (), 0, 0, 0, {0: [0]}, 1)
    return picks


def _exponents(parities, top: int):
    """(degree, exponent tuple) of every monomial of degree at most top
    over generators of these parities: an even (0) exponent is 0 or 1."""
    out = [(0, ())]
    for p in parities:
        out = [(d + a, e + (a,)) for d, e in out
               for a in range(min(top if p else 1, top - d) + 1)]
    return out


def _fold(acc: Keys, part: Keys, top: int) -> Keys:
    """{degree: keys} of the sums of a key of acc and a key of part, up
    to degree top: keys are additive over disjoint generators."""
    out: Keys = {}
    for d1, ks1 in acc.items():
        for d2, ks2 in part.items():
            if d1 + d2 <= top:
                out.setdefault(d1 + d2, []).extend([a + b for a in ks1 for b in ks2])
    return out
