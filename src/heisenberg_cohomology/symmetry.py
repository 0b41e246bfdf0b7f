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
(differential._Workspace.orbits), the rank engine's one listing of
cochains, as sums of each copy's local keys and the keys of the
generators in no copy; no other key is built.  Its representatives,
sorted multisets of nonzero charges per class, are emitted directly
(orderly generation): one walk per class (_listed) and one sum of the
classes' groups (_add), once per listing; then, per degree asked for,
one sum of those groups with the other generators' monomials.  Those
monomials come from superexterior._keys, enumerate_basis's listing, so
a table without copies, the listing with no class, has its canonical
spaces in the canonical order, and lists no degree it is not asked
for.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .superexterior import _keys

Groups = List[Tuple[Tuple[int, int], List[int]]]  # [((degree, orbit size), keys)]


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

    `groups` files the keys of the classes' representatives (_listed,
    summed over the classes by _add) as {degree: [(orbit size, keys)]};
    with no class it is the empty monomial alone.
    `in_copies` has the generators inside a copy, `free` the others,
    `unit` each generator's key of degree 1, and `_free[skip, d]` the
    monomials of degree d over the generators in `free` but `skip`,
    each listed once.  With no class each degree is one stack of orbit size 1, the
    canonical space.
    """

    def __init__(self, workspace, copy_classes, top: int):
        algebra, n0, radix = workspace.algebra, workspace.dims.even_count, workspace.radix
        self.algebra, self.top = algebra, top
        self.unit = unit = {g: 1 << p for p, g in enumerate(algebra.even_indices)}
        unit.update((g, radix ** j << n0) for j, g in enumerate(algebra.odd_indices))
        groups, *factors = [_listed(parities, lattice, [[unit[g] for g in c] for c in copies], top)
                            for parities, lattice, copies in copy_classes] or [[((0, 1), [0])]]
        for factor in factors:
            groups = _add({}, groups, factor, top).items()
        self.groups: Dict[int, List[Tuple[int, List[int]]]] = {}
        for (d, orbit), keys in groups:
            self.groups.setdefault(d, []).append((orbit, keys))
        self.in_copies = {g for _, _, copies in copy_classes for c in copies for g in c}
        self.free = [g for g in range(algebra.dim) if g not in self.in_copies]
        self._free: Dict[Tuple[Optional[int], int], List[int]] = {}

    def orbits(self, q: int, skip: Optional[int]) -> List[Tuple[int, List[int]]]:
        """[(orbit size, keys)] of degree q, smallest orbit first, the
        generator `skip` left out; a q over `top` and a `skip` inside a
        copy are refused.  Each call sums the groups of degree d <= q
        with the free monomials of degree q - d (_monomials), so only
        the degrees asked for are listed, and keeps no sum."""
        if q > self.top:
            raise ValueError("degree %d is over the listing's top %d" % (q, self.top))
        if skip in self.in_copies:
            raise ValueError("generator %r lies in a copy, so the orbit listing "
                             "cannot leave it out" % self.algebra.generators[skip].name)
        stacks: Dict[int, List[int]] = {}
        for d, groups in self.groups.items():
            free = self._monomials(skip, q - d) if d <= q else ()
            if free:
                for orbit, keys in groups:
                    stacks.setdefault(orbit, []).extend([a + b for a in keys for b in free])
        return sorted(stacks.items())

    def _monomials(self, skip: Optional[int], d: int) -> List[int]:
        """The keys of degree d over the generators in no copy but
        `skip` (superexterior._keys), listed on first use."""
        if (skip, d) not in self._free:
            parity, unit = self.algebra.parity, self.unit
            self._free[skip, d] = _keys([unit[g] for g in self.free if g != skip and not parity(g)],
                                        [unit[g] for g in self.free if g != skip and parity(g)], d)
        return self._free[skip, d]


def _listed(parities, lattice, units, top: int) -> Groups:
    """One copy class's representative keys of degree at most top, in
    increasing degree: the copies' local parities, the echelon basis of
    their charge lattice, and each copy's generators' keys of degree 1.

    A representative gives copies 0..f-1 nonzero charges in sorted
    order and the zero charge to every later copy; its orbit size is
    the multinomial of the charges' runs.  The walk goes copy by copy:
    copy i takes each nonzero charge at or after the last one's, one
    degree at a time, while the degree fits, and the orbit size grows
    by (copies - i) / run as it takes a charge the run-th time in a
    row.  Every nonzero charge has degree 1 or more, so only copies
    0..top-1 take one, however many copies there are.  Entries of one
    level with the same last charge, run, degree and orbit size have
    the same future and walk on as one.  Each (degree, orbit size)
    group of level i is closed once, with the zero charge on copies
    i, i+1, ... (tails[i]).
    """
    table: Dict[tuple, Dict[int, list]] = {}
    for d, e in _exponents(parities, top):
        table.setdefault(_lattice_class(e, lattice), {}).setdefault(d, []).append(e)
    zero = sorted(table.pop((0,) * len(parities)).items())
    # least degree first, so a walk with less room stops at the first
    # charge that does not fit
    charges = sorted((min(t), c, sorted(t.items())) for c, t in table.items())
    least = [d for d, _, _ in charges]

    def keyed(exps, copy):
        return [((d, 1), [sum(map(int.__mul__, e, copy)) for e in es]) for d, es in exps]

    nonzero = [[keyed(t, copy) for _, _, t in charges] for copy in units[:top]]
    tails, tail = {}, [((0, 1), [0])]
    for i in range(len(units), -1, -1):
        if i < len(units):
            tail = sorted(_add({}, tail, keyed(zero, units[i]), top).items())
        if i <= top:
            tails[i] = tail
    listed: Dict[tuple, List[int]] = {}
    # {(last charge, its run, degree, orbit size): keys} of level i
    level: Dict[tuple, List[int]] = {(0, 0, 0, 1): [0]}
    for i in range(len(nonzero) + 1):
        heads: Dict[tuple, List[int]] = {}
        grown: Dict[tuple, List[int]] = {}
        for (last, run, deg, orbit), keys in level.items():
            heads.setdefault((deg, orbit), []).extend(keys)
            room = top - deg
            if i == len(nonzero):
                continue
            for s in range(last, len(least)):
                if least[s] > room:
                    break
                r = run + 1 if s == last else 1
                for (d, _), ks in nonzero[i][s]:
                    if d > room:
                        break
                    grown.setdefault((s, r, deg + d, orbit * (len(units) - i) // r),
                                     []).extend([a + b for a in keys for b in ks])
        _add(listed, heads.items(), tails[i], top)
        level = grown
    return sorted(listed.items())


def _add(into: Dict[tuple, List[int]], groups, factor: Groups, top: int):
    """Files a + b under (d1 + d2, o1 * o2) in `into`, for every key a
    of a group ((d1, o1), keys) of `groups` and b of one ((d2, o2), keys)
    of `factor` (in increasing degree) with d1 + d2 at most top; keys
    are additive over disjoint generators.  Returns `into`."""
    for (d1, o1), ks1 in groups:
        for (d2, o2), ks2 in factor:
            if d1 + d2 > top:
                break
            into.setdefault((d1 + d2, o1 * o2), []).extend([a + b for a in ks1 for b in ks2])
    return into


def _exponents(parities, top: int):
    """(degree, exponent tuple) of every monomial of degree at most top
    over generators of these parities: an even (0) exponent is 0 or 1."""
    out = [(0, ())]
    for p in parities:
        out = [(d + a, e + (a,)) for d, e in out
               for a in range(min(top if p else 1, top - d) + 1)]
    return out
