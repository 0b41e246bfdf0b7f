"""Symmetric weight blocks: the classes of identical copies, each
copy's charge, and the keys of one base charge tuple per orbit of
copies, weighted by its shifts.

copy_classes finds the classes of identical components of an adapted
table (h_n's pairs (x_i, y_i), h_{n,m}'s pairs and y_j) on its ints,
which share one scale L, and keeps them on the algebra, beside its
other derived tables.  A copy's charge is the class of its local
exponent vector in Z^C / R_C, R_C spanned by e_i + e_j (- e_k when k
lies in the component) over its bracket terms; _echelon_lattice and
_lattice_classes are the integer row reduction that gives each class
one representative.  d keeps every copy's charge, so it is block
diagonal over charge tuples, and permuting the copies of a class
permutes the blocks up to sign.  So does each
class's local group (_local_group), the permutations of one copy's
generators that with signs are automorphisms, such as h_{n,m}'s
x_i -> x_{n+i}, x_{n+i} -> -x_i: the rank engine ranks one block per
orbit of both, of the wreath product S_c wr G of c copies with local
group G.  This module imports algebra and superexterior; algebra and
differential import nothing from here, nor this module anything from
differential.

A charge can also be a shift.  Let y be an odd generator of a copy
that is no bracket target.  Then d f_y = 0, so d(f_y a) = -f_y da, and
multiplying by f_y is injective, since the odd duals generate a
polynomial ring.  So a copy's charge c' whose every exponent vector
(of degree at most the listing's top) has y to a power of 1 or more is
the shift of c = c' - [e_y]: f_y maps the block of c in degree q - 1
onto that of c' in degree q, and the two have one rank, for d, for
L^(t) and for psi's blocks of power l alike.  The gate: shifts are taken
only in a class whose local group is the identity alone, by the first
such y of its copies (h_n's y_i and h_{n,m}'s y_j; not the odd pairs,
whose swap is in G, nor a copy whose odd generators are all targets).
Any other class lists as before, which costs speed, never an answer.
A base charge, one that is no shift, heads a chain of length L, itself
and its L - 1 shifts, of series 1 + t + ... + t^(L - 1) (1/(1 - t),
cut after t^top, for h_n's charge 0, of length top + 1; 1 + t for an
h_{n,m} y_j).

An OrbitListing lists those blocks' keys for one engine call, the rank
engine's one listing of cochains: cohomology and verify build it as
OrbitListing(_Workspace(adapted, degree), top), above the kernel, and
keep the workspace on it.  Its keys are sums of each copy's local keys
and the keys of the generators in no copy, laid out by the workspace's
`unit` table (superexterior._units); no other key is built.  It finds
the workspace's classes itself (copy_classes).  Its representatives,
sorted multisets of nonzero base charges per class, are emitted
directly (orderly generation), once per listing: one walk per class
(_listed) and one product of the classes (_times), whose keys carry
their degree in bits above the key, so that entries of every degree
walk on and multiply together; the listing then splits each weight
series' keys by degree once, into `stacks`, {degree: [(W, keys)]}, the
shape orbits() reads.  A stack's weight series W is its orbit size
times the product of its copies' base charges' series, cut after
t^top: its block of degree t stands for W[k] blocks of degree t + k,
its shifts.  A class without shifts has W = (orbit size,).  The walk
and the product multiply no series: they carry each weight as its
factors, the orbit size and the chain counts (how many chains of each
length its copies head, one int of fields that add, _chain), so orbit
sizes multiply and counts add, and the listing expands each distinct
chain count once (_expanded).  Each class builds its exponent table, and
each copy its keys, once.  orbits(q) hands out degree q's stacks as
they are when no generator outside the copies is left, the engine's
case on h_n with its centre left out; otherwise it sums, per weight
series, the stacks of each degree d <= q with the other generators'
monomials of degree q - d.  Those monomials come from
superexterior._keys, the one listing of keys, which the public builders
read too, so a table without copies, the listing with no class, has its
canonical spaces in the canonical order, and lists no degree it is not
asked for.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import permutations, product
from math import comb, factorial
from operator import mul, sub
from typing import Dict, List, Optional, Tuple

from .algebra import LieSuperalgebra, _targets
from .superexterior import _keys


def _echelon_lattice(vectors, width: int) -> List[Tuple[int, List[int]]]:
    """An echelon basis of the lattice that the integer `vectors` (of
    length `width`) span, as (pivot, row) pairs: row[pivot] > 0 is the
    row's first nonzero entry, and the pivots increase.  Reducing v by
    the rows in order, v[pivot] into 0..row[pivot] - 1 (_lattice_classes),
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


def _lattice_classes(vectors, basis) -> List[Tuple[int, ...]]:
    """The representative of each vector's coset of the lattice with this
    echelon basis (_echelon_lattice), all of them reduced together, one
    pass per basis row."""
    columns = list(zip(*vectors))
    for p, row in basis:
        f = [x // row[p] for x in columns[p]]
        columns = [[x - r * y for x, y in zip(column, f)] if r else column
                   for column, r in zip(columns, row)]
    return list(zip(*columns))


def copy_classes(alg: LieSuperalgebra) -> tuple:
    """The classes of identical copies in alg's table that split its
    cochains into symmetric blocks, kept on alg; () when there are none.

    One pass over the brackets.  The central targets are the bracket
    targets that appear in no nonzero bracket; the components are the
    connected pieces of the bracket graph on the other generators, a
    term [g_i, g_j] -> g_k linking i with j, and both with k when k is
    not central.  Two components are copies when their signatures are
    equal: the parities, the local bracket table in generator order,
    and the central targets by global id.  Swapping two copies in
    generator order is then an automorphism of alg.

    A copy's charge is the class of its local exponent vector in
    Z^C / R_C, where R_C is spanned by e_i + e_j (- e_k when k lies in
    C) over the component's bracket terms; each d-term swaps f_k for
    f_i f_j, so d keeps every copy's charge.  Each entry is
    (parities, lattice, copies): the local parities, the echelon basis
    of R_C (_echelon_lattice) and the copies' generator index tuples,
    for every class of at least two copies whose charges are not all
    one (R_C is not all of Z^C).
    """
    if "copies" not in alg._derived:
        brackets = alg._table
        central = _targets(alg).difference(*brackets)
        root = list(range(alg.dim))

        def find(g):
            while root[g] != g:
                root[g] = root[root[g]]
                g = root[g]
            return g

        for (i, j), targets in brackets.items():
            for g in (j, *targets):
                if g not in central:
                    root[find(g)] = find(i)
        # each component's generators in order, and each generator's
        # position in its component; a central target k is keyed
        # -1 - k, below every local position.  Each generator outside
        # the central targets points at its component's root
        members: Dict[int, List[int]] = {}
        local = [-1 - g for g in range(alg.dim)]
        for g in range(alg.dim):
            if g not in central:
                root[g] = find(g)
                component = members.setdefault(root[g], [])
                local[g] = len(component)
                component.append(g)
        # the table's ints: one scale L for the whole table, so the
        # components' signatures compare as the Fractions would
        tables: Dict[int, list] = {r: [] for r in members}
        for (i, j), targets in brackets.items():
            tables[root[i]].append((local[i], local[j], tuple(sorted(
                [(local[k], c) for k, c in targets.items()]))))
        parity = alg._parities
        classes: Dict[tuple, List[Tuple[int, ...]]] = {}
        for r, component in members.items():
            signature = (tuple(map(parity.__getitem__, component)), tuple(sorted(tables[r])))
            classes.setdefault(signature, []).append(tuple(component))
        found = []
        for (parities, table), copies in classes.items():
            if len(copies) < 2:
                continue
            width = len(parities)
            relations = []
            for a, b, targets in table:
                for k, _ in targets:
                    v = [0] * width
                    v[a] += 1
                    v[b] += 1
                    if k >= 0:
                        v[k] -= 1
                    relations.append(v)
            lattice = _echelon_lattice(relations, width)
            if len(lattice) < width or any(row[p] != 1 for p, row in lattice):
                found.append((parities, lattice, tuple(copies), _local_group(parities, table)))
        alg._derived["copies"] = tuple(found)
    return alg._derived["copies"]


# parity-keeping permutations of one copy's generators that
# _local_group tries, at most; a copy with more gets the trivial group
_SEARCH_BOUND = 720


def _local_group(parities, table) -> Tuple[Tuple[int, ...], ...]:
    """The local group of a copy: the permutations sigma of its
    generators, identity first, for which some signs eps make
    g_a -> eps_a g_sigma(a) an automorphism of the copy's bracket table
    `table` (copy_classes' signature, with ints) that fixes its central
    targets.  Such a map, the identity off the copy, is an automorphism
    of the algebra, so its cochain map commutes with d and maps the
    block of each charge onto the block of the permuted charge, keys to
    +-keys: the blocks of one orbit have one rank.

    Only a copy whose every target is central is searched, over the
    sigma that keep parities, at most _SEARCH_BOUND of them; any
    other copy, and one with no two generators of a parity (h_n's
    (x_i, y_i), the y_j), gets the trivial group, which costs speed but
    never an answer.  Each sigma is checked exactly: every nonzero
    bracket goes to +- its image (_signed)."""
    identity = tuple(range(len(parities)))
    evens = [a for a, p in enumerate(parities) if not p]
    odds = [a for a, p in enumerate(parities) if p]
    if (max(len(evens), len(odds)) < 2
            or factorial(len(evens)) * factorial(len(odds)) > _SEARCH_BOUND
            or any(k >= 0 for _, _, targets in table for k, _ in targets)):
        return (identity,)
    bracket = {}
    for a, b, targets in table:
        bracket[a, b] = dict(targets)
        # [g_b, g_a] = -(-1)^{|a||b|} [g_a, g_b]
        flip = 1 if parities[a] and parities[b] else -1
        bracket[b, a] = {k: flip * c for k, c in targets}
    group = [identity]
    for even, odd in product(permutations(evens), permutations(odds)):
        sigma = [0] * len(parities)
        for a, b in zip(evens + odds, even + odd):
            sigma[a] = b
        if tuple(sigma) != identity and _signed(sigma, bracket):
            group.append(tuple(sigma))
    return tuple(group)


def _signed(sigma, bracket) -> bool:
    """Whether some signs eps make g_a -> eps_a g_sigma(a) keep every
    bracket of `bracket` ({(a, b): {central target: coefficient}} in
    both orders): each nonzero [g_a, g_b] must go to s times
    [g_sigma(a), g_sigma(b)], s = +-1, and eps_a eps_b = s must have a
    solution.  sigma is a bijection, so the zero brackets then go to
    zero brackets."""
    edges: Dict[int, List[Tuple[int, int]]] = {}
    for (a, b), targets in bracket.items():
        image = bracket.get((sigma[a], sigma[b]))
        if image == targets:
            s = 1
        elif image == {k: -c for k, c in targets.items()}:
            s = -1
        else:
            return False
        edges.setdefault(a, []).append((b, s))
    sign: Dict[int, int] = {}
    for start in edges:
        if start in sign:
            continue
        sign[start], stack = 1, [start]
        while stack:
            a = stack.pop()
            for b, s in edges[a]:
                if b not in sign:
                    sign[b] = sign[a] * s
                    stack.append(b)
                elif sign[b] != sign[a] * s:
                    return False
    return True


class OrbitListing:
    """One engine call's representative keys, up to degree `top`, over
    the copy classes of its workspace's algebra (copy_classes): the
    rank engine's one listing of cochains.  `workspace` is the call's
    differential._Workspace, whose radix and `unit` table (each
    generator's key of degree 1) lay the keys out.

    `stacks` files the keys of the classes' representatives (_listed,
    multiplied over the classes by _times, each stack's weight factors
    expanded once by _expanded) as {degree: [(weight series, keys)]},
    in increasing degree and each degree's stacks least series first,
    the shape orbits() reads; with no class it is the empty monomial
    alone, of series (1,).  `reach` is the most shifts any stack stands
    for, the longest series' length less 1: 0 when nothing shifts.
    `in_copies` has the generators inside a copy, `free` the others,
    and `_free[skip]` the keys of degree 1 of the generators in `free`
    but `skip` and their monomials of each degree asked for, each
    listed once.  With no class each degree is one stack of series
    (1,), the canonical space.  At a top below 0 orbits() lists
    nothing: every degree is over the top.
    """

    def __init__(self, workspace, top: int):
        algebra, unit = workspace.algebra, workspace.unit
        classes = copy_classes(algebra)
        self.workspace, self.top = workspace, top
        # every key of degree below the radix is below the radix times
        # the largest unit; a key carries its degree in the bits above,
        # so a sum of keys sums their degrees, and a weight's chain
        # counts are one int, `width` bits per chain length
        one = 1 << (workspace.radix * max(unit.values(), default=1)).bit_length()
        width = algebra.dim.bit_length()
        limit = (top + 1) * one
        targets = _targets(algebra)
        listed = None
        for parities, lattice, copies, group in classes:
            shift = next((a for a, g in enumerate(copies[0])
                          if algebra._parities[g] and g not in targets), None)
            factor = _listed(parities, lattice, group,
                             [[unit[g] + one for g in c] for c in copies], top, one, width, shift)
            listed = factor if listed is None else _times(listed, factor, limit)
        # distinct factors expand to distinct series, chains being no
        # longer than top + 1 (_expanded), so no two stacks merge here;
        # stacks with the same chains share one expansion
        series: Dict[int, tuple] = {}
        ordered = []
        for (orbit, counts), keys in (listed or {(1, 0): [0]}).items():
            if counts not in series:
                series[counts] = _expanded(counts, top, width)
            ordered.append((tuple([orbit * c for c in series[counts]]), keys))
        ordered.sort()
        self.reach = max([len(weight) for weight, _ in ordered]) - 1
        stacks: Dict[int, list] = {}
        mask = one - 1
        for weight, keys in ordered:
            keys.sort()
            masked, lo = [k & mask for k in keys], 0
            while lo < len(keys):
                d = keys[lo] // one
                hi = bisect_left(keys, (d + 1) * one, lo)
                stacks.setdefault(d, []).append((weight, masked[lo:hi]))
                lo = hi
        self.stacks = dict(sorted(stacks.items()))
        self.in_copies = {g for _, _, copies, _ in classes for c in copies for g in c}
        self.free = [g for g in range(algebra.dim) if g not in self.in_copies]
        self._free: Dict[Optional[int], tuple] = {}

    def orbits(self, q: int, skip: Optional[int] = None) -> List[Tuple[tuple, List[int]]]:
        """The keys of degree q of one base charge tuple per orbit of
        copies, stacked by weight series: [(W, keys)], least series
        first; with `skip`, a generator outside every copy, of the
        cochains without its dual.  Each block on these keys stands for
        W[k] blocks of degree q + k of its rank.  A table without copies
        has one stack of series (1,), its canonical space in the
        canonical order.  A q over `top` and a `skip` inside a copy are
        refused.  The keys are not to be mutated: a stack with no free
        monomial to add is the listing's own.

        A representative gives the copies of each class its nonzero
        base charges in sorted order, the first copies first, and the
        zero charge to the rest; its orbit size is the product of the
        classes' multinomials.  With no generator outside the copies
        but `skip`, a call hands out degree q's stacks; otherwise it
        sums each stack of degree d <= q with the free monomials of
        degree q - d, listed by superexterior._keys on first use, so
        only the degrees asked for are listed, and keeps no sum.
        """
        if q > self.top:
            raise ValueError("degree %d is over the listing's top %d" % (q, self.top))
        if skip not in self._free:
            algebra, unit = self.workspace.algebra, self.workspace.unit
            if skip in self.in_copies:
                raise ValueError("generator %r lies in a copy, so the orbit listing "
                                 "cannot leave it out" % algebra.generators[skip].name)
            parity = algebra._parities
            self._free[skip] = ([unit[g] for g in self.free if g != skip and not parity[g]],
                                [unit[g] for g in self.free if g != skip and parity[g]], {})
        evens, odds, monomials = self._free[skip]
        if not (evens or odds):
            return list(self.stacks.get(q, ()))
        stacks: Dict[tuple, List[int]] = {}
        # a free monomial of degree over len(evens) has an odd factor
        for d in range(0 if odds else max(0, q - len(evens)), q + 1):
            if d not in self.stacks:
                continue
            bs = monomials.get(q - d)
            if bs is None:
                bs = monomials[q - d] = _keys(evens, odds, q - d)
            for weight, ks in self.stacks[d] if bs else ():
                keys = stacks.setdefault(weight, [])
                for b in bs:
                    keys += [a + b for a in ks] if b else ks
        return sorted(stacks.items())


def _listed(parities, lattice, group, units, top: int, one: int, width: int,
            shift: Optional[int]) -> Dict[tuple, List[int]]:
    """One copy class's representative keys of degree at most top, as
    {(orbit size, chain counts): keys}, the weights as factors
    (_expanded gives their series): the copies' local parities, the
    echelon basis of their charge lattice, their local group
    (_local_group), each copy's generators' keys of degree 1 plus
    `one`, a bit above every key, so that a sum of keys is its key plus
    its degree times `one`, the bits per chain length of the chain
    counts, and `shift`, the local position of the copies' first odd
    generator that is no bracket target, or None.

    The exponent vectors of degree at most top are classed by charge
    once, all together (_exponents, _lattice_classes), and each copy's
    keys of them are made once.  When the local group is the identity
    alone and `shift` is given, the charges that are shifts (the module
    docstring) are dropped, and each base charge takes its chain of
    shifts, found by following each shift's charge one y lower; every
    other charge has a chain of length 1, the series (1,).  A local
    group beyond the identity keeps the first charge of each of its
    orbits, with the orbit's size (_local_orbits); the zero charge is
    its own orbit.

    A representative gives copies 0..f-1 nonzero base charges in sorted
    order and the zero charge to every later copy; its orbit, under
    the permutations of the copies and each copy's local group, has
    the multinomial of the charges' runs times each charge's local
    orbit size, and its weight series is that times each copy's
    charge's series.  The weight is carried as its factors, (orbit
    size, chain counts), the counts one int whose fields add (_chain).
    The walk goes copy by copy: copy i takes each nonzero
    charge at or after the last one's, every degree of it at once, and
    keeps the sums whose degree fits; the orbit size is multiplied by
    (copies - i) / run times the charge's local orbit size, as it takes
    a charge the run-th time in a row, and the charge's chain is
    counted.  Every nonzero charge has degree 1 or more, so only copies
    0..top-1 take one, however many copies there are.
    Entries of one level with the same last charge, run and factors
    have the same future and walk on as one, whatever their degrees,
    and each is closed with the zero charge on copies i, i+1, ...
    (tails[i]), whose chain is counted copies - i times at once, so no
    key costs work per copy.  Distinct factors
    are distinct series (_expanded), so they file the keys as the
    series would.  At a top below 0 the listing is empty.
    """
    if top < 0:
        return {}
    limit = (top + 1) * one
    exps = _exponents(parities, top)
    charge_of = _lattice_classes(exps, lattice)
    table: Dict[tuple, list] = {}
    for e, c in zip(exps, charge_of):
        table.setdefault(c, []).append(e)
    chain = dict.fromkeys(table, 1)
    if shift is not None and len(group) == 1:
        # a charge whose every exponent has y to a power of 1 or more
        # is f_y times the charge of those exponents with one y less;
        # a base charge heads a chain of length L, itself and L - 1
        # shifts, 1 + t + ... + t^(L - 1)
        charge = dict(zip(exps, charge_of))
        base = {c for e, c in zip(exps, charge_of) if not e[shift]}
        up = {}
        for c in table.keys() - base:
            e = table.pop(c)[0]
            up[charge[e[:shift] + (e[shift] - 1,) + e[shift + 1:]]] = c
        for c in base:
            b = c
            while b in up:
                b = up[b]
                chain[c] += 1
    zero = (0,) * len(parities)
    zero_chain = _chain(chain[zero], top, width)
    zero = table.pop(zero)
    # least degree first, so a walk with less room stops at the first
    # charge that does not fit
    charges = sorted([(min(map(sum, es)), c, es) for c, es in table.items()])
    size = [1] * len(charges)
    if len(group) > 1:
        charges, size = _local_orbits(charges, lattice, group)
    least = [d for d, _, _ in charges]
    chains = [_chain(chain[c], top, width) for _, c, _ in charges]
    # each copy's keys of each nonzero charge, for the copies that take one
    nonzero = [[[sum(map(mul, copy, e)) for e in es] for _, _, es in charges]
               for copy in units[:top]]
    tails = [[0]]  # the zero charge on copies i, i+1, ..., for i falling
    for copy in reversed(units):
        tails.append(sorted(_sums([sum(map(mul, copy, e)) for e in zero], tails[-1], limit)))
    tails.reverse()
    listed: Dict[tuple, List[int]] = {}
    # {(last charge, its run, orbit size, chain counts): keys} of level i
    level: Dict[tuple, List[int]] = {(0, 0, 1, 0): [0]}
    for i, row in enumerate(nonzero + [[]]):
        if not level:
            break
        rest = len(units) - i
        grown: Dict[tuple, List[int]] = {}
        for (last, run, orbit, counts), keys in level.items():
            # level 0 has the keys [0] alone
            listed.setdefault((orbit, counts + rest * zero_chain), []).extend(
                _sums(keys, tails[i], limit) if i else tails[0])
            room = top - min(keys) // one
            for s, ks in enumerate(row[last:], last):
                if least[s] > room:
                    break
                r = run + 1 if s == last else 1
                new = [c for a in keys for b in ks if (c := a + b) < limit]
                if new:
                    grown.setdefault((s, r, orbit * size[s] * rest // r, counts + chains[s]),
                                     []).extend(new)
        level = grown
    return listed


def _local_orbits(charges, lattice, group):
    """(charges, sizes): the first of `charges`, (least degree, charge,
    exponents) in sorted order, in each orbit of the local group, and
    each orbit's size.  sigma maps an exponent vector e to
    (e[sigma[0]], e[sigma[1]], ...), of e's degree, and the charge of
    e to that of its image; the charges of one orbit share their least
    degree, so every orbit's first charge comes first in the order."""
    kept, size, seen = [], [], set()
    for entry in charges:
        if entry[1] in seen:
            continue
        e = entry[2][0]
        orbit = set(_lattice_classes([[e[a] for a in sigma] for sigma in group], lattice))
        seen |= orbit
        kept.append(entry)
        size.append(len(orbit))
    return kept, size


def _sums(left, right: List[int], limit: int) -> List[int]:
    """a + b below limit for every key a of `left` and b of `right`, keys
    that carry their degree above their bits, `right`'s in increasing
    order: each a takes the b up to the first that does not fit."""
    return [a + b for a in left for b in right[:bisect_left(right, limit - a)]]


def _times(left, right, limit: int) -> Dict[tuple, List[int]]:
    """The groups {weight: keys} of the sums a + b, a a key of `left`
    and b one of `right` (groups over disjoint generators, keys that
    carry their degree above their bits), below limit; keys are
    additive over disjoint generators, and weights, as factors (orbit
    size, chain counts), multiply: sizes multiply and counts add."""
    out: Dict[tuple, List[int]] = {}
    right = [(weight, sorted(keys)) for weight, keys in right.items()]
    for (o1, c1), k1 in left.items():
        for (o2, c2), k2 in right:
            out.setdefault((o1 * o2, c1 + c2), []).extend(_sums(k1, k2, limit))
    return out


def _chain(length: int, top: int, width: int) -> int:
    """The chain counts of one chain of this length, as an int that
    holds how many chains there are in its low `width` bits and how
    many of each length L from 2 to top in the bits from
    (L - 1) * width on; a chain of length 1, the series 1, is not
    counted, and one of top + 1, 1 / (1 - t) that far, only in the
    total.  Counts add as ints."""
    if length < 2:
        return 0
    return 1 + ((length <= top) << (length - 1) * width)


def _expanded(counts: int, top: int, width: int) -> tuple:
    """The weight series of the chain counts `counts` (_chain's int) of
    an orbit of size 1: the product of 1 + t + ... + t^(L - 1) over the
    chains, cut after t^top; a stack's series is its orbit size times
    this.  That product is (1 - t)^-k, k the number of chains, whose
    coefficients are binomials, times 1 - t^L once per chain of each
    length L up to top (a longer chain is 1 / (1 - t) that far), so no
    two series are multiplied.  It has the uncut product's length, at
    most top + 1 terms, whose last is its last nonzero one; chains no
    longer than top + 1 make distinct factors expand to distinct
    series."""
    field = (1 << width) - 1
    k = counts & field
    if not k:
        return (1,)
    out = list(map(comb, range(k - 1, k + top), range(top + 1)))
    length = 1
    while counts := counts >> width:
        length += 1
        for _ in range(counts & field):
            out[length:] = map(sub, out[length:], out[:-length])  # times 1 - t^L
    while not out[-1]:
        out.pop()
    return tuple(out)


def _exponents(parities, top: int) -> List[tuple]:
    """The exponent tuple of every monomial of degree at most top over
    generators of these parities: an even (0) exponent is 0 or 1."""
    out = [(0, ())]
    for p in parities:
        out = [(d + a, e + (a,)) for d, e in out
               for a in range(min(top if p else 1, top - d) + 1)]
    return [e for _, e in out]
