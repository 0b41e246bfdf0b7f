"""Symmetric weight blocks: rank one block per orbit of identical copies.

The structure pass (symmetry.copy_classes) finds classes of identical
components of the adapted table, and each class's local group: the
permutations of one copy's generators that, with signs, are
automorphisms.  Each copy's charge is kept by d, so d is block diagonal
over charge tuples, and permuting the copies of a class, or the
generators of one copy by its local group, permutes the blocks.  The
engine lists the keys of one charge tuple per orbit
(symmetry.OrbitListing.orbits) and takes rank d_q, or rank L^(t), as
sum |orbit| rank(block).  Multiplying by f_y, y an odd generator of a
copy that is no bracket target, maps blocks onto blocks one degree up,
so only base charges are listed, each stack with a weight series W,
and the ranks are sum_t sum W[q - t] rank(block of degree t).  The
references are the full matrices of differential_matrix, which never
splits, dense Fraction ranks of their blocks, and brute-force searches
for the local groups (signed_symmetries) and the shifts
(oracles.orbit_listing_defects).
"""

import random
from collections import Counter
from fractions import Fraction
from itertools import accumulate, permutations, product

import pytest

from heisenberg_cohomology import cohomology, symmetry, verify
from heisenberg_cohomology.algebra import (EVEN, ODD, LieSuperalgebra, adapted_basis,
                                           make_heisenberg_even, make_heisenberg_odd,
                                           require_valid)
from heisenberg_cohomology.cohomology import _ranks, betti_table
from heisenberg_cohomology.differential import _lefschetz_block, _odd_centre, _Workspace
from heisenberg_cohomology.elements import SuperSpaceDims, differential_matrix, enumerate_basis
from heisenberg_cohomology.formulas import dim_h_even, dim_h_odd_proof
from heisenberg_cohomology.limits import _checked_dims, check_grid
from heisenberg_cohomology.linalg import kernel_dim
from heisenberg_cohomology.symmetry import OrbitListing, _lattice_classes, copy_classes
from heisenberg_cohomology.superexterior import _keys, _radix, _units

from oracles import (dense_rank_fractions, full_matrix_ranks, orbit_listing_defects,
                     series_product, z_power_block)
from test_adapted_basis import HIDDEN_SUMS
from test_lefschetz_blocks import NOT_CENTRAL
from test_validate import OSP12, SL2, _table, change_basis, direct_sum

def _canonical(workspace, q, skip=None):
    """The keys of degree q over the workspace's units, without the
    unit of `skip`, a generator: its canonical space, in the canonical
    order."""
    evens, odds = _units(workspace.dims, workspace.radix)
    return _keys(evens, [u for u in odds if skip is None or u != workspace.unit[skip]], q)


# (n, q_max) and (n, m, q_max) of the family members the tests and the
# benchmark's family-deep workload compute, at their depths
ODD_MEMBERS = ((1, 10), (2, 10), (3, 10), (4, 8), (40, 1))
EVEN_MEMBERS = ((1, 1, 8), (1, 2, 8), (1, 3, 8), (2, 1, 8), (2, 2, 8), (2, 3, 8),
                (3, 1, 8), (3, 2, 8), (3, 3, 8), (2, 4, 8), (40, 2, 1))
# (n, q_max) and (n, m, q_max) of distinct-coefficient members, which
# have no copies (distinct)
DISTINCT_ODD = ((2, 8), (3, 8))
DISTINCT_EVEN = ((2, 3, 6), (3, 2, 6))


def shuffled(alg, seed):
    """alg with its generators listed in a seeded order; a bracket whose
    pair changes order takes the super skew sign."""
    gens, brackets = _table(alg)
    order = list(range(len(gens)))
    random.Random(seed).shuffle(order)
    position = {old: new for new, old in enumerate(order)}
    table = {}
    for (i, j), targets in brackets.items():
        pi, pj = position[i], position[j]
        flip = 1
        if pi > pj:
            pi, pj = pj, pi
            flip = 1 if gens[i][1] == gens[j][1] == ODD else -1
        table[(pi, pj)] = {position[k]: flip * c for k, c in targets.items()}
    return LieSuperalgebra("shuffled_" + alg.name, [gens[old] for old in order], table)


def distinct(alg):
    """alg, h_n or h_{n,m}, with coefficient i on its i-th pair and j on
    its y_j: no two components are copies, and over C a rescaling of
    the generators gives back alg, so its Betti numbers are alg's."""
    gens, brackets = _table(alg)
    seen = Counter()
    table = {}
    for (i, j), targets in brackets.items():
        seen[i == j] += 1
        table[(i, j)] = {k: seen[i == j] * c for k, c in targets.items()}
    return LieSuperalgebra("distinct_" + alg.name, gens, table)


def _distinct_members():
    """(algebra, q_max, its family's Betti numbers) of the
    distinct-coefficient members."""
    out = [(distinct(make_heisenberg_odd(n)), q, [dim_h_odd_proof(n, p) for p in range(q + 1)])
           for n, q in DISTINCT_ODD]
    return out + [(distinct(make_heisenberg_even(n, m)), q,
                   [dim_h_even(n, m, p) for p in range(q + 1)]) for n, m, q in DISTINCT_EVEN]


def odd_pairs(k, n=0):
    """z (even), n even pairs (x_i, w_i) with [x_i, w_i] = z, and k odd
    pairs (u_i, v_i) with [u_i, v_i] = z.  Swapping u_i and v_i needs no
    sign, where swapping x_i and w_i needs one.  Over C, u_i +- v_i
    rescale to odd y with [y, y] = z, so this is h_{n,2k} in another
    basis, and has its Betti numbers."""
    gens = [("z", EVEN)]
    gens += [(name % i, EVEN) for i in range(1, n + 1) for name in ("x%d", "w%d")]
    gens += [(name % i, ODD) for i in range(1, k + 1) for name in ("u%d", "v%d")]
    brackets = {(a, a + 1): {0: 1} for a in range(1, len(gens), 2)}
    return LieSuperalgebra("odd_pairs_%d_%d" % (k, n), gens, brackets)


# (k, n, q_max) of the odd-pair tables: odd pairs alone, and beside
# x-pairs
ODD_PAIRS = ((2, 0, 8), (3, 0, 6), (2, 2, 6), (3, 2, 5))

# three even generators a, b, c around z: the fan [a, b] = [a, c] = z,
# where swapping b and c is an automorphism and moving a is not, and
# the triangle [a, b] = [b, c] = [c, a] = z, where a transposition
# would need eps_a eps_b = eps_b eps_c = eps_a eps_c = -1, so only the
# rotations are; each with its local group
TRIPLES = {"fan": ({(0, 1): 1, (0, 2): 1}, {(0, 1, 2), (0, 2, 1)}),
           "triangle": ({(0, 1): 1, (1, 2): 1, (0, 2): -1}, {(0, 1, 2), (1, 2, 0), (2, 0, 1)})}


def triples(kind, k):
    """z (even) and k copies of the even triple `kind` of TRIPLES."""
    gens = [("z", EVEN)]
    gens += [(name % i, EVEN) for i in range(1, k + 1) for name in ("a%d", "b%d", "c%d")]
    brackets = {(3 * i + 1 + a, 3 * i + 1 + b): {0: c}
                for i in range(k) for (a, b), c in TRIPLES[kind][0].items()}
    return LieSuperalgebra("%s_%d" % (kind, k), gens, brackets)


def filiform(k):
    """t (odd) and k copies of the odd-headed filiform triple
    [a_i, b_i] = c_i, [a_i, c_i] = t: a_i even, b_i and c_i odd.  c_i is
    a bracket target inside its copy and b_i is none, so the copies
    shift by b_i though a target is not central."""
    gens = [("t", ODD)]
    gens += [(name % i, parity) for i in range(1, k + 1)
             for name, parity in (("a%d", EVEN), ("b%d", ODD), ("c%d", ODD))]
    brackets = {}
    for i in range(k):
        a, b, c = 3 * i + 1, 3 * i + 2, 3 * i + 3
        brackets.update({(a, b): {c: 1}, (a, c): {0: 1}})
    return LieSuperalgebra("filiform_%d" % k, gens, brackets)


def aff_copies(k):
    """k copies of aff(1), [a_i, b_i] = b_i, a_i and b_i even: each
    copy's bracket target lies inside it, so the class has the trivial
    local group, and no odd generator to shift by."""
    gens = [(name % i, EVEN) for i in range(1, k + 1) for name in ("a%d", "b%d")]
    brackets = {(2 * i, 2 * i + 1): {2 * i + 1: 1} for i in range(k)}
    return LieSuperalgebra("aff1_%d" % k, gens, brackets)


def chain_copies(k):
    """z (even) and k copies of the even chain a_i - b_i - c_i - d_i,
    [a_i, b_i] = [b_i, c_i] = [c_i, d_i] = z, its brackets listed so that
    b_i - c_i joins two pieces already found: the copy's generators are
    one component only once every union is followed to its root."""
    gens = [("z", EVEN)]
    gens += [(name % i, EVEN) for i in range(1, k + 1) for name in ("a%d", "b%d", "c%d", "d%d")]
    brackets = {}
    for i in range(k):
        a = 4 * i + 1
        brackets.update({(a, a + 1): {0: 1}, (a + 2, a + 3): {0: 1}, (a + 1, a + 2): {0: 1}})
    return LieSuperalgebra("chains_%d" % k, gens, brackets)


def signed_symmetries(alg, copy):
    """The permutations sigma of the generators in `copy` (sigma[a] a
    position in the tuple) for which some signs eps make
    g_copy[a] -> eps_a g_copy[sigma[a]], the identity on every other
    generator, an automorphism of alg: every signed permutation is
    tried, and every bracket of alg's table checked, both orders, in
    Fractions."""
    par = [g.parity for g in alg.generators]
    table = {}
    for (i, j), targets in alg.brackets.items():
        table[i, j] = {k: Fraction(c) for k, c in targets.items()}
        flip = 1 if par[i] == par[j] == ODD else -1
        table[j, i] = {k: flip * Fraction(c) for k, c in targets.items()}
    found = set()
    for sigma in permutations(range(len(copy))):
        if any(par[copy[sigma[a]]] != par[g] for a, g in enumerate(copy)):
            continue
        for eps in product((1, -1), repeat=len(copy)):
            image = {g: (g, 1) for g in range(alg.dim)}
            image.update((g, (copy[sigma[a]], eps[a])) for a, g in enumerate(copy))

            def mapped(targets):
                out = Counter()
                for k, c in targets.items():
                    out[image[k][0]] += image[k][1] * c
                return {k: c for k, c in out.items() if c}

            if all(mapped(table.get((i, j), {}))
                   == {k: image[i][1] * image[j][1] * c
                       for k, c in table.get((image[i][0], image[j][0]), {}).items()}
                   for i in range(alg.dim) for j in range(alg.dim)):
                found.add(sigma)
                break
    return found


def _members():
    out = [(make_heisenberg_odd(n), q) for n, q in ODD_MEMBERS]
    out += [(make_heisenberg_even(n, m), q) for n, m, q in EVEN_MEMBERS]
    out += [(alg, q) for alg, q, _ in _distinct_members()]
    out += [(odd_pairs(k, n), q) for k, n, q in ODD_PAIRS]
    out += [(triples(kind, 3), 6) for kind in TRIPLES] + [(filiform(3), 5)]
    out += [(aff_copies(k), 4) for k in (2, 3)] + [(chain_copies(2), 6)]
    return out + [(shuffled(make_heisenberg_even(3, 3), 5), 8)]


def _full_route(alg, q_max):
    """(listing, dims) of the full-matrix route, set up as betti_table
    sets them up: the size refusals and their dimensions, require_valid,
    then an orbit listing up to q_max on a workspace of the adapted
    table."""
    dims = _checked_dims(alg.name, alg.superdim, q_max, range(q_max + 1), 5000)
    require_valid(alg)
    return OrbitListing(_Workspace(adapted_basis(alg), q_max + 1), q_max), dims


def _orbit_ranks(alg, q_max):
    """{q: rank d_q} from the rank helper, on the table's route."""
    listing, dims = _full_route(alg, q_max)
    return _ranks(listing.workspace.algebra, -1, q_max, dims)


def _spread(totals, t, weight, value):
    """The reference spread, a term at a time: weight[k] * value added
    to totals[t + k] for every k that totals reach."""
    for k, w in enumerate(weight):
        if t + k < len(totals):
            totals[t + k] += w * value


def test_fused_spreads_keep_every_weight():
    # _ranks and verify's odd points add each block's rank, and its psi
    # kernels, to every degree its weight series reaches, in one pass
    # over the series; block by block, the reference spread must give
    # the same totals, for series longer than the degrees left too
    cut = 0
    pools = _members() + [(alg, 6) for alg in _without_copies()]
    for alg, q_max in pools:
        q_max = min(q_max, 8)
        listing, dims = _full_route(alg, q_max)
        adapted = listing.workspace.algebra
        # the table's route, the Lefschetz route given its odd centre z
        # and the full d_q route otherwise, for a whole table and for a
        # single-degree call (cohomology_dims: low = q - 1), which given
        # z walks from degree 0 too, for the prefix sums
        z = _odd_centre(adapted)
        top = q_max if z is None else q_max - 1
        for low in (-1, q_max - 1):
            walked = OrbitListing(_Workspace(adapted, q_max + 1), top)
            want = [0] * (top + 1)
            for t, groups in cohomology._blocks(walked, low if z is None else -1,
                                                top, dims, z):
                for weight, _, _, r in groups:
                    _spread(want, t, weight, r)
                    cut += len(weight) > top + 1 - t
            if z is not None:
                want = list(accumulate(want, initial=0))
            assert _ranks(adapted, low, q_max, dims) == {
                q: want[q] if q >= 0 else 0 for q in range(low, q_max + 1)}, (alg.name, low)
    # verify's odd points: rank L^(t) and the kernels of psi_(n,l), each
    # group's psi kernel by its own elimination here
    for (n, _), dims in check_grid("odd", 4, None, 8).items():
        listing = OrbitListing(_Workspace(adapted_basis(make_heisenberg_odd(n)), 12), 8)
        totals = [[0] * 9 for _ in range(4)]
        for t, groups in cohomology._blocks(listing, 0, 8, dims, 2 * n):
            for weight, keys, block, r in groups:
                kernels = [kernel_dim(_lefschetz_block(listing.workspace, 2 * n, t, l, keys))
                           for l in (2, 3)]
                for total, value in zip(totals, [r, block.cols - r] + kernels):
                    _spread(total, t, weight, value)
                cut += len(weight) > 9 - t
        rk = list(accumulate(totals[0], initial=0))
        by_formula = {}
        verify._odd_point(n, 8, dims, by_formula)
        for l in (1, 2, 3):
            assert [c.oracle_value for c in by_formula["ker_psi_dim[l=%d]" % l]] == totals[l]
        assert [c.oracle_value for c in by_formula["dim_h_odd_proof"]] == [
            dims[q] - rk[q] - (rk[q - 1] if q else 0) for q in range(9)]
    # series longer than the degrees left are cut at the top
    assert cut > 100


def test_copy_classes_of_the_families():
    # h_n: n copies (x_i, y_i) around the central z; the charge of
    # x_i^s y_i^alpha is alpha - s
    assert copy_classes(make_heisenberg_odd(1)) == ()
    ((parities, lattice, copies, group),) = copy_classes(make_heisenberg_odd(3))
    # x_i and y_i differ in parity: no local permutation but the identity
    assert (parities, copies, group) == ((0, 1), ((0, 3), (1, 4), (2, 5)), ((0, 1),))
    vectors = [(s, alpha) for s in (0, 1) for alpha in range(5)]
    assert _lattice_classes(vectors, lattice) == [(0, alpha - s) for s, alpha in vectors]
    # h_{n,m}: the pairs (x_i, x_{n+i}) charged by s_{n+i} - s_i, and
    # swapped by x_i -> x_{n+i}, x_{n+i} -> -x_i; the y_j charged by
    # alpha_j mod 2; one copy of a piece is no class
    pairs, ys = copy_classes(make_heisenberg_even(2, 3))
    assert (pairs[0], pairs[2], pairs[3]) == ((0, 0), ((1, 3), (2, 4)), ((0, 1), (1, 0)))
    assert (ys[0], ys[2], ys[3]) == ((1,), ((5,), (6,), (7,)), ((0,),))
    assert set(_lattice_classes([(s, t) for s in (0, 1) for t in (0, 1)], pairs[1])) \
        == {(0, -1), (0, 0), (0, 1)}
    assert _lattice_classes([(a,) for a in range(4)], ys[1]) == [(0,), (1,), (0,), (1,)]
    assert [len(c[2]) for c in copy_classes(make_heisenberg_even(1, 3))] == [3]
    assert [len(c[2]) for c in copy_classes(make_heisenberg_even(3, 1))] == [3]
    assert copy_classes(make_heisenberg_even(1, 1)) == ()


def test_orbit_sums_equal_the_full_matrix_ranks():
    for alg, q_max in _members():
        adapted = adapted_basis(alg)
        full = full_matrix_ranks(adapted, q_max)
        symmetric = bool(copy_classes(adapted))
        # h_1, h_{1,1} and the distinct-coefficient members alone have no
        # class of two copies; the odd-pair tables' swaps need no sign
        assert symmetric == (alg.name not in ("h_1", "h_{1,1}")
                             and not alg.name.startswith("distinct_")), alg.name
        listing, _ = _full_route(alg, q_max)
        # without copies, each degree is one stack of orbit size 1
        assert symmetric or [weight for weight, _ in listing.orbits(q_max)] == [(1,)], alg.name
        # the table's route: the Lefschetz blocks on h_n, the full route
        # otherwise, as the rank helper and betti_table take it
        assert _orbit_ranks(alg, q_max) == full, alg.name
        table = betti_table(alg, q_max)
        assert [r.dim_cochain - r.dim_cocycles for r in table] \
            == [full[q] for q in range(q_max + 1)], alg.name
        assert [r.dim_coboundaries for r in table] == [full[q - 1] for q in range(q_max + 1)]
        # cohomology_dims: d_{q-1} and d_q alone, every degree of the
        # aff(1) copies, the top degree of the others
        for q in range(q_max + 1) if alg.name.startswith("aff1_") else (q_max,):
            report = cohomology.cohomology_dims(alg, q)
            assert (report.dim_cochain - report.dim_cocycles, report.dim_coboundaries) \
                == (full[q], full[q - 1]), (alg.name, q)


def test_distinct_coefficients_keep_the_family_betti_numbers():
    for alg, q_max, betti in _distinct_members():
        assert [r.dim_cohomology for r in betti_table(alg, q_max)] == betti, alg.name
        assert cohomology.cohomology_dims(alg, q_max).dim_cohomology == betti[q_max], alg.name


def test_copies_must_share_their_central_targets():
    # plain direct sums: h_2 + h_1 has three pieces (x, y) -> z, but only
    # h_2's two target the same z, so swapping one of them with h_1's
    # is no automorphism; h_1 + h_1 + h_1 has three centres, no class
    h1, h2 = _table(make_heisenberg_odd(1)), _table(make_heisenberg_odd(2))
    h11 = _table(make_heisenberg_even(1, 1))
    sums = {"h_2+h_1": direct_sum(h2, h1), "h_1+h_2": direct_sum(h1, h2),
            "h_2+h_{1,1}": direct_sum(h2, h11),
            "h_1+h_1+h_1": direct_sum(direct_sum(h1, h1), h1)}
    classes = {}
    for name, table in sums.items():
        alg = LieSuperalgebra(name, *table)
        classes[name] = [copies for _, _, copies, _ in copy_classes(alg)]
        full = full_matrix_ranks(alg, 6)
        assert _orbit_ranks(alg, 6) == full, name
        assert [r.dim_cochain - r.dim_cocycles for r in betti_table(alg, 6)] \
            == [full[q] for q in range(7)], name
    assert classes == {"h_2+h_1": [((0, 2), (1, 3))], "h_1+h_2": [((3, 5), (4, 6))],
                       "h_2+h_{1,1}": [((0, 2), (1, 3))], "h_1+h_1+h_1": []}


def test_shuffled_generators_keep_the_betti_numbers():
    alg = make_heisenberg_even(3, 3)
    for seed in range(4):
        mixed = shuffled(alg, seed)
        # the y_j keep one class whatever the order; a pair listed as
        # (x_{n+i}, x_i) brackets to -z, and is a copy of such pairs only
        assert any(len(parities) == 1 for parities, _, _, _ in copy_classes(mixed)), seed
        assert [r.dim_cohomology for r in betti_table(mixed, 5)] \
            == [r.dim_cohomology for r in betti_table(alg, 5)], seed


def test_representatives_are_distinct_keys_of_their_degree():
    for alg in (make_heisenberg_even(2, 3), make_heisenberg_odd(4),
                shuffled(make_heisenberg_even(3, 3), 1)):
        listing = OrbitListing(_Workspace(adapted_basis(alg), 7), 6)
        everything = set(_keys(*_units(listing.workspace.dims, _radix(7)), 6))
        listed = [key for _, keys in listing.orbits(6) for key in keys]
        assert len(set(listed)) == len(listed) and set(listed) <= everything
        # well under half of the columns are listed
        assert 5 * len(listed) < 2 * len(everything), alg.name
        weights = [weight for weight, _ in listing.orbits(6)]
        assert weights == sorted(set(weights)) and weights[0][0] == 1


def test_local_groups_match_a_brute_force_search():
    # every copy of every class, against every signed permutation of its
    # generators checked on the whole table: h_n's (x_i, y_i) and the
    # y_j have the identity alone, a pair of h_{n,m} (shuffled too) and
    # an odd pair its swap, and the triples theirs
    tables = [make_heisenberg_odd(n) for n in (2, 3, 4)]
    tables += [make_heisenberg_even(n, m) for n, m, _ in EVEN_MEMBERS if 2 < n + m < 10]
    tables += [shuffled(make_heisenberg_even(3, 3), seed) for seed in range(4)]
    tables += [odd_pairs(k, n) for k, n, _ in ODD_PAIRS]
    tables += [triples(kind, k) for kind in TRIPLES for k in (2, 3)]
    for alg in tables:
        adapted = adapted_basis(alg)
        classes = copy_classes(adapted)
        assert classes, alg.name
        for parities, _, copies, group in classes:
            assert group[0] == tuple(range(len(parities))), alg.name
            for copy in copies:
                assert set(group) == signed_symmetries(adapted, copy), (alg.name, copy)
            if len(parities) < 3:
                # exactly the pairs of one parity have a swap
                assert (group[1:] == ((1, 0),)) == (parities in ((0, 0), (1, 1))), alg.name
            else:
                assert set(group) == TRIPLES[alg.name.split("_")[0]][1], alg.name
    # no class: their pairs keep their swaps, but no two are copies
    for alg, _, _ in _distinct_members():
        assert copy_classes(adapted_basis(alg)) == (), alg.name


def test_each_orbit_group_lists_its_orbits_once():
    # the oracle relabels each listed key by every permutation of the
    # copies within their classes, after each copy's own permutations
    # (signed_symmetries, not the package's), and shifts it by brute
    # force, with no charge or lattice: the stacks of every degree
    # t <= q must tile degree q's basis, W[q - t] images a key; h_n's z,
    # its last generator, is in no copy, and is left out too
    tables = [(make_heisenberg_odd(n), top, (None, 2 * n)) for n, top in ((2, 10), (3, 9),
                                                                         (4, 7), (5, 6))]
    # the family-deep depths: h_3 at top 9, and h_{2,4} and h_{3,3} at 8
    tables += [(make_heisenberg_even(n, m), top, (None,))
               for n, m, top in ((1, 4, 7), (3, 1, 7), (2, 4, 8), (3, 3, 8))]
    # the verify grids' tables at their tops: h_1 without copies, h_2,
    # h_{1,m} with one class, h_{3,2} and h_{2,3} with two
    tables += [(make_heisenberg_odd(n), 8, (None, 2 * n)) for n in (1, 2)]
    tables += [(make_heisenberg_even(n, m), top, (None,))
               for n, m, top in ((1, 1, 8), (1, 2, 8), (1, 3, 8), (1, 4, 8), (3, 2, 6),
                                 (2, 3, 7))]
    tables.append((shuffled(make_heisenberg_even(3, 3), 5), 7, (None,)))
    # odd pairs alone and beside x-pairs, whose swaps need no sign, and
    # the triples, whose local groups have two and three elements
    tables += [(odd_pairs(k, n), q, (None,)) for k, n, q in ODD_PAIRS]
    tables += [(triples(kind, 3), 6, (None,)) for kind in TRIPLES]
    # the filiform copies shift by b_i, and their classes join through
    # monomials of higher degree
    tables += [(filiform(k), top, (None,)) for k, top in ((2, 6), (3, 5))]
    for alg, top, skips in tables:
        adapted = adapted_basis(alg)
        copies = [c for _, _, c, _ in copy_classes(adapted)]
        local = [sorted(signed_symmetries(adapted, c[0])) for c in copies]
        listing = OrbitListing(_Workspace(adapted, top + 1), top)
        workspace = listing.workspace
        for skip in skips:
            for q in range(top + 1):
                # the stacks of every degree t <= q, shifted q - t times
                groups = [(q - t, weight, keys) for t in range(q + 1)
                          for weight, keys in listing.orbits(t, skip)]
                basis = _canonical(workspace, q, skip)
                assert orbit_listing_defects(adapted, copies, groups, basis, workspace.radix,
                                             local, top) == [], (alg.name, skip, q)


def _hand_charges(alg):
    """(charges, lower) of h_n or h_{n,m}, by hand: charges maps a
    monomial {generator name: exponent} to its copies' charges, and
    lower(i, c) is the charge one y lower when copy i's charge c is a
    shift (f_y times that charge), else None.  On h_n the charge of
    (x_i, y_i) is alpha_i - s_i, a shift from 1 on; on h_{n,m} the pair
    (x_i, x_{n+i}) has s_{n+i} - s_i, never a shift (the swap is in its
    local group), and y_j has alpha_j mod 2, a shift when odd."""
    names = [g.name for g in alg.generators]
    n = sum(name.startswith("x") for name in names)
    if "," not in alg.name:
        def charges(mono):
            return tuple(mono.get("y%d" % i, 0) - mono.get("x%d" % i, 0) for i in range(1, n + 1))
        return charges, lambda i, c: c - 1 if c >= 1 else None
    n //= 2
    m = len(names) - 2 * n - 1

    def charges(mono):
        pairs = [mono.get("x%d" % (n + i), 0) - mono.get("x%d" % i, 0) for i in range(1, n + 1)]
        return tuple(pairs + [mono.get("y%d" % j, 0) % 2 for j in range(1, m + 1)])
    return charges, lambda i, c: 0 if i >= n and c == 1 else None


def _dense_block_ranks(entries, basis, names, charges):
    """{charge tuple: dense Fraction rank of the columns of `basis`
    (monomials over the generators `names`, evens first) with those
    charges} of the matrix {(row, col): value} `entries`."""
    columns = {}
    for (r, c), v in entries.items():
        columns.setdefault(c, {})[r] = v
    blocks = {}
    for c, mono in enumerate(basis):
        n0 = len(names) - len(mono.odd_exponents)
        word = {names[p]: 1 for p in mono.even_set}
        word.update((names[n0 + p], a) for p, a in enumerate(mono.odd_exponents) if a)
        blocks.setdefault(charges(word), []).append(c)
    out = {}
    for key, cols in blocks.items():
        rows = {r: i for i, r in enumerate(sorted({r for c in cols for r in columns.get(c, ())}))}
        out[key] = dense_rank_fractions(len(rows), len(cols), {
            (rows[r], i): v for i, c in enumerate(cols) for r, v in columns.get(c, {}).items()})
    return out


def test_each_shifted_block_has_its_base_rank_one_degree_down():
    # f_y, y odd and no bracket target, is a cocycle, and multiplying by
    # it is injective, so a charge whose every monomial has y is f_y
    # times the charge one y lower, and its block in degree q has the
    # rank of that one's in degree q - 1: for L^(t) on h_n, for d_q on
    # h_{n,m}; ranks from dense eliminations of the full matrices' blocks
    compared = 0
    for alg, top in ((make_heisenberg_odd(2), 8), (make_heisenberg_odd(3), 7),
                     (make_heisenberg_odd(4), 6), (make_heisenberg_even(1, 2), 7),
                     (make_heisenberg_even(2, 2), 6), (make_heisenberg_even(1, 3), 6)):
        charges, lower = _hand_charges(alg)
        gens = [alg.generators[g].name for g in alg.even_indices + alg.odd_indices]
        ranks = {}
        for q in range(top + 1):
            if "," in alg.name:
                dm = differential_matrix(alg, q)
                found = _dense_block_ranks(dm.matrix.entries, dm.domain, gens, charges)
            else:
                block, _ = z_power_block(alg, alg.dim - 1, q, 1)
                space = SuperSpaceDims(alg.superdim[0], alg.superdim[1] - 1)
                found = _dense_block_ranks(block, enumerate_basis(space, q), gens[:-1], charges)
            ranks.update(((q, key), r) for key, r in found.items())
        for (q, key), r in ranks.items():
            for i, c in enumerate(key):
                if lower(i, c) is not None:
                    base = key[:i] + (lower(i, c),) + key[i + 1:]
                    assert ranks[q - 1, base] == r, (alg.name, q, key, i)
                    compared += 1
        # and the weighted listing, on either route, has the full ranks
        listing, _ = _full_route(alg, top)
        assert listing.reach > 0, alg.name
        full = full_matrix_ranks(adapted_basis(alg), top)
        assert _orbit_ranks(alg, top) == full, alg.name
        assert [r.dim_cochain - r.dim_cocycles for r in betti_table(alg, top)] \
            == [full[q] for q in range(top + 1)], alg.name
    # every shifted block of those degrees, once per copy it is shifted on
    assert compared == 2540


def gl11_copies(k):
    """k copies of a gl(1|1)-type block, [h_i, e_i] = e_i,
    [h_i, f_i] = -f_i, [e_i, f_i] = c with c shared: h_i even, e_i and
    f_i odd, and both bracket targets, so neither is a shift."""
    gens = [("c", EVEN)]
    gens += [(name % i, parity) for i in range(1, k + 1)
             for name, parity in (("h%d", EVEN), ("e%d", ODD), ("f%d", ODD))]
    brackets = {}
    for i in range(k):
        h, e, f = 3 * i + 1, 3 * i + 2, 3 * i + 3
        brackets.update({(h, e): {e: 1}, (h, f): {f: -1}, (e, f): {0: 1}})
    return LieSuperalgebra("gl11_%d" % k, gens, brackets)


def test_classes_that_must_not_shift_list_as_without_a_shift(monkeypatch):
    # the odd pairs' swap and the triples' groups are in G, and the
    # gl(1|1)-type blocks' odd generators are bracket targets: each
    # class lists as with no shift generator given, every weight series
    # of length 1, and the ranks are the full matrices'
    tables = [(odd_pairs(k, n), q) for k, n, q in ODD_PAIRS]
    tables += [(triples(kind, 3), 6) for kind in TRIPLES] + [(gl11_copies(3), 5)]
    listed = {alg.name: _full_route(alg, top)[0] for alg, top in tables}
    # the gate holds back these alone: h_3's pairs do shift, and so do
    # the filiform copies, by b_i, though their c_i is a target
    assert _full_route(make_heisenberg_odd(3), 4)[0].reach == 4
    assert _full_route(filiform(3), 4)[0].reach == 4
    real = symmetry._listed
    monkeypatch.setattr(symmetry, "_listed", lambda *args: real(*args[:-1], None))
    for alg, top in tables:
        adapted = adapted_basis(alg)
        assert copy_classes(adapted), alg.name
        listing, bare = listed[alg.name], _full_route(alg, top)[0]
        assert listing.reach == 0 and all(len(w) == 1 for stacks in listing.stacks.values()
                                          for w, _ in stacks), alg.name
        for q in range(top + 1):
            assert listing.orbits(q) == bare.orbits(q), (alg.name, q)
        assert _orbit_ranks(alg, top) == full_matrix_ranks(adapted, top), alg.name


def test_a_generator_inside_a_copy_cannot_be_left_out():
    # the engine leaves out only an odd centre, which lies in no copy
    for alg in (make_heisenberg_odd(3), make_heisenberg_even(2, 2)):
        adapted = adapted_basis(alg)
        classes = copy_classes(adapted)
        listing = OrbitListing(_Workspace(adapted, 5), 4)
        for g in (g for _, _, copies, _ in classes for c in copies for g in c):
            name = adapted.generators[g].name
            with pytest.raises(ValueError, match="generator %r lies in a copy" % name):
                listing.orbits(2, g)
        # an odd one, asked for by its generator id on a fresh listing
        y = next(g for g in classes[-1][2][0] if g in adapted.odd_indices)
        with pytest.raises(ValueError, match="lies in a copy"):
            OrbitListing(_Workspace(adapted, 5), 4).orbits(2, y)


def test_an_engine_call_that_lists_nothing():
    # betti_table's Lefschetz route at q_max = 0 builds its listing at
    # top -1, where a table with copies has no representative to walk,
    # and ranks no block: H^0 is the constants alone
    for n in (2, 3, 4):
        adapted = adapted_basis(make_heisenberg_odd(n))
        assert copy_classes(adapted), n
        assert [r.dim_cohomology for r in betti_table(make_heisenberg_odd(n), 0)] == [1], n
        listing = OrbitListing(_Workspace(adapted, 1), -1)
        for q in range(4):
            for skip in (None, 2 * n):
                with pytest.raises(ValueError, match="degree %d is over the listing's top -1" % q):
                    listing.orbits(q, skip)


def test_betti_table_lists_no_degree_it_does_not_rank(monkeypatch):
    # h_3's Lefschetz walk stops at L^(q_max - 1), whose columns are A^t
    # times f_z; the full route of h_{2,2} ranks d_q up to q_max
    listings = []
    real = symmetry.OrbitListing.orbits

    def orbits(listing, q, skip=None):
        listings.append((listing, skip))
        return real(listing, q, skip)

    monkeypatch.setattr(symmetry.OrbitListing, "orbits", orbits)
    for alg, q_max, top in ((make_heisenberg_odd(3), 6, 5), (make_heisenberg_even(2, 2), 6, 6)):
        listings.clear()
        betti_table(alg, q_max)
        listing, skip = listings[0]
        assert real(listing, top, skip), alg.name
        with pytest.raises(ValueError, match="degree %d is over the listing's top %d"
                                             % (top + 1, top)):
            real(listing, top + 1, skip)


def test_deep_degrees_with_few_copies_match_the_canonical_route(monkeypatch):
    # two or three copies at degrees 30 and 45: many charge multisets,
    # few keys each
    deep = [(make_heisenberg_odd(2), 45, lambda q: dim_h_odd_proof(2, q)),
            (make_heisenberg_even(1, 3), 30, lambda q: dim_h_even(1, 3, q))]
    listed = [[r.dim_cohomology for r in betti_table(alg, q_max)] for alg, q_max, _ in deep]
    monkeypatch.setattr(symmetry, "copy_classes", lambda alg: ())
    for (alg, q_max, formula), betti in zip(deep, listed):
        assert betti == [r.dim_cohomology for r in betti_table(alg, q_max)], alg.name
        assert betti == [formula(q) for q in range(q_max + 1)], alg.name


def test_many_copies_are_listed_without_deep_recursion():
    # no copy past the degree takes a nonzero charge, so the walk over
    # 1,200 copies has at most two levels and nothing recurses per copy
    for alg, want in ((make_heisenberg_odd(1200), dim_h_odd_proof(1200, 1)),
                      (make_heisenberg_even(1200, 2), dim_h_even(1200, 2, 1))):
        assert betti_table(alg, 1, column_cap=10**5)[1].dim_cohomology == want, alg.name
        assert cohomology.cohomology_dims(alg, 1, column_cap=10**5).dim_cohomology == want


def test_factored_weights_expand_to_the_brute_force_series():
    # a stack's weight is carried as its factors, an orbit size and how
    # many chains 1 + t + ... + t^(L - 1) of each length L, and expanded
    # once: the expansion must be the series product it replaced, and
    # distinct factors, with chains no longer than top + 1, distinct
    # series
    rng = random.Random(42)
    for top in range(13):
        lengths = sorted({1, 2, 3, 4, top + 1})
        cases = [{length: count} for length in lengths for count in range(13)]
        cases += [{length: rng.randrange(13) for length in rng.sample(lengths, 3)}
                  for _ in range(30)]
        expanded = {}
        # chain counts add as ints, 6 bits a field: up to 63 chains
        for orbit in (1, 2, 6, 24, 120, 720):
            for chains in cases:
                counts = sum(count * symmetry._chain(length, top, 6)
                             for length, count in chains.items())
                got = tuple(orbit * c for c in symmetry._expanded(counts, top, 6))
                factors = [(1,) * length for length, count in chains.items() for _ in range(count)]
                assert got == tuple(orbit * c for c in series_product(factors, top)), \
                    (top, orbit, chains)
                if max(chains) <= top + 1:
                    weight = (orbit, tuple(sorted((length, count) for length, count
                                                  in chains.items() if length > 1 and count)))
                    assert expanded.setdefault(got, weight) == weight, (top, got)


def test_each_engine_call_builds_its_set_up_once(monkeypatch):
    # one orbit listing per betti_table or cohomology_dims call, per
    # verify grid point and per direct-sum part type, and one derivation
    # of a table's copy classes, kept on the table: _echelon_lattice runs
    # once per class of two or more copies a derivation meets
    listings, lattices = [], []
    real_init, real_lattice = symmetry.OrbitListing.__init__, symmetry._echelon_lattice

    def init(listing, workspace, top):
        listings.append(workspace.algebra.name)
        real_init(listing, workspace, top)

    def echelon(vectors, width):
        lattices.append(width)
        return real_lattice(vectors, width)

    monkeypatch.setattr(symmetry.OrbitListing, "__init__", init)
    monkeypatch.setattr(symmetry, "_echelon_lattice", echelon)
    for alg, classes in ((make_heisenberg_odd(3), 1), (make_heisenberg_even(2, 2), 2),
                         (odd_pairs(2, 2), 2)):
        del listings[:], lattices[:]
        betti_table(alg, 4)
        cohomology.cohomology_dims(alg, 3)
        betti_table(alg, 2)
        assert listings == [alg.name] * 3, alg.name
        assert len(lattices) == classes and len(copy_classes(adapted_basis(alg))) == classes, \
            alg.name
    # each grid point builds its own member: h_1 and h_{1,1} have no
    # class of two copies, h_{2,2} two
    for family, m_max, names, classes in (
            ("odd", None, ["h_1", "h_2", "h_3"], 2),
            ("even", 2, ["h_{1,1}", "h_{1,2}", "h_{2,1}", "h_{2,2}"], 4)):
        del listings[:], lattices[:]
        verify.verify_family(family, 3 if m_max is None else 2, m_max, q_max=3)
        assert sorted(listings) == names and len(lattices) == classes, family
    # a hidden h_1 + h_1 + h_{1,1} splits: one listing per part type, on
    # its canonical table, and none for the whole
    h1, h11 = _table(make_heisenberg_odd(1)), _table(make_heisenberg_even(1, 1))
    alg = LieSuperalgebra("hidden", *change_basis(random.Random(5),
                                                  direct_sum(direct_sum(h1, h1), h11)))
    del listings[:]
    betti_table(alg, 4)
    assert sorted(listings) == ["h_1", "h_{1,1}"]


def _without_copies():
    """Tables with no class of two copies: hidden-basis direct sums,
    indecomposable tables, h_1, h_{1,1} and the distinct-coefficient
    members."""
    algebras = [s for _, _, s in HIDDEN_SUMS]
    algebras += [LieSuperalgebra("sl2", *SL2), LieSuperalgebra("osp12", *OSP12),
                 NOT_CENTRAL, make_heisenberg_odd(1), make_heisenberg_even(1, 1)]
    return algebras + [alg for alg, _, _ in _distinct_members()]


def test_tables_without_copies_take_the_canonical_spaces(monkeypatch):
    # no class of two copies, so every stack the engine ranks is a whole
    # canonical space, of orbit size 1.  The sums are ranked whole here:
    # split, their parts are ranked in bases of their own, where copies
    # can show
    monkeypatch.setattr(cohomology, "_split_ranks", lambda *args: None)
    listed = []
    real = symmetry.OrbitListing.orbits

    def orbits(listing, q, skip=None):
        groups = real(listing, q, skip)
        listed.append((listing.workspace, q, skip, groups))
        return groups

    monkeypatch.setattr(symmetry.OrbitListing, "orbits", orbits)
    for alg in _without_copies():
        assert copy_classes(adapted_basis(alg)) == (), alg.name
        listed.clear()
        betti_table(alg, 3)
        assert listed, alg.name
        for workspace, q, skip, groups in listed:
            assert groups == [((1,), _canonical(workspace, q, skip))], (alg.name, q, skip)


def test_a_table_without_copies_lists_its_canonical_spaces():
    # one stack of orbit size 1 per degree: the canonical keys, in their
    # order, with and without each odd dual
    for alg in _without_copies():
        adapted = adapted_basis(alg)
        listing = OrbitListing(_Workspace(adapted, 7), 6)
        workspace = listing.workspace
        for skip in (None, *adapted.odd_indices):
            for q in range(7):
                basis = _canonical(workspace, q, skip)
                assert listing.orbits(q, skip) == ([((1,), basis)] if basis else []), \
                    (alg.name, q, skip)


def test_a_miscounted_orbit_trips_the_shape_check(monkeypatch):
    real = symmetry.OrbitListing.orbits

    def doubled(listing, q, skip=None):
        (weight, keys), *rest = real(listing, q, skip)
        return [(tuple(2 * w for w in weight), keys)] + rest

    monkeypatch.setattr(symmetry.OrbitListing, "orbits", doubled)
    # the full-matrix route (h_{2,2}, and h_{1,1} without copies) and the
    # Lefschetz blocks (h_3, and h_1 without copies)
    for alg in (make_heisenberg_even(2, 2), make_heisenberg_even(1, 1)):
        with pytest.raises(AssertionError,
                           match=r"d_0 has shape \d+x2 summed over its orbits, not at most "
                                 r"dim C\^1 = \d+ rows by dim C\^0 = 1 columns"):
            betti_table(alg, 2)
    for alg in (make_heisenberg_odd(3), make_heisenberg_odd(1)):
        with pytest.raises(AssertionError, match=r"L\^\(0\) has shape \d+x2 summed"):
            betti_table(alg, 2)
    with pytest.raises(AssertionError, match="summed over its orbits"):
        cohomology.cohomology_dims(make_heisenberg_even(2, 2), 1)

    def shifted_once_more(listing, q, skip=None):
        # W[1] one over: the first stack stands for one block too many a
        # degree up (a series of length 1 gets W[1] = 1)
        (weight, keys), *rest = real(listing, q, skip)
        weight = weight + (0,) * (len(weight) < 2)
        return [(weight[:1] + (weight[1] + 1,) + weight[2:], keys)] + rest

    monkeypatch.setattr(symmetry.OrbitListing, "orbits", shifted_once_more)
    # h_{2,2}'s y_j and h_3's pairs shift, h_{1,1} and h_1 do not
    for alg in (make_heisenberg_even(2, 2), make_heisenberg_even(1, 1)):
        with pytest.raises(AssertionError, match=r"d_1 has shape \d+x\d+ summed over its orbits"):
            betti_table(alg, 2)
        with pytest.raises(AssertionError, match=r"d_1 has shape \d+x\d+ summed over its orbits"):
            cohomology.cohomology_dims(alg, 1)
    for alg in (make_heisenberg_odd(3), make_heisenberg_odd(1)):
        with pytest.raises(AssertionError, match=r"L\^\(1\) has shape \d+x\d+ summed"):
            betti_table(alg, 2)
    # verify's odd point walks the same blocks, psi's with them
    for n_max in (1, 3):
        with pytest.raises(AssertionError, match=r"L\^\(1\) has shape \d+x\d+ summed"):
            verify.verify_family("odd", n_max, q_max=2)


def test_a_miscounted_local_orbit_trips_the_shape_check(monkeypatch):
    # one more than each local orbit of two charges: h_{2,2}'s pairs
    # take +-1 in degree 1, so d_1 has too many columns summed
    real = symmetry._local_orbits

    def miscounted(charges, lattice, group):
        kept, size = real(charges, lattice, group)
        return kept, [s + (s > 1) for s in size]

    monkeypatch.setattr(symmetry, "_local_orbits", miscounted)
    for alg in (make_heisenberg_even(2, 2), odd_pairs(2)):
        with pytest.raises(AssertionError,
                           match=r"d_1 has shape \d+x\d+ summed over its orbits, not at most "
                                 r"dim C\^2 = \d+ rows by dim C\^1 = \d+ columns"):
            betti_table(alg, 2)
        with pytest.raises(AssertionError, match="summed over its orbits"):
            cohomology.cohomology_dims(alg, 1)
