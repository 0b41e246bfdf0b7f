"""Symmetric weight blocks: rank one block per orbit of identical copies.

The structure pass (algebra.copy_classes) finds classes of identical
components of the adapted table; each copy's charge is kept by d, so d
is block diagonal over charge tuples, and permuting the copies of a
class permutes the blocks.  The engine lists the keys of one charge
tuple per orbit (_Workspace.orbits) and takes rank d_q, or rank L^(t),
as sum |orbit| rank(block).  The references are the full matrices of
differential_matrix, which never splits.
"""

import random

import pytest

from heisenberg_cohomology import cohomology, differential
from heisenberg_cohomology.algebra import (LieSuperalgebra, adapted_basis,
                                           copy_classes, make_heisenberg_even,
                                           make_heisenberg_odd)
from heisenberg_cohomology.cohomology import _checked_rank, _enter, betti_table
from heisenberg_cohomology.differential import _Workspace
from heisenberg_cohomology.formulas import dim_h_even, dim_h_odd_proof
from heisenberg_cohomology.symmetry import _lattice_class
from heisenberg_cohomology.superexterior import _radix, enumerate_basis

from oracles import full_matrix_ranks, orbit_listing_defects
from test_adapted_basis import HIDDEN_SUMS
from test_lefschetz_blocks import NOT_CENTRAL
from test_validate import ODD, OSP12, SL2, _table, direct_sum

# (n, q_max) and (n, m, q_max) of the family members the tests and the
# benchmark's family-deep workload compute, at their depths
ODD_MEMBERS = ((1, 10), (2, 10), (3, 10), (4, 8), (40, 1))
EVEN_MEMBERS = ((1, 1, 8), (1, 2, 8), (1, 3, 8), (2, 1, 8), (2, 2, 8), (2, 3, 8),
                (3, 1, 8), (3, 2, 8), (3, 3, 8), (2, 4, 8), (40, 2, 1))


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


def _members():
    out = [(make_heisenberg_odd(n), q) for n, q in ODD_MEMBERS]
    out += [(make_heisenberg_even(n, m), q) for n, m, q in EVEN_MEMBERS]
    return out + [(shuffled(make_heisenberg_even(3, 3), 5), 8)]


def _orbit_ranks(alg, q_max):
    """{q: rank d_q} from the full-matrix route's per-degree helper."""
    workspace, dims = _enter(alg, q_max, range(q_max + 1), 5000)
    return {q: _checked_rank(workspace, q, dims) for q in range(-1, q_max + 1)}


def test_copy_classes_of_the_families():
    # h_n: n copies (x_i, y_i) around the central z; the charge of
    # x_i^s y_i^alpha is alpha - s
    assert copy_classes(make_heisenberg_odd(1)) == ()
    ((parities, lattice, copies),) = copy_classes(make_heisenberg_odd(3))
    assert (parities, copies) == ((0, 1), ((0, 3), (1, 4), (2, 5)))
    for s in (0, 1):
        for alpha in range(5):
            assert _lattice_class((s, alpha), lattice) == (0, alpha - s)
    # h_{n,m}: the pairs (x_i, x_{n+i}) charged by s_{n+i} - s_i, and the
    # y_j by alpha_j mod 2; one copy of a piece is no class
    pairs, ys = copy_classes(make_heisenberg_even(2, 3))
    assert (pairs[0], pairs[2]) == ((0, 0), ((1, 3), (2, 4)))
    assert (ys[0], ys[2]) == ((1,), ((5,), (6,), (7,)))
    assert {_lattice_class((s, t), pairs[1]) for s in (0, 1) for t in (0, 1)} \
        == {(0, -1), (0, 0), (0, 1)}
    assert [_lattice_class((a,), ys[1]) for a in range(4)] == [(0,), (1,), (0,), (1,)]
    assert [len(c[2]) for c in copy_classes(make_heisenberg_even(1, 3))] == [3]
    assert [len(c[2]) for c in copy_classes(make_heisenberg_even(3, 1))] == [3]
    assert copy_classes(make_heisenberg_even(1, 1)) == ()


def test_orbit_sums_equal_the_full_matrix_ranks():
    for alg, q_max in _members():
        adapted = adapted_basis(alg)
        full = full_matrix_ranks(adapted, q_max)
        symmetric = bool(copy_classes(adapted))
        # h_1 and h_{1,1} alone have no class of two copies
        assert symmetric == (alg.name not in ("h_1", "h_{1,1}")), alg.name
        workspace, _ = _enter(alg, q_max, range(q_max + 1), 5000)
        assert (workspace.orbits(q_max) is not None) == symmetric, alg.name
        # the full-matrix route, whatever the table's centre
        assert _orbit_ranks(alg, q_max) == full, alg.name
        # betti_table: the Lefschetz blocks on h_n, the full route otherwise
        table = betti_table(alg, q_max)
        assert [r.dim_cochain - r.dim_cocycles for r in table] \
            == [full[q] for q in range(q_max + 1)], alg.name
        assert [r.dim_coboundaries for r in table] == [full[q - 1] for q in range(q_max + 1)]


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
        classes[name] = [copies for _, _, copies in copy_classes(alg)]
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
        assert any(len(parities) == 1 for parities, _, _ in copy_classes(mixed)), seed
        assert [r.dim_cohomology for r in betti_table(mixed, 5)] \
            == [r.dim_cohomology for r in betti_table(alg, 5)], seed


def test_representatives_are_distinct_keys_of_their_degree():
    for alg in (make_heisenberg_even(2, 3), make_heisenberg_odd(4),
                shuffled(make_heisenberg_even(3, 3), 1)):
        workspace = _Workspace(adapted_basis(alg), 7)
        everything = set(enumerate_basis(workspace.dims, 6, radix=_radix(7)))
        listed = [key for _, keys in workspace.orbits(6) for key in keys]
        assert len(set(listed)) == len(listed) and set(listed) <= everything
        # well under half of the columns are listed
        assert 5 * len(listed) < 2 * len(everything), alg.name
        orbits = [orbit for orbit, _ in workspace.orbits(6)]
        assert orbits == sorted(set(orbits)) and orbits[0] == 1


def test_each_orbit_group_lists_its_orbits_once():
    # the oracle relabels each listed key by every permutation of the
    # copies within their classes, with no charge or lattice; h_n's z,
    # its last odd generator, is in no copy, and is left out too
    tables = [(make_heisenberg_odd(n), top, (None, n)) for n, top in ((2, 10), (3, 8),
                                                                     (4, 7), (5, 6))]
    tables += [(make_heisenberg_even(n, m), 7, (None,)) for n, m in ((1, 4), (3, 1), (2, 4),
                                                                   (3, 3))]
    tables.append((shuffled(make_heisenberg_even(3, 3), 5), 7, (None,)))
    for alg, top, skips in tables:
        adapted = adapted_basis(alg)
        copies = [c for _, _, c in copy_classes(adapted)]
        workspace = _Workspace(adapted, top + 1, top)
        for without in skips:
            for q in range(top + 1):
                groups = workspace.orbits(q, without)
                basis = enumerate_basis(workspace.dims, q, without)
                assert orbit_listing_defects(adapted, copies, groups, basis,
                                             workspace.radix) == [], (alg.name, without, q)
        # an odd generator inside a copy: the caller takes the canonical spaces
        for g in (g for c in copies for g in c[0] if g in adapted.odd_indices):
            assert workspace.orbits(top, adapted.odd_indices.index(g)) is None, alg.name


def test_betti_table_lists_no_degree_it_does_not_rank(monkeypatch):
    # h_3's Lefschetz walk stops at L^(q_max - 1), whose columns are A^t
    # times f_z; the full route of h_{2,2} ranks d_q up to q_max
    workspaces = []
    real = differential._Workspace.orbits

    def orbits(workspace, q, without=None):
        workspaces.append((workspace, without))
        return real(workspace, q, without)

    monkeypatch.setattr(differential._Workspace, "orbits", orbits)
    for alg, q_max, top in ((make_heisenberg_odd(3), 6, 5), (make_heisenberg_even(2, 2), 6, 6)):
        workspaces.clear()
        betti_table(alg, q_max)
        workspace, without = workspaces[0]
        assert real(workspace, top, without) and real(workspace, top + 1, without) == [], alg.name


def test_deep_degrees_with_few_copies_match_the_canonical_route(monkeypatch):
    # two or three copies at degrees 30 and 45: many charge multisets,
    # few keys each
    deep = [(make_heisenberg_odd(2), 45, lambda q: dim_h_odd_proof(2, q)),
            (make_heisenberg_even(1, 3), 30, lambda q: dim_h_even(1, 3, q))]
    listed = [[r.dim_cohomology for r in betti_table(alg, q_max)] for alg, q_max, _ in deep]
    monkeypatch.setattr(differential, "copy_classes", lambda alg: ())
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


def test_tables_without_copies_take_the_canonical_spaces(monkeypatch):
    # a hidden-basis direct sum, indecomposable tables and h_1: no class
    # of two copies, so every matrix is today's, on enumerated spaces.
    # The sums are ranked whole here: split, their parts are ranked in
    # bases of their own, where copies can show
    monkeypatch.setattr(cohomology, "_split_ranks", lambda *args: None)
    algebras = [s for _, _, s in HIDDEN_SUMS]
    algebras += [LieSuperalgebra("sl2", *SL2), LieSuperalgebra("osp12", *OSP12),
                 NOT_CENTRAL, make_heisenberg_odd(1)]
    listed = []
    real = differential._Workspace.orbits

    def orbits(workspace, q, without=None):
        groups = real(workspace, q, without)
        listed.append(groups)
        return groups

    monkeypatch.setattr(differential._Workspace, "orbits", orbits)
    for alg in algebras:
        assert copy_classes(adapted_basis(alg)) == (), alg.name
        listed.clear()
        betti_table(alg, 3)
        assert listed and listed == [None] * len(listed), alg.name


def test_a_miscounted_orbit_trips_the_shape_check(monkeypatch):
    real = differential._Workspace.orbits

    def doubled(workspace, q, without=None):
        groups = real(workspace, q, without)
        if groups is not None:
            (orbit, keys), *rest = groups
            groups = [(2 * orbit, keys)] + rest
        return groups

    monkeypatch.setattr(differential._Workspace, "orbits", doubled)
    # the full-matrix route (h_{2,2}) and the Lefschetz blocks (h_3)
    with pytest.raises(AssertionError,
                       match=r"d_0 has shape 0x2 summed over its orbits, not at most "
                             r"dim C\^1 = 7 rows by dim C\^0 = 1 columns"):
        betti_table(make_heisenberg_even(2, 2), 2)
    with pytest.raises(AssertionError, match=r"L\^\(0\) has shape \d+x2 summed"):
        betti_table(make_heisenberg_odd(3), 2)
    with pytest.raises(AssertionError, match="summed over its orbits"):
        cohomology.cohomology_dims(make_heisenberg_even(2, 2), 1)
