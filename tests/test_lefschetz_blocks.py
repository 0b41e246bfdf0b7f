"""The odd-centre rank route against full coboundary matrices.

When one odd generator z spans [g, g] and brackets with nothing, d_q
splits into Lefschetz blocks and rank d_q = sum_{t<q} rank L^(t); the
oracles read the blocks and ranks off differential_matrix, which does
not go through lefschetz_block.
"""

import random
from itertools import product

import pytest

from heisenberg_cohomology import cohomology, elements, symmetry
from heisenberg_cohomology.algebra import (LieSuperalgebra, adapted_basis,
                                           make_heisenberg_even,
                                           make_heisenberg_odd)
from heisenberg_cohomology.cohomology import betti_table
from heisenberg_cohomology.elements import lefschetz_block
from heisenberg_cohomology.formulas import dim_h_even, dim_h_odd_proof
from heisenberg_cohomology.linalg import rank

from oracles import (dense_betti_numbers, full_matrix_ranks,  # noqa: F401
                     kernel_matrices_are_checked, z_power_block)
from test_validate import _table, change_basis, direct_sum

# h_1 next to a free odd generator u, z in the middle odd slot
MIDDLE_Z = LieSuperalgebra("middle_z", [("y", 1), ("z", 1), ("x", 0), ("u", 1)],
                           {(0, 2): {1: 1}})

# [x, z] = z: [g, g] is one-dimensional and odd but not central
NOT_CENTRAL = LieSuperalgebra("xz", [("x", 0), ("z", 1)], {(0, 1): {1: 1}})


def hidden_odd(n):
    return LieSuperalgebra("hidden_h_%d" % n, *change_basis(
        random.Random(n), _table(make_heisenberg_odd(n))))


def odd_centre_algebras(n_max):
    """(adapted algebra, z) for h_1..h_{n_max}, the same in hidden bases
    and MIDDLE_Z."""
    algebras = [make_heisenberg_odd(n) for n in range(1, n_max + 1)]
    algebras += [hidden_odd(n) for n in range(1, n_max + 1)] + [MIDDLE_Z]
    out = []
    for alg in algebras:
        adapted = adapted_basis(alg)
        out.append((adapted, cohomology._odd_centre(adapted)))
    return out


def test_odd_centres_are_routed_to_the_blocks():
    for adapted, z in odd_centre_algebras(4):
        assert z is not None, adapted.name
        slot = adapted.odd_indices.index(z)
        if adapted.name.startswith("h_"):
            assert slot == adapted.superdim[1] - 1
        else:
            # hidden bases and MIDDLE_Z: z is not the last odd slot
            assert slot < adapted.superdim[1] - 1, adapted.name


def test_blocks_are_the_z_power_blocks_of_the_full_matrix():
    for (adapted, z), t, l in product(odd_centre_algebras(3), range(5), (1, 2, 3)):
        block, rest = z_power_block(adapted, z, t, l)
        # d lowers the z-dual power by exactly one
        assert rest == 0, (adapted.name, t, l)
        built = lefschetz_block(adapted, z, t, l)
        assert built.entries == block, (adapted.name, t, l)


def test_lefschetz_block_refuses_a_bad_power_or_generator(monkeypatch):
    # refused before a workspace is built: an l below 1, a z that is
    # even (h_1's x1) or no generator at all, and an odd z that is not
    # the table's odd centre, whose d-terms would leave the block's rows
    def no_workspace(*args):
        raise AssertionError("a workspace was built")

    monkeypatch.setattr(elements, "_Workspace", no_workspace)
    h1 = make_heisenberg_odd(1)
    # [x1, x2] = [y, y] = z, z even: w is odd but no bracket target
    even_target = LieSuperalgebra("even_target",
                                  [("x1", 0), ("x2", 0), ("y", 1), ("z", 0), ("w", 1)],
                                  {(0, 1): {3: 1}, (2, 2): {3: 1}})
    for alg, z, l, match in (
            (h1, 2, 0, "needs l >= 1, not 0"), (h1, 2, -1, "needs l >= 1, not -1"),
            (h1, 0, 1, "z = 0 is not an odd generator of h_1"),
            (h1, 3, 1, "z = 3 is not an odd generator of h_1"),
            (even_target, 4, 1, r"z = 4 \(w\) is not the odd centre of even_target"),
            (NOT_CENTRAL, 1, 1, r"z = 1 \(z\) is not the odd centre of xz"),
            (MIDDLE_Z, 3, 1, r"z = 3 \(u\) is not the odd centre of middle_z"),
            (h1, 1, 1, r"z = 1 \(y1\) is not the odd centre of h_1"),
            (make_heisenberg_even(1, 1), 3, 1,
             r"z = 3 \(y1\) is not the odd centre of h_\{1,1\}")):
        with pytest.raises(ValueError, match=match):
            lefschetz_block(alg, z, 1, l)


def test_full_matrix_rank_is_the_block_sum():
    for adapted, z in odd_centre_algebras(4):
        full = full_matrix_ranks(adapted, 8)
        blocks = [rank(lefschetz_block(adapted, z, t, 1)) for t in range(8)]
        assert [full[q] for q in range(9)] == [sum(blocks[:q]) for q in range(9)], \
            adapted.name
        for rep in betti_table(adapted, 8):
            assert rep.dim_coboundaries == full[rep.q - 1], (adapted.name, rep.q)
            assert rep.dim_cocycles == rep.dim_cochain - full[rep.q], (adapted.name, rep.q)


def test_both_routes_give_identical_reports(monkeypatch):
    algebras = [make_heisenberg_odd(n) for n in range(1, 5)]
    algebras += [hidden_odd(n) for n in range(1, 5)] + [MIDDLE_Z]
    blocked = [betti_table(alg, 8) for alg in algebras]
    monkeypatch.setattr(cohomology, "_odd_centre", lambda algebra: None)
    assert blocked == [betti_table(alg, 8) for alg in algebras]


def test_other_algebras_keep_the_full_route():
    h1 = _table(make_heisenberg_odd(1))
    h1_sum = LieSuperalgebra("h_1+h_1", *direct_sum(h1, h1))
    even = [make_heisenberg_even(n, m) for n, m in ((1, 1), (1, 2), (2, 1))]
    for alg in even + [h1_sum, NOT_CENTRAL]:
        assert cohomology._odd_centre(adapted_basis(alg)) is None, alg.name
    for alg, (n, m) in zip(even, ((1, 1), (1, 2), (2, 1))):
        assert [r.dim_cohomology for r in betti_table(alg, 6)] \
            == [dim_h_even(n, m, q) for q in range(7)]
    # Kuenneth: H(h_1 + h_1) = H(h_1) (x) H(h_1)
    want = [sum(dim_h_odd_proof(1, p) * dim_h_odd_proof(1, q - p) for p in range(q + 1))
            for q in range(5)]
    assert [r.dim_cohomology for r in betti_table(h1_sum, 4)] == want
    # e = x-dual is the only cocycle beyond degree 0, and d(o^q) = +-q e o^q
    got = [r.dim_cohomology for r in betti_table(NOT_CENTRAL, 5)]
    assert got == dense_betti_numbers(NOT_CENTRAL, 5) == [1, 1, 0, 0, 0, 0]


def test_each_space_of_a_is_enumerated_once_per_table(monkeypatch):
    real_keys, real_orbits = symmetry._keys, symmetry.OrbitListing.orbits
    spaces, listed, orbits = [], [], []

    def enumerated(*args):
        spaces.append(args)

    def keys(evens, odds, q):
        listed.append((len(evens), len(odds), q))
        return real_keys(evens, odds, q)

    def stacks(listing, q, skip=None):
        orbits.append((q, skip))
        return real_orbits(listing, q, skip)

    for name in ("enumerate_basis", "_keys"):
        monkeypatch.setattr(elements, name, enumerated)
    monkeypatch.setattr(symmetry, "_keys", keys)
    monkeypatch.setattr(symmetry.OrbitListing, "orbits", stacks)
    for n, q_max in ((1, 6), (3, 10), (4, 8)):
        listed.clear()
        orbits.clear()
        betti_table(make_heisenberg_odd(n), q_max)
        # the stacks of each A^t, t < q_max, without z's dual (z is
        # generator 2n), asked for once
        assert orbits == [(t, 2 * n) for t in range(q_max)], n
        # h_1 has no copies: its x and y are listed once per degree; h_n's
        # n copies of (x_i, y_i) leave no generator but z, which is left
        # out, so nothing is listed beside them
        assert listed == ([(1, 1, t) for t in range(q_max)] if n == 1 else []), n
    assert spaces == []
