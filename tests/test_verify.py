from collections import Counter
from fractions import Fraction

import pytest

from heisenberg_cohomology import cohomology, elements, limits, symmetry, verify
from heisenberg_cohomology.elements import psi_matrix
from heisenberg_cohomology.formulas import ker_psi_dim
from heisenberg_cohomology.limits import CodomainTooLarge, graded_dim
from heisenberg_cohomology.linalg import RationalMatrix, kernel_dim


def _one_entry_negated(block):
    """block with the first entry of its first column of two or more
    entries negated: the same shape and column lengths, another matrix."""
    columns = [dict(col) for col in block.columns]
    for col in columns:
        if len(col) > 1:
            r = next(iter(col))
            col[r] = -col[r]
            break
    return RationalMatrix.from_columns(block.rows, columns, block.scale)


def _recorded_weights(monkeypatch):
    """{id(keys): weight series} of the groups verify's block walk
    yields, each filed while its step runs."""
    real = verify._blocks
    weight_of = {}

    def recorded(listing, low, high, dims, z=None):
        for t, groups in real(listing, low, high, dims, z):
            weight_of.update((id(keys), weight) for weight, keys, _, _ in groups)
            yield t, groups

    monkeypatch.setattr(verify, "_blocks", recorded)
    return weight_of


def _weighted(blocks, q):
    """sum W[q - t] * value over the (t, W, value) of `blocks`: what
    degree q counts of blocks of degree t, each standing for W[k] blocks
    k degrees up."""
    return sum(w[q - t] * v for t, w, v in blocks if 0 <= q - t < len(w))


def test_psi_shortcut_cannot_hide_a_faulty_build(monkeypatch):
    # psi_{(n,2)} built with an extra zero column, and psi_{(n,3)} with
    # one entry changed, in every orbit group, are not l * psi_{(n,1)},
    # so each group's own kernel, with its weight series, must be
    # reported: one more per block it stands for than the closed form
    # for l = 2, and for l = 3 less where the change raises a group's
    # rank
    real = verify._lefschetz_block
    weight_of = _recorded_weights(monkeypatch)
    faulty_kernels = {}

    def faulty(workspace, z, t, l, keys):
        block = real(workspace, z, t, l, keys)
        if l == 2:
            block = RationalMatrix.from_columns(block.rows, block.columns + [{}],
                                                block.scale)
        elif l == 3:
            block = _one_entry_negated(block)
        if l > 1:
            faulty_kernels.setdefault((workspace.algebra.name, l), []).append(
                (t, weight_of[id(keys)], kernel_dim(block)))
        return block

    monkeypatch.setattr(verify, "_lefschetz_block", faulty)
    res = verify.verify_family("odd", 3, q_max=3)
    psi_checks = [c for c in res.checks if c.formula.startswith("ker_psi_dim")]
    assert len(psi_checks) == 3 * 4 * 3
    for c in psi_checks:
        want = ker_psi_dim(c.q, c.n)
        assert c.formula_value == want
        name = "h_%d" % c.n
        if c.formula == "ker_psi_dim[l=2]":
            blocks = faulty_kernels[name, 2]
            assert c.oracle_value == _weighted(blocks, c.q) \
                == want + _weighted([(t, w, 1) for t, w, _ in blocks], c.q)
            assert c.describe().endswith("MISMATCH")
        elif c.formula == "ker_psi_dim[l=3]":
            assert c.oracle_value == _weighted(faulty_kernels[name, 3], c.q)
        else:
            assert c.ok, c.describe()
    # h_1 has no copies: its one group is the whole block
    assert [w for t, w, _ in faulty_kernels["h_1", 2] if t == 2] == [(1,)]
    for c in psi_checks:
        if c.n == 1 and c.formula == "ker_psi_dim[l=2]":
            assert c.oracle_value == kernel_dim(psi_matrix(c.q, 1, 2)) + 1
    # l = 3 is reported wrong exactly where a negated entry changed some
    # group's kernel, and that happens on this grid
    wrong = {(c.n, c.q) for c in psi_checks if c.formula == "ker_psi_dim[l=3]" and not c.ok}
    assert wrong == {(n, t) for n in (1, 2, 3) for t in range(4)
                     if _weighted(faulty_kernels["h_%d" % n, 3], t) != ker_psi_dim(t, n)}
    assert wrong


def test_is_multiple_rejects_any_difference():
    # base has an empty column and a negative entry; l = 2
    base = RationalMatrix.from_columns(4, [{0: 1, 2: -3}, {}, {1: 5}], Fraction(1, 2))

    def stored(columns, rows=4, scale=Fraction(1, 2)):
        return RationalMatrix.from_columns(rows, columns, scale)

    assert verify._is_multiple(stored([{0: 2, 2: -6}, {}, {1: 10}]), base, 2)
    assert verify._is_multiple(base, base, 1)
    for other in (stored([{0: 2}, {}, {1: 10}]),                # a missing entry
                  stored([{0: 2, 2: -6}, {}, {}]),              # the last column's missing
                  stored([{0: 2, 3: -6}, {}, {1: 10}]),         # an entry on another row
                  stored([{0: 3, 2: -9}, {}, {1: 15}]),         # 3 times, not 2
                  stored([{0: 2, 2: -6}, {}, {1: 10}], rows=5),  # other rows
                  stored([{0: 2, 2: -6}, {}, {1: 10}], scale=Fraction(1, 3)),
                  stored([{0: 2, 2: -6}, {}, {1: 10}], scale=Fraction(-1, 2))):
        assert not verify._is_multiple(other, base, 2)


def test_odd_grid_enumerates_each_space_once(monkeypatch):
    # betti_table's block walk and the psi walk are one walk per n on one
    # orbit listing, which lists each degree once
    real_keys, real_orbits = symmetry._keys, symmetry.OrbitListing.orbits
    spaces, keys, listed = [], Counter(), Counter()

    def enumerated(*args):
        spaces.append(args)

    def counted(evens, odds, q):
        keys[(len(evens), len(odds), q)] += 1
        return real_keys(evens, odds, q)

    def orbits(listing, q, skip=None):
        listed[(listing.workspace.algebra.name, q, skip)] += 1
        return real_orbits(listing, q, skip)

    for name in ("enumerate_basis", "_keys"):
        monkeypatch.setattr(elements, name, enumerated)
    monkeypatch.setattr(symmetry, "_keys", counted)
    monkeypatch.setattr(symmetry.OrbitListing, "orbits", orbits)
    verify.verify_family("odd", 4, None, 7)
    # h_1..h_4: the stacks of A^0..A^7 (without z's dual, z generator
    # 2n), once each; psi's rows are numbered on first use, so no A^8 or
    # A^9
    assert listed == Counter({("h_%d" % n, t, 2 * n): 1 for n in range(1, 5)
                              for t in range(8)})
    # h_1 has no copies: its x and y, listed once per degree; h_2..h_4
    # leave no generator outside their copies but z, so list nothing
    assert keys == Counter({(1, 1, t): 1 for t in range(8)})
    assert spaces == []


def test_a_grid_computes_each_dimension_once(monkeypatch):
    # check_grid counts every point's dim C^q, q = 0..q_max + 1, as one
    # series while it refuses the grid, and the point takes them over;
    # the Lefschetz walk counts each dim A^t once, on its own, for its
    # dim C^q = sum dim A^(q-l) check (A^(q_max+2) is also psi's
    # refusal bound).  The closed forms bind graded_dim in formulas,
    # which is not counted
    calls = Counter()

    def counting(module, name):
        real = getattr(module, name)

        def counted(dims, q):
            calls[(module.__name__, name, tuple(dims), q)] += 1
            return real(dims, q)
        return counted

    for module in (limits, cohomology, elements):
        for name in ("graded_dim", "_graded_dims"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(module, name))
    for args, points in ((("odd", 4, None, 7), [(n, n + 1) for n in range(1, 5)]),
                         (("even", 2, 3, 7), [(2 * n + 1, m) for n in (1, 2)
                                              for m in (1, 2, 3)])):
        calls.clear()
        assert verify.verify_family(*args).ok()
        assert calls and max(calls.values()) == 1, [k for k, c in calls.items() if c > 1]
        # every point's dim C^q, for q = 0..q_max + 1, once, by check_grid
        assert sorted((dims, top) for _, _, dims, top in calls
                      if dims in points) == [(dims, args[3] + 1) for dims in sorted(points)]
        assert {(module, name) for module, name, dims, _ in calls
                if dims in points} == {(limits.__name__, "_graded_dims")}


def test_odd_grid_eliminates_each_block_once(monkeypatch):
    # per (n, t) and group one l = 1 block is built and eliminated,
    # and psi_{(n,2)} and psi_{(n,3)} are still built on the group's keys
    # and compared with it
    built = Counter()
    blocks = {}
    eliminated = []

    def recording(module):
        real = module._lefschetz_block

        def record(workspace, z, t, l, keys):
            block = real(workspace, z, t, l, keys)
            group = (workspace.algebra.name, t, tuple(keys))
            built[group + (l,)] += 1
            if l == 1:
                blocks[id(block)] = group
            return block
        return record

    real_rank = cohomology.rank

    def counted_rank(matrix):
        eliminated.append(blocks.get(id(matrix)))
        return real_rank(matrix)

    for module in (cohomology, verify):
        monkeypatch.setattr(module, "_lefschetz_block", recording(module))
    monkeypatch.setattr(cohomology, "rank", counted_rank)
    monkeypatch.setattr(verify, "kernel_dim", None)
    res = verify.verify_family("odd", 3, None, 5)
    assert res.ok() and len(res.checks) == 3 * 6 * 5
    groups = {key[:3] for key in built}
    grid = [("h_%d" % n, t) for n in range(1, 4) for t in range(6)]
    # no block of h_2's A^5 is listed: its base keys stop at degree 4
    # (x_1 y_1 x_2 y_2), and every block of A^5 is a shift of one below
    assert sorted({group[:2] for group in groups}) == [g for g in grid if g != ("h_2", 5)]
    # h_1 has no copies: one block per t, on the whole of A^t over x and
    # y; h_2 and h_3 split
    assert sorted((t, len(keys)) for name, t, keys in groups if name == "h_1") \
        == [(t, graded_dim((1, 1), t)) for t in range(6)]
    assert len(groups) > len(grid)
    assert built == Counter({group + (l,): 1 for group in groups for l in (1, 2, 3)})
    assert sorted(eliminated, key=repr) == sorted(groups, key=repr)


def test_psi_codomain_is_refused_before_any_point(monkeypatch):
    # h_499's C^2 fits (499,001 rows), but its psi walk at t = 1 would
    # enumerate A^3 over (499|499); A^3 grows with n, so the last point
    # is checked first and named (the first over the bound is h_73)
    monkeypatch.setattr(verify, "_Workspace", None)
    with pytest.raises(CodomainTooLarge) as err:
        verify.verify_family("odd", 499, None, 1)
    assert (err.value.q, err.value.rows, err.value.limit) == (1, 165668998, 500000)
    assert str(err.value) == ("refusing h_499 at q=1: psi's codomain A^3 has "
                              "165668998 rows, limit is 500000 (100 times the "
                              "column cap; a cap of 1656690 admits it)")
    # the column cap is still checked before the psi bound
    with pytest.raises(limits.ColumnCapExceeded):
        verify.verify_family("odd", 100, None, 2)
