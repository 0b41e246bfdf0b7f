import gc
import random
import weakref

import pytest

from heisenberg_cohomology import (algebra, cohomology, differential, elements,
                                   limits, symmetry)
from heisenberg_cohomology.algebra import (EVEN, LieSuperalgebra, adapted_basis,
                                           make_heisenberg_even,
                                           make_heisenberg_odd, validate)
from heisenberg_cohomology.cohomology import betti_table, cohomology_dims
from heisenberg_cohomology.elements import differential_matrix
from heisenberg_cohomology.fileformats import format_algebra, parse_algebra
from heisenberg_cohomology.formulas import dim_h_odd_proof
from heisenberg_cohomology.limits import (AlgebraValidationError, CodomainTooLarge,
                                          ColumnCapExceeded, DegreeLimitExceeded,
                                          ReportInvariantError, check_column_cap,
                                          odd_family_shape)
from heisenberg_cohomology.linalg import RationalMatrix, rank
from heisenberg_cohomology.reports import METHOD_RANK, CohomologyReport
from heisenberg_cohomology.verify import Comparison, VerifyResult, verify_family

from oracles import full_matrix_ranks
from test_adapted_basis import (HIDDEN_SUMS, _hidden_two_step,
                                _hidden_with_simple_part)
from test_algebra import check_record
from test_validate import _table, change_basis, direct_sum

# not Lie superalgebras: Jacobi fails on (x, y, z), and [x, y] -> u
# joins two even generators to an odd one
JACOBI_TABLE = ([("x", 0), ("y", 0), ("z", 0)], {(0, 1): {2: 1}, (0, 2): {0: 1}})
PARITY_TABLE = ([("x", 0), ("y", 0), ("u", 1)], {(0, 1): {2: 1}})


def test_negative_degree_is_zero():
    rep = cohomology_dims(make_heisenberg_odd(1), -2)
    assert (rep.dim_cochain, rep.dim_cocycles,
            rep.dim_coboundaries, rep.dim_cohomology) == (0, 0, 0, 0)


def test_degree_zero_is_scalars():
    for alg in (make_heisenberg_odd(2), make_heisenberg_even(2, 1)):
        rep = cohomology_dims(alg, 0)
        assert (rep.dim_cochain, rep.dim_cocycles,
                rep.dim_coboundaries, rep.dim_cohomology) == (1, 1, 0, 1)
        assert rep.algebra_name == alg.name
        assert rep.method == METHOD_RANK
        # h_2 takes the Lefschetz route, whose listing is empty at q_max 0
        # (top -1), and h_{2,1} the full route
        assert betti_table(alg, 0) == [rep]
    # the Lefschetz route's one-degree case: one block, L^(0), with copies
    table = betti_table(make_heisenberg_odd(4), 1)
    assert [r.dim_cohomology for r in table] == [dim_h_odd_proof(4, q) for q in (0, 1)]


def test_known_small_dimensions():
    rep = cohomology_dims(make_heisenberg_even(1, 1), 1)
    assert rep.dim_cochain == 4
    assert rep.dim_cocycles == 3
    assert rep.dim_coboundaries == 0
    assert rep.dim_cohomology == 3

    rep = cohomology_dims(make_heisenberg_odd(1), 2)
    assert rep.dim_cochain == 5
    assert rep.dim_cocycles == 3
    assert rep.dim_coboundaries == 1
    assert rep.dim_cohomology == 2


def test_betti_table_matches_single_degree_calls():
    alg = make_heisenberg_even(1, 2)
    table = betti_table(alg, 5)
    assert len(table) == 6
    for q, rep in enumerate(table):
        assert rep.q == q
        assert rep == cohomology_dims(alg, q)
    assert [r.dim_cohomology for r in table] == [1, 4, 7, 8, 8, 8]
    # both take the table's route: h_3's Lefschetz blocks and their
    # prefix sums (cohomology_dims from degree 0), h_{3,3}'s full d_q
    # (cohomology_dims from q - 1 - reach); h_3's ranks are held to the
    # full matrices as well
    h3 = make_heisenberg_odd(3)
    for alg, q_max in ((h3, 7), (make_heisenberg_even(3, 3), 6)):
        table = betti_table(alg, q_max)
        assert [rep.q for rep in table] == list(range(q_max + 1))
        for q, rep in enumerate(table):
            assert rep == cohomology_dims(alg, q), (alg.name, q)
    full = full_matrix_ranks(h3, 7)
    assert [(rep.dim_cochain - rep.dim_cocycles, rep.dim_coboundaries)
            for rep in betti_table(h3, 7)] == [(full[q], full[q - 1]) for q in range(8)]


def test_the_lefschetz_route_checks_its_dimensions():
    # dim C^q = sum_l dim A^(q-l) f_z^l, checked before any block of h_2
    # is built: one dimension off by one is caught
    alg = make_heisenberg_odd(2)
    dims = limits._checked_dims(alg.name, alg.superdim, 3, range(4), 5000)
    dims[2] += 1
    with pytest.raises(AssertionError,
                       match=r"^dim C\^2 is not the sum of dim A\^\(2-l\) f_z\^l$"):
        cohomology._betti_table(alg, 3, 5000, dims)


def test_known_betti_numbers_odd_family():
    assert [r.dim_cohomology for r in betti_table(make_heisenberg_odd(1), 6)] \
        == [1, 2, 2, 2, 2, 2, 2]
    assert [r.dim_cohomology for r in betti_table(make_heisenberg_odd(2), 6)] \
        == [1, 4, 7, 9, 11, 13, 15]


def test_known_betti_numbers_even_family():
    assert [r.dim_cohomology for r in betti_table(make_heisenberg_even(1, 1), 6)] \
        == [1, 3, 3, 1, 0, 0, 0]
    assert [r.dim_cohomology for r in betti_table(make_heisenberg_even(2, 1), 6)] \
        == [1, 5, 10, 10, 5, 1, 0]


def test_column_cap_refusal():
    alg = make_heisenberg_odd(3)
    with pytest.raises(ColumnCapExceeded) as err:
        cohomology_dims(alg, 3, column_cap=5)
    exc = err.value
    assert exc.algebra_name == alg.name
    assert exc.cap == 5
    assert exc.columns > 5
    assert exc.q in (3, 4)  # both coboundary matrices are capped
    # a generous cap admits the same computation
    rep = cohomology_dims(alg, 3, column_cap=100000)
    assert rep.dim_cohomology == 32


def test_betti_table_respects_cap():
    with pytest.raises(ColumnCapExceeded):
        betti_table(make_heisenberg_even(2, 2), 4, column_cap=10)


def test_codomain_bound_comes_from_the_cap():
    # h_2499 at q_max=1: 4999 columns, a codomain C^2 of 12,495,001 rows
    shape = odd_family_shape(2499)
    with pytest.raises(CodomainTooLarge) as err:
        check_column_cap(*shape, 1)
    assert (err.value.q, err.value.rows, err.value.limit) == (1, 12495001, 500000)
    # the limit is 100 times the cap, so a larger cap forces the computation
    with pytest.raises(CodomainTooLarge):
        check_column_cap(*shape, 1, 124950)
    check_column_cap(*shape, 1, 124951)
    # h_400's C^2 (320,801 rows) is within the default limit
    check_column_cap(*odd_family_shape(400), 1)
    # a degree over the cap is still refused first, by its column count
    with pytest.raises(ColumnCapExceeded):
        check_column_cap(*odd_family_shape(3000000), 1)


def test_codomain_bound_refuses_before_building(monkeypatch):
    def no_build(*args):
        raise AssertionError("a matrix was built before the refusal")

    monkeypatch.setattr(cohomology, "_coboundary", no_build)
    monkeypatch.setattr(cohomology, "_Workspace", no_build)
    monkeypatch.setattr(cohomology, "adapted_basis", no_build)
    alg = make_heisenberg_odd(2499)
    for call in (lambda: betti_table(alg, 1), lambda: cohomology_dims(alg, 1)):
        with pytest.raises(CodomainTooLarge, match="codomain C\\^2 has 12495001 rows"):
            call()


def test_betti_table_refuses_before_building(monkeypatch):
    def no_build(*args):
        raise AssertionError("a matrix was built before the refusal")

    monkeypatch.setattr(cohomology, "_coboundary", no_build)
    monkeypatch.setattr(cohomology, "_Workspace", no_build)
    monkeypatch.setattr(cohomology, "adapted_basis", no_build)
    with pytest.raises(ColumnCapExceeded):
        cohomology_dims(make_heisenberg_even(14, 16), 3)
    with pytest.raises(ColumnCapExceeded) as err:
        betti_table(make_heisenberg_even(14, 16), 3)
    # dims (29|16): 1006 columns at q=2, 3654 + 6496 + 3944 + 816 at q=3
    assert (err.value.q, err.value.columns, err.value.cap) == (3, 14910, 5000)
    assert str(err.value) == ("refusing h_{14,16} at q=3: matrix has 14910 "
                              "columns, cap is 5000 (q <= 2 fits; a cap of "
                              "14910 admits q <= 3)")


def test_checked_rank_rejects_a_misshapen_matrix(monkeypatch):
    real = cohomology._coboundary

    def transposed(workspace, domain, row_index):
        mat = real(workspace, domain, row_index)
        return RationalMatrix(mat.cols, mat.rows,
                              {(c, r): v for (r, c), v in mat.entries.items()})

    monkeypatch.setattr(cohomology, "_coboundary", transposed)
    # an even centre takes the full-matrix route; h_{1,1} has no copies,
    # so d_0 is one block on C^0, whose rows, numbered on first use, are
    # none: d of a constant is 0
    with pytest.raises(AssertionError, match=r"d_0 has shape 1x0 summed over its orbits, "
                                             r"not at most dim C\^1 = 4 rows by dim "
                                             r"C\^0 = 1 columns"):
        betti_table(make_heisenberg_even(1, 1), 2)

    # every d_q numbers its rows on first use: more rows than dim C^{q+1},
    # or a column too few, is a fault

    def overflowing(workspace, domain, row_index):
        mat = real(workspace, domain, row_index)
        return RationalMatrix._wrap(mat.rows + 5, mat.columns, mat.scale)

    def narrow(workspace, domain, row_index):
        return real(workspace, domain[1:], row_index)

    # h_{1,1}: dims (3|1), dim C^1..C^3 = 4, 7, 8; d_0, d_1 and d_2 reach
    # 0, 2 and 4 rows, so five more are too many for d_0 and d_2, and
    # exactly dim C^2 for d_1
    monkeypatch.setattr(cohomology, "_coboundary", overflowing)
    with pytest.raises(AssertionError, match=r"d_0 has shape 5x1 summed over its "
                                             r"orbits, not at most dim C\^1 = 4 rows"):
        betti_table(make_heisenberg_even(1, 1), 2)
    with pytest.raises(AssertionError, match=r"d_2 has shape 9x7 summed over its "
                                             r"orbits, not at most dim C\^3 = 8 rows"):
        cohomology_dims(make_heisenberg_even(1, 1), 2)
    monkeypatch.setattr(cohomology, "_coboundary", narrow)
    with pytest.raises(AssertionError, match=r"d_1 has shape \d+x3 summed .* by dim "
                                             r"C\^1 = 4 columns"):
        cohomology_dims(make_heisenberg_even(1, 1), 2)


def _misshapen_blocks(monkeypatch, extra_rows, extra_columns):
    """Every block of the odd-centre walk with extra rows and extra
    empty columns."""
    real = cohomology._lefschetz_block

    def misshapen(workspace, z, t, l, keys):
        mat = real(workspace, z, t, l, keys)
        return RationalMatrix._wrap(mat.rows + extra_rows,
                                    mat.columns + [{}] * extra_columns, mat.scale)

    monkeypatch.setattr(cohomology, "_lefschetz_block", misshapen)


def test_block_ranks_reject_a_misshapen_block(monkeypatch):
    # an odd centre takes the block route; h_1 has no copies, so L^(0)
    # is one block on A^0 (1 column), its rows numbered on first use
    # (at most dim A^2 = 2)
    with monkeypatch.context() as patched:
        _misshapen_blocks(patched, 0, 1)
        with pytest.raises(AssertionError, match=r"L\^\(0\) has shape 1x2 summed"):
            betti_table(make_heisenberg_odd(1), 2)
    _misshapen_blocks(monkeypatch, 2, 0)
    with pytest.raises(AssertionError, match=r"L\^\(0\) has shape 3x1 summed over its "
                                             r"orbits, not at most dim A\^2 = 2 rows"):
        betti_table(make_heisenberg_odd(1), 2)


def test_report_validation():
    good = dict(algebra_name="h_1", q=2, dim_cochain=3, dim_cocycles=3,
                dim_coboundaries=1, dim_cohomology=2, method=METHOD_RANK)
    report = CohomologyReport(**good)
    with pytest.raises(ValueError):
        CohomologyReport(**{**good, "method": "guesswork"})
    with pytest.raises(ValueError):
        CohomologyReport(**{**good, "dim_cohomology": 5})
    with pytest.raises(ValueError):
        CohomologyReport(**{**good, "dim_cocycles": 9})
    with pytest.raises(ValueError):
        CohomologyReport(**{**good, "dim_coboundaries": -1})
    with pytest.raises(ReportInvariantError) as err:
        CohomologyReport("h_1", 2, 3, 3, 1, 5, METHOD_RANK)
    assert str(err.value) == (
        "inconsistent dimensions in CohomologyReport(algebra_name='h_1', q=2, "
        "dim_cochain=3, dim_cocycles=3, dim_coboundaries=1, dim_cohomology=5, "
        "method='rank')")
    check_record(report, tuple(good),
                 "CohomologyReport(algebra_name='h_1', q=2, dim_cochain=3, "
                 "dim_cocycles=3, dim_coboundaries=1, dim_cohomology=2, method='rank')")
    assert report != CohomologyReport(**{**good, "algebra_name": "h_2"})

    fields = ("formula", "n", "m", "q", "formula_value", "oracle_value")
    even = Comparison("dim_h_even", 1, 2, 3, 4, 4)
    odd = Comparison("dim_h_odd_displayed", 1, None, 2, 3, 2)
    check_record(even, fields, "Comparison(formula='dim_h_even', n=1, m=2, q=3, "
                               "formula_value=4, oracle_value=4)")
    check_record(odd, fields, "Comparison(formula='dim_h_odd_displayed', n=1, "
                              "m=None, q=2, formula_value=3, oracle_value=2)")
    assert even.ok and not odd.ok and even != odd

    check_record(VerifyResult("odd", 1, None, 2, [odd], 0.5),
                 ("family", "n_max", "m_max", "q_max", "checks", "elapsed"),
                 "VerifyResult(family='odd', n_max=1, m_max=None, q_max=2, checks=["
                 "Comparison(formula='dim_h_odd_displayed', n=1, m=None, q=2, "
                 "formula_value=3, oracle_value=2)], elapsed=0.5)",
                 frozen=False, hashable=False)
    result = verify_family("odd", 1, q_max=0)
    assert type(result) is VerifyResult and len(result.checks) == 5 and result.ok()
    # mutable, with a fresh list of checks by default
    fresh, other = VerifyResult("odd", 1, None, 0), VerifyResult("odd", 1, None, 0)
    assert fresh.checks == [] and fresh.checks is not other.checks
    assert fresh.elapsed == 0.0 and fresh == other
    fresh.checks.append(odd)
    fresh.elapsed = 1.5
    assert fresh != other and other.checks == []
    assert fresh == VerifyResult("odd", 1, None, 0, [odd], 1.5)
    assert fresh.mismatches == fresh.deviations == [odd] and fresh.ok()


def _invalid_algebras():
    """The two faulty tables as written, and hidden by a change of basis
    that adapted_basis does not undo to the identity (the parity table
    next to h_1, so that its odd block has more than one generator)."""
    plain = [LieSuperalgebra("jacobi", *JACOBI_TABLE),
             LieSuperalgebra("parity", *PARITY_TABLE)]
    h1 = _table(make_heisenberg_odd(1))
    hidden = [LieSuperalgebra("hidden_jacobi", *change_basis(random.Random(0), JACOBI_TABLE)),
              LieSuperalgebra("hidden_parity", *change_basis(
                  random.Random(1), direct_sum(PARITY_TABLE, h1)))]
    for alg in hidden:
        assert adapted_basis(alg) is not alg, alg.name
    return plain + hidden


def test_invalid_tables_get_no_betti_numbers():
    for alg in _invalid_algebras():
        issues = validate(alg)
        assert issues, alg.name
        for call in (lambda: betti_table(alg, 3), lambda: cohomology_dims(alg, 2)):
            with pytest.raises(AlgebraValidationError) as err:
                call()
            # the messages name the generators of the table as given
            assert err.value.violations == issues, alg.name


def test_degree_limit_refuses_before_any_dimension_is_counted(monkeypatch):
    def no_count(*args):
        raise AssertionError("a dimension was counted before the degree limit")

    # the size refusals count dimensions in limits, one at a time or
    # as a series
    for name in ("graded_dim", "_graded_dims"):
        monkeypatch.setattr(limits, name, no_count)
    monkeypatch.setattr(cohomology, "_graded_dims", no_count)
    for call in (lambda: betti_table(make_heisenberg_even(1, 1), 20000),
                 lambda: cohomology_dims(make_heisenberg_even(1, 1), 10 ** 8),
                 lambda: verify_family("even", 1, 1, 10 ** 8)):
        with pytest.raises(DegreeLimitExceeded, match="limit is 100") as err:
            call()
        # a library caller passed a degree, not an option
        assert "--q-max" not in str(err.value)
    with pytest.raises(DegreeLimitExceeded) as err:
        cohomology_dims(make_heisenberg_even(1, 1), 10 ** 8)
    assert (err.value.degree, err.value.limit) == (10 ** 8, 100)
    assert str(err.value) == "refusing degree 100000000, limit is 100"


def test_cochain_spaces_are_released_when_the_call_returns(monkeypatch):
    # every workspace, and so every cochain space it holds, is dropped
    # when the call that made it returns or raises
    made = []
    real_init = differential._Workspace.__init__

    def recorded(self, *args):
        real_init(self, *args)
        made.append(weakref.ref(self))

    monkeypatch.setattr(differential._Workspace, "__init__", recorded)

    def alive():
        gc.collect()
        return [ref for ref in made if ref() is not None]

    betti_table(make_heisenberg_odd(40), 1)
    assert len(made) == 1 and not alive()
    for call, error in ((lambda: betti_table(make_heisenberg_even(14, 16), 3),
                         ColumnCapExceeded),
                        (lambda: cohomology_dims(make_heisenberg_even(14, 16), 3),
                         ColumnCapExceeded),
                        (lambda: betti_table(_invalid_algebras()[0], 2),
                         AlgebraValidationError),
                        (lambda: verify_family("odd", 100, None, 2),
                         ColumnCapExceeded),
                        (lambda: verify_family("odd", 30, None, 2),
                         CodomainTooLarge)):
        differential_matrix(make_heisenberg_odd(2), 2)
        assert not alive()
        with pytest.raises(error):
            call()
        assert not alive()
    # a fault found mid-walk, after the call's workspace was made
    with monkeypatch.context() as patched:
        _misshapen_blocks(patched, 0, 1)
        for call in (lambda: betti_table(make_heisenberg_odd(3), 4),
                     lambda: verify_family("odd", 2, None, 3)):
            before = len(made)
            with pytest.raises(AssertionError, match="has shape"):
                call()
            assert len(made) == before + 1 and not alive()
    cohomology_dims(make_heisenberg_even(2, 2), 3)
    verify_family("odd", 1, None, 2)
    assert not alive()


def test_an_algebra_is_validated_once(monkeypatch):
    # algebra.require_valid is the one door, for the tables a caller
    # hands in, so algebra.validate is the only caller to count
    alg = _hidden_valid("hidden", 2)
    checked = _counted(monkeypatch, algebra, "validate")
    first = cohomology_dims(alg, 3)
    # the table splits into h_{1,1} + h_1, and the canonical table of
    # each part type, which the engine builds for itself, is not validated
    assert checked == [adapted_basis(alg)]
    # the verdict is kept on the algebra beside its rewrite
    assert cohomology_dims(alg, 3) == first and betti_table(alg, 3)[3] == first
    assert checked == [adapted_basis(alg)]
    # the family constructors validate nothing; parse_algebra validates
    # what it parses, and the engine makes no call on it afterwards
    checked.clear()
    families = [make_heisenberg_odd(2), make_heisenberg_even(1, 2)]
    parsed = parse_algebra(format_algebra(alg))
    assert checked == [adapted_basis(parsed)]
    # a family member handed to the engine is validated once, as its own
    # adapted table
    checked.clear()
    for _ in range(2):
        for member in families:
            betti_table(member, 3)
            cohomology_dims(member, 2)
        cohomology_dims(parsed, 2)
    assert checked == families == [adapted_basis(member) for member in families]
    # verify_family validates none of the members it builds
    checked.clear()
    assert verify_family("odd", 2, None, 3).ok()
    assert verify_family("even", 1, 2, 3).ok()
    assert checked == []
    # a failing verdict is kept too, and still raises with the table's
    # own messages
    bad = _invalid_algebras()[0]
    checked.clear()
    for _ in range(2):
        with pytest.raises(AlgebraValidationError) as err:
            cohomology_dims(bad, 1)
        assert err.value.violations == validate(bad)
    assert checked == [adapted_basis(bad), bad, bad]


def _listings(monkeypatch):
    """(spaces, asked, listed): the arguments of every canonical cochain
    space the public builders list (elements.enumerate_basis and
    elements._keys), the degree of every listing the orbit listing is
    asked for (symmetry.OrbitListing.orbits), and that of every listing
    of monomials over the generators in no copy (symmetry._keys), in
    call order."""
    real_orbits, real_keys = symmetry.OrbitListing.orbits, symmetry._keys
    spaces, asked, listed = [], [], []

    def recorded(real):
        def enumerated(*args, **kwargs):
            spaces.append((args, kwargs))
            return real(*args, **kwargs)
        return enumerated

    def orbits(listing, q, skip=None):
        asked.append(q)
        return real_orbits(listing, q, skip)

    def keys(evens, odds, q):
        listed.append(q)
        return real_keys(evens, odds, q)

    for name in ("enumerate_basis", "_keys"):
        monkeypatch.setattr(elements, name, recorded(getattr(elements, name)))
    monkeypatch.setattr(symmetry.OrbitListing, "orbits", orbits)
    monkeypatch.setattr(symmetry, "_keys", keys)
    return spaces, asked, listed


def test_cohomology_dims_enumerates_each_space_once(monkeypatch):
    spaces, asked, listed = _listings(monkeypatch)
    for q in range(6):
        for alg, reach in ((make_heisenberg_even(1, 1), 0), (make_heisenberg_even(2, 2), 2)):
            asked.clear()
            listed.clear()
            cohomology_dims(alg, q)
            # d_{q-1} then d_q: the stacks of C^{q-1} and C^q, and on
            # h_{2,2} those of the two degrees below, whose blocks its
            # y_j shift up to C^{q-1} (weight series (1 + t)^2), once
            # each; their rows are numbered on first use, so C^{q+1} is
            # never listed
            ranked = list(range(max(q - 1 - reach, 0), q + 1))
            assert asked == ranked, (alg.name, q)
            if alg.name == "h_{1,1}":
                # no copies: the stacks are the monomials of C^{q-1} and
                # C^q, and no other degree is listed
                assert listed == ranked, q
            else:
                # copies: their representatives, of every degree up to q,
                # are summed with the monomials of z, of degree 0 and 1
                # alone, each once
                assert sorted(listed) == list(range(min(q, 1) + 1)), q
        # an odd centre takes the Lefschetz route, as betti_table does:
        # A^0..A^(q-1), each once, for the prefix sums of rank L^(t)
        asked.clear()
        cohomology_dims(make_heisenberg_odd(1), q)
        assert asked == list(range(q)), q
    assert spaces == []


def test_betti_table_enumerates_each_space_once(monkeypatch):
    spaces, asked, listed = _listings(monkeypatch)
    for q_max in range(6):
        for alg in (make_heisenberg_even(1, 1), make_heisenberg_even(2, 2)):
            asked.clear()
            listed.clear()
            betti_table(alg, q_max)
            # each degree up to q_max once, whether or not the table has
            # copies; C^{q_max+1} never.  The monomials of z, with
            # copies, have degree 0 and 1 alone
            assert asked == list(range(q_max + 1)), (alg.name, q_max)
            assert sorted(listed) == list(range(q_max + 1 if alg.name == "h_{1,1}"
                                                else min(q_max, 1) + 1)), (alg.name, q_max)
    assert spaces == []


def test_cohomology_dims_of_a_wide_table_lists_only_its_two_degrees(monkeypatch):
    # the 25-dimensional Heisenberg algebra, [x_i, y_i] = i z: even, no
    # copies and no split.  At q = 24 the cap admits C^23 (300 monomials)
    # and C^24 (25); C^12, which the call does not rank, has 5.2 million
    n = 12
    gens = [("z", EVEN)] + [("%s%d" % (c, i), EVEN) for c in "xy" for i in range(1, n + 1)]
    alg = LieSuperalgebra("heisenberg_25", gens, {(i, n + i): {0: i} for i in range(1, n + 1)})
    spaces, asked, listed = _listings(monkeypatch)
    report = cohomology_dims(alg, 24)
    assert asked == listed == [23, 24] and spaces == []
    # Poincare duality: dim H^24 = dim H^1 = 24, and dim H^23 = dim H^2 =
    # C(24, 2) - 1
    assert (report.dim_cochain, report.dim_coboundaries, report.dim_cohomology) == (25, 1, 24)
    assert cohomology_dims(alg, 23).dim_cohomology == 275


def test_no_engine_entry_enumerates_a_canonical_space(monkeypatch):
    # every table, with copies or without, on the full route and on the
    # Lefschetz blocks, is listed by its workspace's orbit listing alone
    def no_enumeration(*args, **kwargs):
        raise AssertionError("the engine enumerated a canonical space")

    for name in ("enumerate_basis", "_keys"):
        monkeypatch.setattr(elements, name, no_enumeration)
    monkeypatch.setattr(cohomology, "_split_ranks", lambda *args: None)
    hidden = [s for _, _, s in HIDDEN_SUMS]
    for alg in [make_heisenberg_even(1, 1), make_heisenberg_even(2, 2),
                make_heisenberg_odd(1), make_heisenberg_odd(3)] + hidden:
        betti_table(alg, 4)
        cohomology_dims(alg, 3)
    assert verify_family("odd", 3, None, 4).ok()
    assert verify_family("even", 2, 2, 4).ok()


def test_first_use_rows_give_the_canonical_rank():
    # every d_q's rows are numbered on first use; every rank the engine
    # reports equals the rank of the canonical differential_matrix
    families = [make_heisenberg_even(n, m) for n, m in ((1, 1), (1, 3), (2, 1), (2, 2))]
    hidden = [s for _, _, s in HIDDEN_SUMS] + _hidden_two_step(6, 41)
    # [g, g] not central: the engine validates such a table in every
    # call, at about 0.1 s, so one of them, in degrees up to 2
    simple = _hidden_with_simple_part(1, 43)
    for alg, q_max in ([(a, 4) for a in families] + [(a, 3) for a in hidden]
                       + [(a, 2) for a in simple]):
        canonical = [rank(differential_matrix(alg, q).matrix) for q in range(q_max + 1)]
        table = betti_table(alg, q_max)
        assert [r.dim_cochain - r.dim_cocycles for r in table] == canonical, alg.name
        # cohomology_dims(alg, q) has d_q at its top
        assert [cohomology_dims(alg, q) for q in range(q_max + 1)] == table, alg.name


def _hidden_valid(name, seed):
    alg = LieSuperalgebra(name, *change_basis(random.Random(seed), direct_sum(
        _table(make_heisenberg_odd(1)), _table(make_heisenberg_even(1, 1)))))
    assert adapted_basis(alg) is not alg, name
    return alg


def _counted(monkeypatch, module, name):
    """Replace module.name by a wrapper; returns the list of its first
    arguments, one per call."""
    real = getattr(module, name)
    calls = []

    def counted(alg):
        calls.append(alg)
        return real(alg)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_a_parsed_file_is_rewritten_once(monkeypatch):
    text = format_algebra(_hidden_valid("hidden", 2))
    rewrites = _counted(monkeypatch, algebra, "_adapted_brackets")
    alg = parse_algebra(text)
    table = betti_table(alg, 3)
    assert cohomology_dims(alg, 3) == table[3]
    # the parse's rewrite is kept on alg, and the engine reuses it; the
    # canonical part tables (h_{1,1} and h_1) are their own adapted
    # basis, and are ranked without one
    assert rewrites == [alg]


def _constructed(monkeypatch):
    """Count _Workspace constructions, wherever the class was imported;
    returns the list of their algebras, one per construction."""
    real = differential._Workspace.__init__
    calls = []

    def counted(self, alg, degree):
        calls.append(alg)
        real(self, alg, degree)

    monkeypatch.setattr(differential._Workspace, "__init__", counted)
    return calls


def test_d_terms_are_derived_once_per_betti_table_call(monkeypatch):
    # full d_q on the hidden sum (its split switched off), Lefschetz
    # blocks on h_3, full d_q on h_{2,2} (the identity rewrite): one
    # workspace per call derives the d-term table, and nothing keeps it
    # on the algebra or the module
    hidden = _hidden_valid("hidden", 2)
    with monkeypatch.context() as whole:
        whole.setattr(cohomology, "_split_ranks", lambda *args: None)
        for alg in (hidden, make_heisenberg_odd(3), make_heisenberg_even(2, 2)):
            derived = _constructed(whole)
            betti_table(alg, 4)
            assert derived == [adapted_basis(alg)], alg.name
            betti_table(alg, 3)
            assert derived == [adapted_basis(alg)] * 2, alg.name
    # split, the canonical table of each part type (h_{1,1} and h_1) is
    # built once per call, and its own workspace derives its d-terms once
    derived = _constructed(monkeypatch)
    for calls in (1, 2):
        betti_table(hidden, 4 - calls)
        assert [a.name for a in derived] == ["h_{1,1}", "h_1"] * calls


def test_bracket_table_is_read_only():
    alg = make_heisenberg_even(1, 1)
    with pytest.raises(TypeError):
        alg.brackets[(1, 2)][0] = 2
    with pytest.raises(TypeError):
        alg.brackets[(0, 0)] = {0: 1}
    with pytest.raises(TypeError):
        del alg.brackets[(1, 2)]
    # rebinding the table would leave the tables derived from it stale
    with pytest.raises(AttributeError):
        alg.brackets = {}
    assert alg == make_heisenberg_even(1, 1)


def test_algebras_with_one_table_keep_their_own_names():
    table = _table(_hidden_valid("hidden", 3))
    a, b = LieSuperalgebra("a", *table), LieSuperalgebra("b", *table)
    adapted_a, adapted_b = adapted_basis(a), adapted_basis(b)
    assert (adapted_a.name, adapted_b.name) == ("a", "b")
    assert adapted_a.brackets == adapted_b.brackets
    for alg in (a, b):
        assert {r.algebra_name for r in betti_table(alg, 2)} == {alg.name}
        assert cohomology_dims(alg, 2).algebra_name == alg.name
