import gc
import random
import weakref

import pytest

from heisenberg_cohomology import algebra, cohomology, differential, limits
from heisenberg_cohomology.algebra import (AlgebraValidationError,
                                           LieSuperalgebra, adapted_basis,
                                           make_heisenberg_even,
                                           make_heisenberg_odd, odd_family_shape,
                                           validate)
from heisenberg_cohomology.cohomology import (CodomainTooLarge,
                                              ColumnCapExceeded,
                                              CohomologyReport,
                                              DegreeLimitExceeded, METHOD_RANK,
                                              ReportInvariantError,
                                              betti_table, check_column_cap,
                                              cohomology_dims)
from heisenberg_cohomology.differential import _RowIndex, differential_matrix
from heisenberg_cohomology.fileformats import format_algebra, parse_algebra
from heisenberg_cohomology.linalg import RationalMatrix, rank
from heisenberg_cohomology.verify import Comparison, VerifyResult, verify_family

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
                              "columns, cap is 5000 (raise the cap to force "
                              "the computation)")


def test_checked_rank_rejects_a_misshapen_matrix(monkeypatch):
    real_top = cohomology._coboundary

    def transposed(algebra, domain, row_index, rows):
        mat = real_top(algebra, domain, row_index, rows)
        return RationalMatrix(mat.cols, mat.rows,
                              {(c, r): v for (r, c), v in mat.entries.items()})

    monkeypatch.setattr(cohomology, "_coboundary", transposed)
    # an even centre takes the full-matrix route; d_0 of h_{1,1} is 4x1
    with pytest.raises(AssertionError, match="d_0 has shape 1x4"):
        betti_table(make_heisenberg_even(1, 1), 2)

    # the top d_q numbers its rows on first use: more rows than dim C^{q+1},
    # or a column too few, is a fault too; the lower d_q are built as they are

    def overflowing(algebra, domain, row_index, rows):
        mat = real_top(algebra, domain, row_index, rows)
        if isinstance(row_index, _RowIndex):
            for k in range(rows + 1 - len(row_index)):
                row_index[("not a row", k)]
        return mat

    def narrow(algebra, domain, row_index, rows):
        if isinstance(row_index, _RowIndex):
            domain = domain[1:]
        return real_top(algebra, domain, row_index, rows)

    # h_{1,1}: dims (3|1), dim C^2 = 7, dim C^3 = 8
    monkeypatch.setattr(cohomology, "_coboundary", overflowing)
    for call in (lambda: betti_table(make_heisenberg_even(1, 1), 2),
                 lambda: cohomology_dims(make_heisenberg_even(1, 1), 2)):
        with pytest.raises(AssertionError,
                           match=r"d_2 reaches 9 rows, more than dim C\^3 = 8"):
            call()
    monkeypatch.setattr(cohomology, "_coboundary", narrow)
    with pytest.raises(AssertionError, match="d_2 has shape 8x6"):
        betti_table(make_heisenberg_even(1, 1), 2)


def _transposed_blocks(monkeypatch):
    real = cohomology._lefschetz_block

    def transposed(algebra, z, t, l, workspace):
        mat = real(algebra, z, t, l, workspace)
        return RationalMatrix(mat.cols, mat.rows,
                              {(c, r): v for (r, c), v in mat.entries.items()})

    monkeypatch.setattr(cohomology, "_lefschetz_block", transposed)


def test_block_ranks_reject_a_misshapen_block(monkeypatch):
    _transposed_blocks(monkeypatch)
    # an odd centre takes the block route; L^(0) of h_1 is 2x1
    with pytest.raises(AssertionError, match=r"L\^\(0\) has shape 1x2"):
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

    # the size refusals count dimensions in limits
    monkeypatch.setattr(limits, "graded_dim", no_count)
    monkeypatch.setattr(cohomology, "graded_dim", no_count)
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

    def recorded(self):
        real_init(self)
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
        _transposed_blocks(patched)
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
    checked = _counted(monkeypatch, cohomology, "validate")
    alg = _hidden_valid("hidden", 2)
    first = cohomology_dims(alg, 3)
    assert checked == [adapted_basis(alg)]
    # the verdict is kept on the algebra beside its rewrite
    assert cohomology_dims(alg, 3) == first and betti_table(alg, 3)[3] == first
    assert checked == [adapted_basis(alg)]
    # the family constructors and parse_algebra record their own verdict
    checked.clear()
    betti_table(make_heisenberg_odd(2), 3)
    betti_table(make_heisenberg_even(1, 2), 3)
    verify_family("odd", 2, None, 3)
    cohomology_dims(parse_algebra(format_algebra(alg)), 2)
    assert checked == []
    # a failing verdict is kept too, and still raises with the table's
    # own messages
    bad = _invalid_algebras()[0]
    for _ in range(2):
        with pytest.raises(AlgebraValidationError) as err:
            cohomology_dims(bad, 1)
        assert err.value.violations == validate(bad)
    assert checked == [adapted_basis(bad), bad, bad]


def test_cohomology_dims_enumerates_each_space_once(monkeypatch):
    real = differential.enumerate_basis
    calls = []

    def counted(dims, q, without=None):
        calls.append(q)
        return real(dims, q, without)

    monkeypatch.setattr(differential, "enumerate_basis", counted)
    for q in range(6):
        calls.clear()
        cohomology_dims(make_heisenberg_even(2, 2), q)
        # d_{q-1} then d_q: C^{q-1}, C^q (kept for d_q); C^{q+1}, the
        # top codomain, is numbered on first use and never enumerated
        assert calls == list(range(max(q - 1, 0), q + 1)), q


def test_betti_table_enumerates_each_space_once(monkeypatch):
    real = differential.enumerate_basis
    calls = []

    def counted(dims, q, without=None):
        calls.append(q)
        return real(dims, q, without)

    monkeypatch.setattr(differential, "enumerate_basis", counted)
    for q_max in range(6):
        calls.clear()
        betti_table(make_heisenberg_even(2, 2), q_max)
        # C^q once for d_{q-1} and d_q; C^{q_max+1} never
        assert calls == list(range(q_max + 1)), q_max


def test_first_use_rows_give_the_canonical_rank():
    # the top d_q's rows are numbered on first use; every rank the engine
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
    # the parse's rewrite is kept on alg, and the engine reuses it
    assert rewrites == [alg]


def test_slot_table_is_derived_once_per_algebra(monkeypatch):
    # full d_q on the hidden sum, Lefschetz blocks on h_3, full d_q on
    # h_{2,2} (the identity rewrite)
    for alg in (_hidden_valid("hidden", 2), make_heisenberg_odd(3),
                make_heisenberg_even(2, 2)):
        derived = _counted(monkeypatch, differential, "_slot_table")
        betti_table(alg, 4)
        betti_table(alg, 3)
        assert derived == [adapted_basis(alg)], alg.name


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
