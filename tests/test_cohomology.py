import random

import pytest

from heisenberg_cohomology import cohomology
from heisenberg_cohomology.algebra import (AlgebraValidationError,
                                           LieSuperalgebra, adapted_basis,
                                           make_heisenberg_even,
                                           make_heisenberg_odd, odd_family_shape,
                                           validate)
from heisenberg_cohomology.cohomology import (CodomainTooLarge,
                                              ColumnCapExceeded,
                                              CohomologyReport,
                                              DegreeLimitExceeded, METHOD_RANK,
                                              betti_table, check_column_cap,
                                              cohomology_dims)
from heisenberg_cohomology.differential import (DifferentialMatrix,
                                                _cochain_space,
                                                differential_matrix)
from heisenberg_cohomology.linalg import RationalMatrix
from heisenberg_cohomology.verify import verify_family

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

    monkeypatch.setattr(cohomology, "differential_matrix", no_build)
    monkeypatch.setattr(cohomology, "adapted_basis", no_build)
    alg = make_heisenberg_odd(2499)
    for call in (lambda: betti_table(alg, 1), lambda: cohomology_dims(alg, 1)):
        with pytest.raises(CodomainTooLarge, match="codomain C\\^2 has 12495001 rows"):
            call()


def test_betti_table_refuses_before_building(monkeypatch):
    def no_build(*args):
        raise AssertionError("a matrix was built before the refusal")

    monkeypatch.setattr(cohomology, "differential_matrix", no_build)
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
    real = cohomology.differential_matrix

    def transposed(algebra, q):
        dm = real(algebra, q)
        mat = dm.matrix
        flipped = RationalMatrix(mat.cols, mat.rows,
                                 {(c, r): v for (r, c), v in mat.entries.items()})
        return DifferentialMatrix(q, dm.codomain, dm.domain, flipped)

    monkeypatch.setattr(cohomology, "differential_matrix", transposed)
    with pytest.raises(AssertionError, match="shape"):
        betti_table(make_heisenberg_odd(1), 2)


def test_report_validation():
    good = dict(algebra_name="h_1", q=2, dim_cochain=3, dim_cocycles=3,
                dim_coboundaries=1, dim_cohomology=2, method=METHOD_RANK)
    CohomologyReport(**good)
    with pytest.raises(ValueError):
        CohomologyReport(**{**good, "method": "guesswork"})
    with pytest.raises(ValueError):
        CohomologyReport(**{**good, "dim_cohomology": 5})
    with pytest.raises(ValueError):
        CohomologyReport(**{**good, "dim_cocycles": 9})
    with pytest.raises(ValueError):
        CohomologyReport(**{**good, "dim_coboundaries": -1})


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

    monkeypatch.setattr(cohomology, "graded_dim", no_count)
    for call in (lambda: betti_table(make_heisenberg_even(1, 1), 20000),
                 lambda: cohomology_dims(make_heisenberg_even(1, 1), 10 ** 8),
                 lambda: verify_family("even", 1, 1, 10 ** 8)):
        with pytest.raises(DegreeLimitExceeded, match="limit is 100"):
            call()


def test_cochain_spaces_are_released_when_the_call_returns():
    betti_table(make_heisenberg_odd(40), 1)
    assert _cochain_space.cache_info().currsize == 0
    for call, error in ((lambda: betti_table(make_heisenberg_even(14, 16), 3),
                         ColumnCapExceeded),
                        (lambda: cohomology_dims(make_heisenberg_even(14, 16), 3),
                         ColumnCapExceeded),
                        (lambda: betti_table(_invalid_algebras()[0], 2),
                         AlgebraValidationError),
                        (lambda: verify_family("odd", 100, None, 2),
                         ColumnCapExceeded)):
        differential_matrix(make_heisenberg_odd(2), 2)
        assert _cochain_space.cache_info().currsize == 2
        with pytest.raises(error):
            call()
        assert _cochain_space.cache_info().currsize == 0
    verify_family("odd", 1, None, 2)
    assert _cochain_space.cache_info().currsize == 0
