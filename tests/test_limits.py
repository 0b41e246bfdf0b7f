"""limits: the engine-free home of the size checks and error types, and
the lazy package namespace in front of it."""

import copy
import pickle

import pytest

import heisenberg_cohomology
from heisenberg_cohomology import (algebra, cli, cohomology, differential,
                                   fileformats, formulas, limits, linalg,
                                   superexterior, verify)
from heisenberg_cohomology.limits import (AlgebraParseError,
                                          AlgebraValidationError,
                                          CodomainTooLarge, ColumnCapExceeded,
                                          DegreeLimitExceeded, GridTooLarge,
                                          ReportInvariantError)

# one instance of every error type, with the attributes it must keep
ERRORS = (
    (DegreeLimitExceeded(101, 100), {"degree": 101, "limit": 100}),
    (ColumnCapExceeded("h_{1,97}", 2, 5047, 5000),
     {"algebra_name": "h_{1,97}", "q": 2, "columns": 5047, "cap": 5000}),
    (CodomainTooLarge("h_2499", 1, 12495001, 500000),
     {"algebra_name": "h_2499", "q": 1, "rows": 12495001, "limit": 500000,
      "codomain": "codomain C^2"}),
    (CodomainTooLarge("h_73", 1, 518738, 500000, "psi's codomain A^3"),
     {"algebra_name": "h_73", "q": 1, "rows": 518738, "limit": 500000,
      "codomain": "psi's codomain A^3"}),
    (GridTooLarge(1600, 1000), {"points": 1600, "limit": 1000}),
    (AlgebraParseError("unknown generator 'w'", 3),
     {"message": "unknown generator 'w'", "line": 3}),
    (AlgebraValidationError(["jacobi: (x, y, z) leaves 1*z",
                             "parity: [x, y] -> u is not parity-homogeneous"]),
     {"violations": ["jacobi: (x, y, z) leaves 1*z",
                     "parity: [x, y] -> u is not parity-homogeneous"]}),
    (ReportInvariantError("inconsistent dimensions"), {}),
)


@pytest.mark.parametrize("error, attributes", ERRORS,
                         ids=[type(e).__name__ for e, _ in ERRORS])
def test_every_error_survives_pickle_and_copy(error, attributes):
    # a refusal raised in a worker process must reach its caller intact
    error.__notes__ = ["raised while testing"]  # add_note, on Python 3.10 too
    twins = [pickle.loads(pickle.dumps(error, protocol))
             for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    twins += [copy.copy(error), copy.deepcopy(error)]
    for twin in twins:
        assert type(twin) is type(error)
        assert str(twin) == str(error)
        assert twin.args == error.args
        assert twin.__notes__ == ["raised while testing"]
        for name, value in attributes.items():
            assert getattr(twin, name) == value, name


def test_error_types_are_defined_in_limits():
    for error, _ in ERRORS:
        assert type(error).__module__ == "heisenberg_cohomology.limits"


# (module, name) pairs that named a moved object before it moved
OLD_HOMES = (
    (cohomology, ("DEFAULT_COLUMN_CAP", "MAX_Q_MAX", "CODOMAIN_ROWS_PER_COLUMN",
                  "DegreeLimitExceeded", "ColumnCapExceeded", "CodomainTooLarge",
                  "ReportInvariantError", "AlgebraValidationError",
                  "check_degree", "_checked_dims", "check_column_cap",
                  "even_family_shape", "odd_family_shape", "graded_dim")),
    (verify, ("MAX_GRID_POINTS", "GridTooLarge", "check_grid",
              "_check_psi_codomain", "DEFAULT_COLUMN_CAP")),
    (algebra, ("AlgebraValidationError", "even_family_shape", "odd_family_shape")),
    (fileformats, ("AlgebraParseError", "AlgebraValidationError")),
    (superexterior, ("graded_dim", "sym_power_dim")),
    (formulas, ("graded_dim", "sym_power_dim")),
    (cli, ("DEFAULT_COLUMN_CAP", "MAX_Q_MAX", "AlgebraParseError",
           "AlgebraValidationError", "CodomainTooLarge", "ColumnCapExceeded",
           "DegreeLimitExceeded", "GridTooLarge", "ReportInvariantError",
           "check_column_cap", "check_degree", "even_family_shape",
           "odd_family_shape")),
)


def test_old_import_paths_give_the_limits_objects():
    for module, names in OLD_HOMES:
        for name in names:
            assert getattr(module, name) is getattr(limits, name), (module, name)


def test_graded_dim_takes_any_pair():
    dims = superexterior.SuperSpaceDims(3, 2)
    for q in range(-1, 6):
        assert limits.graded_dim((3, 2), q) == limits.graded_dim(dims, q) \
            == len(superexterior.enumerate_basis(dims, q))


# the package's public names, by the module the eager package imported
# each one from
PUBLIC = {
    algebra: ("EVEN", "ODD", "AlgebraValidationError", "Generator",
              "LieSuperalgebra", "make_heisenberg_even", "make_heisenberg_odd",
              "validate"),
    cohomology: ("DEFAULT_COLUMN_CAP", "MAX_Q_MAX", "METHOD_FORMULA_EVEN",
                 "METHOD_FORMULA_ODD_PROOF", "METHOD_RANK", "CodomainTooLarge",
                 "CohomologyReport", "ColumnCapExceeded", "DegreeLimitExceeded",
                 "betti_table", "cohomology_dims"),
    differential: ("DifferentialMatrix", "d_element", "d_generator",
                   "differential_matrix", "psi_matrix", "tau"),
    fileformats: ("AlgebraParseError", "emit_report", "format_algebra",
                  "parse_algebra"),
    formulas: ("binom", "delta", "dim_h_even", "dim_h_odd_displayed",
               "dim_h_odd_proof", "even_cocycle_dim", "ker_psi_dim",
               "odd_cocycle_dim", "sym_power_dim"),
    linalg: ("RationalMatrix", "kernel_dim", "rank"),
    superexterior: ("SuperElement", "SuperMonomial", "SuperSpaceDims",
                    "dual_pairing", "element_pairing", "enumerate_basis",
                    "graded_dim", "monomial_sort_key", "wedge", "wedge_monomials"),
    verify: ("Comparison", "VerifyResult", "verify_family"),
}


def test_the_package_namespace_is_complete():
    pkg = heisenberg_cohomology
    names = sorted(n for group in PUBLIC.values() for n in group)
    assert sorted(pkg.__all__) == names
    assert set(dir(pkg)) >= set(names)
    assert pkg.__version__ == "0.1.0"
    for module, group in PUBLIC.items():
        for name in group:
            assert getattr(pkg, name) is getattr(module, name), name
    star = {}
    exec("from heisenberg_cohomology import *", star)
    assert sorted(n for n in star if n != "__builtins__") == names
    assert all(star[n] is getattr(pkg, n) for n in names)
    with pytest.raises(AttributeError, match="no attribute 'frobnicate'"):
        pkg.frobnicate
    with pytest.raises(ImportError):
        exec("from heisenberg_cohomology import frobnicate", {})
    assert not hasattr(pkg, "frobnicate")


def test_the_cli_binds_each_engine_name_once(monkeypatch):
    # a patch on the cli survives the verbs that call the patched name
    def fake(algebra, q_max, column_cap):
        return [None] * (q_max + 1)
    monkeypatch.setattr(cli, "emit_report", lambda reports, fmt: b"")
    monkeypatch.setattr(cli, "betti_table", fake)
    assert cli.main(["even", "--n", "1", "--m", "1", "--q-max", "1"]) == 0
    assert cli.betti_table is fake
    with pytest.raises(AttributeError, match="no attribute 'frobnicate'"):
        cli.frobnicate
