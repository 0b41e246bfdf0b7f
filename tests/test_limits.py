"""limits: the engine-free home of the size checks and error types, and
the lazy package namespace in front of it."""

import ast
import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import heisenberg_cohomology
from heisenberg_cohomology import (algebra, cli, cohomology, differential,
                                   elements, fileformats, formulas, limits,
                                   linalg, reports, superexterior, verify)
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


# the message of each instance of ERRORS, in order: what the CLI prints
# after its prefix on stderr
TEXTS = (
    "refusing degree 101, limit is 100",
    "refusing h_{1,97} at q=2: matrix has 5047 columns, cap is 5000 "
    "(raise the cap to force the computation)",
    "refusing h_2499 at q=1: codomain C^2 has 12495001 rows, limit is 500000 "
    "(100 times the column cap; raise the cap to force the computation)",
    "refusing h_73 at q=1: psi's codomain A^3 has 518738 rows, limit is 500000 "
    "(100 times the column cap; raise the cap to force the computation)",
    "refusing a verify grid of 1600 points, limit is 1000",
    "line 3: unknown generator 'w'",
    "algebra fails validation:\n  jacobi: (x, y, z) leaves 1*z\n"
    "  parity: [x, y] -> u is not parity-homogeneous",
    "inconsistent dimensions",
)


@pytest.mark.parametrize("error, text", zip([e for e, _ in ERRORS], TEXTS),
                         ids=[type(e).__name__ for e, _ in ERRORS])
def test_every_error_keeps_its_text(error, text):
    # pinned literally, so a drift in a shared template cannot pass
    # unseen; the one argument is the message
    assert str(error) == text and error.args == (text,)


def test_a_refusal_is_built_from_its_fields_alone():
    # by position, one argument per field, as the engine raises them
    for cls, args in ((DegreeLimitExceeded, (101,)), (GridTooLarge, (1, 2, 3)),
                      (AlgebraParseError, ()), (ColumnCapExceeded, ("h_1", 2, 9))):
        with pytest.raises(TypeError, match="%s takes" % cls.__name__):
            cls(*args)


def test_error_types_are_defined_in_limits():
    for error, _ in ERRORS:
        assert type(error).__module__ == "heisenberg_cohomology.limits"


def test_graded_dim_takes_any_pair():
    dims = elements.SuperSpaceDims(3, 2)
    for q in range(-1, 6):
        assert limits.graded_dim((3, 2), q) == limits.graded_dim(dims, q) \
            == len(elements.enumerate_basis(dims, q))


# the package's public names, by the module that defines each one
PUBLIC = {
    algebra: ("EVEN", "ODD", "Generator", "LieSuperalgebra", "make_heisenberg_even",
              "make_heisenberg_odd", "validate"),
    cohomology: ("betti_table", "cohomology_dims"),
    elements: ("DifferentialMatrix", "SuperElement", "SuperMonomial", "SuperSpaceDims",
               "d_element", "d_generator", "differential_matrix", "dual_pairing",
               "element_pairing", "enumerate_basis", "monomial_sort_key",
               "psi_matrix", "tau", "wedge", "wedge_monomials"),
    fileformats: ("format_algebra", "parse_algebra"),
    formulas: ("binom", "delta", "dim_h_even", "dim_h_odd_displayed",
               "dim_h_odd_proof", "even_cocycle_dim", "ker_psi_dim",
               "odd_cocycle_dim"),
    limits: ("AlgebraParseError", "AlgebraValidationError", "CodomainTooLarge",
             "ColumnCapExceeded", "DEFAULT_COLUMN_CAP", "DegreeLimitExceeded",
             "MAX_Q_MAX", "graded_dim", "sym_power_dim"),
    linalg: ("RationalMatrix", "kernel_dim", "rank"),
    reports: ("METHOD_FORMULA_EVEN", "METHOD_FORMULA_ODD_PROOF", "METHOD_RANK",
              "CohomologyReport", "emit_report"),
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


def test_no_module_keeps_a_function_cache():
    # no module-level cache: what an engine call derives lives on its
    # algebra or its workspace, and goes when they do
    for module in (*PUBLIC, differential, superexterior):
        for name in dir(module):
            assert not hasattr(getattr(module, name), "cache_info"), (module, name)


def _package_imports():
    """(module, enclosing function or None, imported package module) for
    every import of a package module in the package's source files."""
    found = []

    def visit(module, node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ImportFrom) and child.level:
                targets = [child.module] if child.module else [a.name for a in child.names]
            elif isinstance(child, ast.Import):
                targets = [a.name.split(".", 1)[1] for a in child.names
                           if a.name.startswith("heisenberg_cohomology.")]
            else:
                targets = []
            found.extend((module, function, target) for target in targets)
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(module, child, child.name if inner else function)

    for path in sorted(Path(heisenberg_cohomology.__file__).parent.glob("*.py")):
        visit(path.stem, ast.parse(path.read_text()), None)
    return found


def test_the_import_graph():
    imports = _package_imports()
    # algebra loads no listing or kernel code: symmetry imports algebra
    # for its copy classes, not the other way round
    assert {target for module, _, target in imports if module == "algebra"}.isdisjoint(
        {"symmetry", "differential"})
    assert ("symmetry", None, "algebra") in imports
    # every package import is at the top of its module but the direct-sum
    # search, which only tables past _split_ranks' gate load, and the
    # report code, which a caller of the closed forms alone never loads
    assert [entry for entry in imports if entry[1] is not None] \
        == [("cohomology", "_split_ranks", "directsum"),
            ("formulas", "even_formula_report", "reports"),
            ("formulas", "odd_formula_report", "reports")]
    # the kernel loads no listing code: differential and the element API
    # import nothing from symmetry, whose listing is built above the
    # kernel and imports nothing from differential
    assert [(module, target) for module, _, target in imports
            if (module in ("differential", "elements") and target == "symmetry")
            or (module == "symmetry" and target == "differential")] == []
    # the two routes meet only in reports, which builds and writes the
    # reports of both and imports only limits: no module of the rank
    # route imports the closed forms, which import only limits and
    # reports; verify alone imports both routes, and fileformats holds
    # the file format alone
    def targets(module):
        return {target for source, _, target in imports if source == module}

    for module in ("cohomology", "differential", "symmetry", "linalg", "algebra"):
        assert "formulas" not in targets(module), module
    assert targets("formulas") == {"limits", "reports"}
    assert targets("reports") == {"limits"}
    assert targets("fileformats") == {"algebra", "limits"}
    assert {source for source, _, target in imports if target == "formulas"} == {"verify"}
    # no module re-exports another's names: every name a module imports
    # from the package is read in that module, so a name is reached
    # through the module that defines it or through the package
    for path in sorted(Path(heisenberg_cohomology.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        bound = {alias.asname or alias.name for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.level
                 for alias in node.names}
        assert bound <= read, (path.stem, sorted(bound - read))


def test_the_engine_modules_hold_only_keys_and_the_kernel():
    # superexterior lays out and lists packed keys, differential applies
    # d to them; the monomial layer and the public builders are defined
    # in elements alone, with no re-export left behind
    def defined(module):
        return {name for name, value in vars(module).items()
                if getattr(value, "__module__", None) == module.__name__}

    assert defined(superexterior) == {"_radix", "_units", "_keys"}
    assert defined(differential) == {"_d_duals", "_Workspace", "_mask_plan", "_d_columns",
                                     "_coboundary", "_lefschetz_block",
                                     "_odd_centre"}
    moved = ("SuperSpaceDims", "SuperMonomial", "monomial_sort_key", "enumerate_basis",
             "_exponents", "_monomial", "_pack", "_unpack", "DifferentialMatrix",
             "differential_matrix", "lefschetz_block", "psi_matrix")
    assert defined(elements) >= set(moved)
    for module in (superexterior, differential):
        assert set(vars(module)).isdisjoint(moved + ("graded_dim", "sym_power_dim")), \
            module.__name__


def test_the_element_api_loads_no_listing_code():
    # a fresh interpreter: the element API loads the kernel, and the
    # orbit listing stays out of sys.modules
    src = str(Path(heisenberg_cohomology.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    probe = ("import sys, heisenberg_cohomology.elements; "
             "print(' '.join(m for m in sys.modules if m.startswith('heisenberg_cohomology.')))")
    loaded = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                            capture_output=True, text=True).stdout.split()
    assert "heisenberg_cohomology.differential" in loaded
    assert "heisenberg_cohomology.symmetry" not in loaded


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
