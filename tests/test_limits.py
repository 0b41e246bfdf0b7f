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
    (ColumnCapExceeded("h_{1,97}", 2, 5047, 5000, 2, 1, 5047),
     {"algebra_name": "h_{1,97}", "q": 2, "columns": 5047, "cap": 5000,
      "top": 2, "fits": 1, "needed": 5047}),
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
    "(q <= 1 fits; a cap of 5047 admits q <= 2)",
    "refusing h_2499 at q=1: codomain C^2 has 12495001 rows, limit is 500000 "
    "(100 times the column cap; a cap of 124951 admits it)",
    "refusing h_73 at q=1: psi's codomain A^3 has 518738 rows, limit is 500000 "
    "(100 times the column cap; a cap of 5188 admits it)",
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


def _refused(check, *args):
    with pytest.raises((ColumnCapExceeded, CodomainTooLarge)) as err:
        check(*args)
    return str(err.value)


def test_a_refusal_names_what_would_fit():
    # a column-cap refusal names the largest top degree whose degrees all
    # fit, and the cap that admits every degree asked for: h_9's C^19
    # over (9|10) has 654,862,247 columns, its C^20 fewer than 100 times that
    assert limits.graded_dim((9, 10), 19) == 654862247
    assert _refused(limits.check_column_cap, "h_9", (9, 10), 19, 5000) == (
        "refusing h_9 at q=4: matrix has 5641 columns, cap is 5000 "
        "(q <= 3 fits; a cap of 654862247 admits q <= 19)")
    # C^0 has one column, so a cap of 0 fits no degree
    assert _refused(limits.check_column_cap, "h_1", (1, 2), 1, 0) == (
        "refusing h_1 at q=0: matrix has 1 columns, cap is 0 "
        "(no degree fits; a cap of 3 admits q <= 1)")
    # the admitting cap covers the top codomain too: C^2 of h_2499 has
    # 12,495,001 rows, so a cap of its 4999 columns at q=1 would not do
    assert _refused(limits.check_column_cap, "h_2499", (2499, 2500), 1, 4998) == (
        "refusing h_2499 at q=1: matrix has 4999 columns, cap is 4998 "
        "(q <= 0 fits; a cap of 124951 admits q <= 1)")
    # the cap named is the least one that admits the call
    for name, superdim, top, cap in (("h_9", (9, 10), 19, 5000),
                                     ("h_2499", (2499, 2500), 1, 4998),
                                     ("h_{14,16}", (29, 16), 3, 5000)):
        with pytest.raises(ColumnCapExceeded) as err:
            limits.check_column_cap(name, superdim, top, cap)
        limits.check_column_cap(name, superdim, top, err.value.needed)
        with pytest.raises((ColumnCapExceeded, CodomainTooLarge)):
            limits.check_column_cap(name, superdim, top, err.value.needed - 1)
    # a codomain refusal names the cap that admits its rows: the rows
    # over CODOMAIN_ROWS_PER_COLUMN, rounded up
    assert _refused(limits.check_column_cap, "h_2499", (2499, 2500), 1, 5000) == (
        "refusing h_2499 at q=1: codomain C^2 has 12495001 rows, limit is 500000 "
        "(100 times the column cap; a cap of 124951 admits it)")
    assert _refused(limits._check_psi_codomain, 16, 1, 50) == (
        "refusing h_16 at q=1: psi's codomain A^3 has 5472 rows, limit is 5000 "
        "(100 times the column cap; a cap of 55 admits it)")
    assert _refused(limits._check_codomain, "h", 1, 500001, 5000) == (
        "refusing h at q=1: codomain C^2 has 500001 rows, limit is 500000 "
        "(100 times the column cap; a cap of 5001 admits it)")


def _member_refusals(family, n_max, m_max, q_max, cap):
    """The members of a verify grid, in grid order, each with the
    refusal of its own size checks or None."""
    out = []
    for n in range(1, n_max + 1):
        for m in (None,) if m_max is None else range(1, m_max + 1):
            shape = limits.odd_family_shape(n) if m is None else limits.even_family_shape(n, m)
            try:
                limits.check_column_cap(*shape, q_max, cap)
                if m is None:
                    limits._check_psi_codomain(n, q_max, cap)
                out.append((shape, None))
            except (ColumnCapExceeded, CodomainTooLarge) as exc:
                out.append((shape, exc))
    return out


@pytest.mark.parametrize("grid", [("even", 1, 120, 2, 5000), ("even", 3, 4, 5, 300),
                                  ("even", 4, 2, 3, 40), ("odd", 9, None, 3, 300),
                                  ("odd", 6, None, 5, 40), ("odd", 20, None, 1, 50)])
def test_a_grid_is_refused_by_its_last_member(grid):
    # every dim C^q, codomain and psi's A^(q+2) grows with n and m, so
    # the last member is refused exactly when some member is, at the
    # least degree any member is, and names the least cap that admits
    # every member's degrees (a psi refusal's cap admits the whole grid)
    members = _member_refusals(*grid)
    refused = [exc for _, exc in members if exc]
    (name, _), last = members[-1]
    with pytest.raises((ColumnCapExceeded, CodomainTooLarge)) as err:
        limits.check_grid(*grid)
    assert len(refused) < len(members) and str(err.value) == str(last)
    assert err.value.algebra_name == name
    if isinstance(err.value, ColumnCapExceeded):
        assert err.value.q == min(e.q for e in refused if isinstance(e, ColumnCapExceeded))
        for shape, _ in members:
            limits.check_column_cap(*shape, grid[3], err.value.needed)
        with pytest.raises((ColumnCapExceeded, CodomainTooLarge)):
            limits.check_column_cap(*members[-1][0], grid[3], err.value.needed - 1)
    else:
        assert all(type(e) is CodomainTooLarge for e in refused)
        cap = limits._cap_admitting(err.value.rows)
        limits.check_grid(*grid[:4], cap)
        with pytest.raises(CodomainTooLarge):
            limits.check_grid(*grid[:4], cap - 1)


def test_a_refused_grid_names_the_cap_that_admits_it():
    assert _refused(limits.check_grid, "even", 1, 120, 2) == (
        "refusing h_{1,120} at q=2: matrix has 7623 columns, cap is 5000 "
        "(q <= 1 fits; a cap of 7623 admits q <= 2)")
    assert limits.check_grid("even", 1, 120, 2, 7623)[1, 120][2] == 7623


# a bad argument of each public or size function, refused where it
# enters: (call, exception type, message)
ARGUMENT_REFUSALS = (
    (lambda: limits.sym_power_dim(-1, 2), ValueError, "m must be nonnegative"),
    (lambda: limits.graded_dim((1, -1), 2), ValueError, "dimensions must be nonnegative"),
    (lambda: limits._graded_dims((-1, 1), 2), ValueError, "dimensions must be nonnegative"),
    (lambda: limits.check_grid("mixed", 1, None, 2), ValueError,
     "family must be 'even' or 'odd', got 'mixed'"),
    (lambda: formulas.odd_cocycle_dim(0, 2), ValueError, "n must be positive"),
    (lambda: formulas.even_cocycle_dim(1, 0, 2), ValueError, r"h_\{n,m\} needs n >= 1"),
    (lambda: cohomology.betti_table(algebra.make_heisenberg_odd(1), -1), ValueError,
     "q_max must be nonnegative"),
    (lambda: elements.enumerate_basis((-1, 1), 2), ValueError,
     "dimensions must be nonnegative"),
    (lambda: elements.wedge_monomials(elements.SuperMonomial((), (1,)),
                                      elements.SuperMonomial((), (1, 0))), ValueError,
     "monomials live over different odd dimensions"),
    (lambda: elements.d_generator(algebra.make_heisenberg_odd(1), 3), ValueError,
     "generator index 3 out of range"),
    (lambda: elements.d_generator(algebra.make_heisenberg_odd(1), -1), ValueError,
     "generator index -1 out of range"),
    (lambda: elements.d_generator(algebra.make_heisenberg_odd(1), 1.0), TypeError,
     r"generator index 1\.0 is not an int"),
    (lambda: elements.psi_matrix(1, 0, 1), ValueError, "psi needs n >= 1 and l >= 1"),
    (lambda: elements.psi_matrix(1, 1, 0), ValueError, "psi needs n >= 1 and l >= 1"),
)


@pytest.mark.parametrize("call, error, message", ARGUMENT_REFUSALS,
                         ids=[str(i) for i in range(len(ARGUMENT_REFUSALS))])
def test_a_bad_argument_is_refused_where_it_enters(call, error, message):
    with pytest.raises(error, match=message):
        call()


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
    every import of a package module in the package's source files; a
    name imported from the package itself comes from `__init__`."""
    found = []
    paths = sorted(Path(heisenberg_cohomology.__file__).parent.glob("*.py"))
    modules = {path.stem for path in paths}

    def visit(module, node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ImportFrom) and child.level:
                targets = [child.module] if child.module else list(dict.fromkeys(
                    a.name if a.name in modules else "__init__" for a in child.names))
            elif isinstance(child, ast.Import):
                targets = [a.name.split(".", 1)[1] for a in child.names
                           if a.name.startswith("heisenberg_cohomology.")]
            else:
                targets = []
            found.extend((module, function, target) for target in targets)
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(module, child, child.name if inner else function)

    for path in paths:
        visit(path.stem, ast.parse(path.read_text()), None)
    return found


def test_the_import_graph():
    imports = _package_imports()
    # algebra loads no listing or kernel code: symmetry imports algebra
    # for its copy classes, not the other way round
    assert {target for module, _, target in imports if module == "algebra"}.isdisjoint(
        {"symmetry", "differential"})
    assert ("symmetry", None, "algebra") in imports
    # every package import is at the top of its module but the engine
    # names each verb of the cli calls, which it takes from the package
    # (or a private one from its module) in the branch that calls it,
    # the direct-sum search, which only tables past _split_ranks' gate
    # load, and the report code, which a caller of the closed forms alone
    # never loads
    assert [entry for entry in imports if entry[1] is not None] \
        == [("cli", "_emit", "__init__"),
            ("cli", "_cmd_family", "__init__"),
            ("cli", "_cmd_family", "formulas"),
            ("cli", "_cmd_compute", "__init__"),
            ("cli", "_cmd_compute", "fileformats"),
            ("cli", "_cmd_verify", "__init__"),
            ("cohomology", "_split_ranks", "directsum"),
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
    # reports; verify alone imports both routes at its top, the cli's
    # family verbs each in its own branch, and fileformats holds the
    # file format alone
    def targets(module):
        return {target for source, _, target in imports if source == module}

    for module in ("cohomology", "differential", "symmetry", "linalg", "algebra"):
        assert "formulas" not in targets(module), module
    assert targets("formulas") == {"limits", "reports"}
    assert targets("reports") == {"limits"}
    assert targets("fileformats") == {"algebra", "limits"}
    assert {(source, function) for source, function, target in imports
            if target == "formulas"} == {("verify", None), ("cli", "_cmd_family")}
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
    assert defined(differential) == {"_Workspace", "_mask_plan", "_coboundary",
                                     "_lefschetz_block", "_odd_centre"}
    # one door into the kernel: a module applies d through a workspace
    # and _coboundary, or _lefschetz_block, which calls it; none takes
    # the kernel's plans
    taken = {}
    for path in Path(heisenberg_cohomology.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "differential":
                taken.setdefault(path.stem, set()).update(a.name for a in node.names)
    assert taken["elements"] == {"_Workspace", "_coboundary", "_lefschetz_block",
                                 "_odd_centre"}
    assert set().union(*taken.values()) == taken["elements"]
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


def test_a_patch_on_the_package_name_reaches_the_verb(monkeypatch):
    # the cli binds no engine name of its own: each verb imports what it
    # calls when it calls it, a public name from the package and a
    # private one from its module, so a patch on either reaches the verb
    calls = []

    def fake(algebra, q_max, column_cap):
        calls.append((algebra.name, q_max, column_cap))
        return [None] * (q_max + 1)
    monkeypatch.setattr(heisenberg_cohomology, "emit_report", lambda reports, fmt: b"")
    monkeypatch.setattr(heisenberg_cohomology, "betti_table", fake)
    monkeypatch.setattr(formulas, "even_formula_report", lambda n, m, q: None)
    assert cli.main(["even", "--n", "1", "--m", "1", "--q-max", "1", "--method", "both"]) == 0
    assert calls == [("h_{1,1}", 1, limits.DEFAULT_COLUMN_CAP)]
    assert heisenberg_cohomology.betti_table is fake
    # the package's hook is the one lazy attribute lookup: the cli binds
    # no engine name, and no other module defines a module __getattr__
    assert not hasattr(cli, "betti_table")
    assert [path.stem for path in sorted(Path(cli.__file__).parent.glob("*.py"))
            if "\ndef __getattr__(" in path.read_text()] == ["__init__"]
    with pytest.raises(AttributeError, match="no attribute 'frobnicate'"):
        heisenberg_cohomology.frobnicate
