"""Exact cohomology of Heisenberg Lie superalgebras.

Betti numbers of the two Heisenberg families (even-center h_{n,m} and
odd-center h_n) computed two independent ways: closed-form dimension
formulas, and exact ranks of the coboundary matrices over the
rationals.  The verify harness adjudicates the two against each other.

Importing the package loads none of its modules.  Each public name is
imported from its module on first access (PEP 562 module __getattr__)
and kept here, so `from heisenberg_cohomology import X`, `import *` and
`__all__` work as if everything were imported eagerly, and a caller
that needs only limits (the size refusals and error types) loads
nothing else, and one that needs only the closed forms loads formulas,
reports and limits.
"""

from importlib import import_module

__version__ = "0.1.0"

# every public name, by the module it is imported from on first access
_HOMES = {
    "algebra": ("EVEN", "ODD", "Generator", "LieSuperalgebra",
                "make_heisenberg_even", "make_heisenberg_odd", "validate"),
    "elements": ("SuperSpaceDims", "SuperMonomial", "enumerate_basis",
                 "monomial_sort_key", "SuperElement", "wedge", "wedge_monomials",
                 "dual_pairing", "element_pairing", "d_generator", "d_element",
                 "tau", "DifferentialMatrix", "differential_matrix", "psi_matrix"),
    "linalg": ("RationalMatrix", "rank", "kernel_dim"),
    "cohomology": ("cohomology_dims", "betti_table"),
    "reports": ("CohomologyReport", "METHOD_RANK", "METHOD_FORMULA_EVEN",
                "METHOD_FORMULA_ODD_PROOF", "emit_report"),
    "limits": ("ColumnCapExceeded", "CodomainTooLarge", "DegreeLimitExceeded",
               "DEFAULT_COLUMN_CAP", "MAX_Q_MAX", "graded_dim", "sym_power_dim",
               "AlgebraParseError", "AlgebraValidationError"),
    "formulas": ("binom", "delta", "dim_h_even", "ker_psi_dim",
                 "dim_h_odd_proof", "dim_h_odd_displayed",
                 "even_cocycle_dim", "odd_cocycle_dim"),
    "fileformats": ("parse_algebra", "format_algebra"),
    "verify": ("Comparison", "VerifyResult", "verify_family"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}
__all__ = list(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(import_module("." + _HOME[name], __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
