"""Exact cohomology of Heisenberg Lie superalgebras.

Betti numbers of the two Heisenberg families (even-center h_{n,m} and
odd-center h_n) computed two independent ways: closed-form dimension
formulas, and exact ranks of the coboundary matrices over the
rationals.  The verify harness adjudicates the two against each other.
"""

from .algebra import (EVEN, ODD, AlgebraValidationError, Generator,
                      LieSuperalgebra, make_heisenberg_even,
                      make_heisenberg_odd, validate)
from .cohomology import (DEFAULT_COLUMN_CAP, MAX_Q_MAX, METHOD_FORMULA_EVEN,
                         METHOD_FORMULA_ODD_PROOF, METHOD_RANK,
                         CodomainTooLarge, CohomologyReport,
                         ColumnCapExceeded, DegreeLimitExceeded, betti_table,
                         cohomology_dims)
from .differential import (DifferentialMatrix, d_element, d_generator,
                           differential_matrix, psi_matrix, tau)
from .fileformats import (AlgebraParseError, emit_report, format_algebra,
                          parse_algebra)
from .formulas import (binom, delta, dim_h_even, dim_h_odd_displayed,
                       dim_h_odd_proof, even_cocycle_dim, ker_psi_dim,
                       odd_cocycle_dim, sym_power_dim)
from .linalg import RationalMatrix, kernel_dim, rank
from .superexterior import (SuperElement, SuperMonomial, SuperSpaceDims,
                            dual_pairing, element_pairing, enumerate_basis,
                            graded_dim, monomial_sort_key, wedge,
                            wedge_monomials)
from .verify import Comparison, VerifyResult, verify_family

__version__ = "0.1.0"

__all__ = [
    "EVEN", "ODD", "Generator", "LieSuperalgebra",
    "make_heisenberg_even", "make_heisenberg_odd", "validate",
    "SuperSpaceDims", "SuperMonomial", "SuperElement",
    "wedge", "wedge_monomials", "enumerate_basis", "graded_dim",
    "monomial_sort_key", "dual_pairing", "element_pairing",
    "RationalMatrix", "rank", "kernel_dim",
    "DifferentialMatrix", "d_generator", "d_element",
    "differential_matrix", "tau", "psi_matrix",
    "CohomologyReport", "ColumnCapExceeded", "CodomainTooLarge",
    "DegreeLimitExceeded", "cohomology_dims",
    "betti_table", "DEFAULT_COLUMN_CAP", "MAX_Q_MAX",
    "METHOD_RANK", "METHOD_FORMULA_EVEN", "METHOD_FORMULA_ODD_PROOF",
    "binom", "delta", "sym_power_dim", "dim_h_even", "ker_psi_dim",
    "dim_h_odd_proof", "dim_h_odd_displayed",
    "even_cocycle_dim", "odd_cocycle_dim",
    "parse_algebra", "format_algebra", "emit_report",
    "AlgebraParseError", "AlgebraValidationError",
    "Comparison", "VerifyResult", "verify_family",
]
