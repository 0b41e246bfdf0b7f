"""Betti numbers from exact ranks of the coboundary matrices.

dim H^q = dim ker d_q - rank d_{q-1}, all over the rationals.  Matrix
sizes are capped (default 5000 columns) so a typo in q cannot silently
start a week-long elimination; the cap is an explicit, overridable
refusal, not a truncation.  The cap needs only the superdimension, so
it is checked first; then the algebra is rewritten once in a basis
adapted to [g, g] (algebra.adapted_basis), which leaves every Betti
number unchanged but makes the coboundary matrices of an algebra given
in a dense basis sparse.  On the built-in families that rewrite is the
identity.  The closed forms' reports for the two built-in families are
built here too (even_formula_report, odd_formula_report), so every
CohomologyReport comes from this module; a report whose dimensions are
inconsistent raises ReportInvariantError.  The codomain of the top
degree, which is enumerated only to number rows, is capped too, at
CODOMAIN_ROWS_PER_COLUMN times the column cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from .algebra import (LieSuperalgebra, adapted_basis, even_family_shape,
                      odd_family_shape)
from .differential import differential_matrix
from .formulas import dim_h_even, dim_h_odd_proof, even_cocycle_dim, odd_cocycle_dim
from .linalg import rank
from .superexterior import SuperSpaceDims, graded_dim

DEFAULT_COLUMN_CAP = 5000

# The codomain C^{q+1} of the top degree is enumerated to number rows but
# is nobody's domain, so the column cap does not bound it: it is refused
# beyond this many rows per column of the cap (500,000 at the default).
CODOMAIN_ROWS_PER_COLUMN = 100

METHOD_RANK = "rank"
METHOD_FORMULA_EVEN = "formula-even"
METHOD_FORMULA_ODD_PROOF = "formula-odd-proof"
METHODS = (METHOD_RANK, METHOD_FORMULA_EVEN, METHOD_FORMULA_ODD_PROOF)


class ColumnCapExceeded(RuntimeError):
    """Refusal to build a coboundary matrix wider than the cap."""

    def __init__(self, algebra_name: str, q: int, columns: int, cap: int):
        super().__init__(
            "refusing %s at q=%d: matrix has %d columns, cap is %d "
            "(raise the cap to force the computation)"
            % (algebra_name, q, columns, cap))
        self.algebra_name = algebra_name
        self.q = q
        self.columns = columns
        self.cap = cap


class CodomainTooLarge(RuntimeError):
    """Refusal to build a coboundary matrix whose codomain has more rows
    than CODOMAIN_ROWS_PER_COLUMN times the column cap."""

    def __init__(self, algebra_name: str, q: int, rows: int, limit: int):
        super().__init__(
            "refusing %s at q=%d: codomain C^%d has %d rows, limit is %d "
            "(%d times the column cap; raise the cap to force the computation)"
            % (algebra_name, q, q + 1, rows, limit, CODOMAIN_ROWS_PER_COLUMN))
        self.algebra_name = algebra_name
        self.q = q
        self.rows = rows
        self.limit = limit


class ReportInvariantError(ValueError):
    """A CohomologyReport whose fields break its own invariants: a fault
    in the engine, not in the user's input."""


@dataclass(frozen=True)
class CohomologyReport:
    """Dimension bookkeeping for one cohomological degree."""

    algebra_name: str
    q: int
    dim_cochain: int
    dim_cocycles: int
    dim_coboundaries: int
    dim_cohomology: int
    method: str

    def __post_init__(self):
        if self.method not in METHODS:
            raise ReportInvariantError("unknown method %r" % self.method)
        ok = (0 <= self.dim_cohomology
              and 0 <= self.dim_coboundaries
              and self.dim_cocycles <= self.dim_cochain
              and self.dim_cohomology == self.dim_cocycles - self.dim_coboundaries)
        if not ok:
            raise ReportInvariantError("inconsistent dimensions in %r" % (self,))


def _capped_dim(name: str, superdim: Tuple[int, int], q: int, cap: int) -> int:
    """dim C^q of an algebra of superdimension `superdim`, refusing a
    degree wider than the cap."""
    columns = graded_dim(SuperSpaceDims(*superdim), q)
    if columns > cap:
        raise ColumnCapExceeded(name, q, columns, cap)
    return columns


def _check_codomain(name: str, superdim: Tuple[int, int], q: int, cap: int) -> None:
    """Refuse d_q if dim C^{q+1} is over CODOMAIN_ROWS_PER_COLUMN * cap."""
    rows = graded_dim(SuperSpaceDims(*superdim), q + 1)
    limit = CODOMAIN_ROWS_PER_COLUMN * cap
    if rows > limit:
        raise CodomainTooLarge(name, q, rows, limit)


def check_column_cap(name: str, superdim: Tuple[int, int], q_max: int,
                     column_cap: int = DEFAULT_COLUMN_CAP) -> None:
    """Refuse, naming the first degree over the cap, if any degree
    0..q_max of an algebra of superdimension `superdim` is wider than
    `column_cap`; then refuse if the codomain C^{q_max+1} of the last
    matrix has more rows than CODOMAIN_ROWS_PER_COLUMN * column_cap.
    Needs only the superdimension, so a caller can refuse before the
    algebra is built."""
    for q in range(q_max + 1):
        _capped_dim(name, superdim, q, column_cap)
    _check_codomain(name, superdim, q_max, column_cap)


def _checked_rank(algebra: LieSuperalgebra, q: int, cap: int):
    """(dim C^q, rank d_q), refusing oversized matrices."""
    if q < 0:
        return 0, 0
    columns = _capped_dim(algebra.name, algebra.superdim, q, cap)
    dm = differential_matrix(algebra, q)
    codomain = graded_dim(SuperSpaceDims(*algebra.superdim), q + 1)
    if (dm.matrix.cols, dm.matrix.rows) != (columns, codomain):
        raise AssertionError("d_%d has shape %dx%d, not dim C^%d x dim C^%d"
                             % (q, dm.matrix.rows, dm.matrix.cols, q + 1, q))
    return columns, rank(dm.matrix)


def cohomology_dims(algebra: LieSuperalgebra, q: int,
                    column_cap: int = DEFAULT_COLUMN_CAP) -> CohomologyReport:
    """Betti data in a single degree, via exact ranks."""
    if q < 0:
        return CohomologyReport(algebra.name, q, 0, 0, 0, 0, METHOD_RANK)
    # refuse before the basis change, in the order _checked_rank would
    for degree in (q, q - 1):
        if degree >= 0:
            _capped_dim(algebra.name, algebra.superdim, degree, column_cap)
    _check_codomain(algebra.name, algebra.superdim, q, column_cap)
    algebra = adapted_basis(algebra)
    dim_c, rank_q = _checked_rank(algebra, q, column_cap)
    _, rank_prev = _checked_rank(algebra, q - 1, column_cap)
    z = dim_c - rank_q
    return CohomologyReport(algebra.name, q, dim_c, z, rank_prev,
                            z - rank_prev, METHOD_RANK)


def betti_table(algebra: LieSuperalgebra, q_max: int,
                column_cap: int = DEFAULT_COLUMN_CAP) -> List[CohomologyReport]:
    """Betti data for q = 0..q_max, computing each coboundary rank once.

    Every degree is checked against the column cap before any matrix is
    built, so a refusal names the first degree over the cap and costs
    nothing.  The ranks are taken in adapted_basis(algebra), which has
    the same Betti numbers.  Also cross-checks dim H^q = dim Z^q +
    dim Z^{q-1} - dim C^{q-1} in every degree.
    """
    if q_max < 0:
        raise ValueError("q_max must be nonnegative")
    check_column_cap(algebra.name, algebra.superdim, q_max, column_cap)
    algebra = adapted_basis(algebra)
    dim_c = {-1: 0}
    rk = {-1: 0}
    z = {-1: 0}
    for q in range(q_max + 1):
        dim_c[q], rk[q] = _checked_rank(algebra, q, column_cap)
        z[q] = dim_c[q] - rk[q]
    out = []
    for q in range(q_max + 1):
        h = z[q] - rk[q - 1]
        if h != z[q] + z[q - 1] - dim_c[q - 1]:
            raise AssertionError("cocycle/cochain dimension identity failed at q=%d" % q)
        out.append(CohomologyReport(algebra.name, q, dim_c[q], z[q],
                                    rk[q - 1], h, METHOD_RANK))
    return out


def even_formula_report(n: int, m: int, q: int) -> CohomologyReport:
    """Betti data of h_{n,m} in degree q from the closed forms."""
    name, superdim = even_family_shape(n, m)
    dims = SuperSpaceDims(*superdim)
    dim_c = graded_dim(dims, q)
    z = even_cocycle_dim(n, m, q)
    b = graded_dim(dims, q - 1) - even_cocycle_dim(n, m, q - 1)
    return CohomologyReport(name, q, dim_c, z, b,
                            dim_h_even(n, m, q), METHOD_FORMULA_EVEN)


def odd_formula_report(n: int, q: int) -> CohomologyReport:
    """Betti data of h_n in degree q from the closed forms."""
    name, superdim = odd_family_shape(n)
    dims = SuperSpaceDims(*superdim)
    dim_c = graded_dim(dims, q)
    z = odd_cocycle_dim(n, q)
    b = graded_dim(dims, q - 1) - odd_cocycle_dim(n, q - 1)
    return CohomologyReport(name, q, dim_c, z, b,
                            dim_h_odd_proof(n, q), METHOD_FORMULA_ODD_PROOF)
