"""Betti numbers from exact ranks of the coboundary matrices.

dim H^q = dim ker d_q - rank d_{q-1}, all over the rationals.
betti_table and cohomology_dims share one preamble (_enter).  It first
refuses, from the superdimension alone, a degree over MAX_Q_MAX, a
matrix wider than the column cap (default 5000 columns) and a top
codomain, enumerated only to number rows, over CODOMAIN_ROWS_PER_COLUMN
times the cap: explicit, overridable refusals, not truncations.  Then
it rewrites the algebra in a basis adapted to [g, g]
(algebra.adapted_basis; the identity on the built-in families), which
keeps every Betti number and makes dense-basis matrices sparse, and
validates that table: one that is not a Lie superalgebra, so d^2 != 0,
raises AlgebraValidationError.  Every CohomologyReport, the closed
forms' too (even_formula_report, odd_formula_report), is built here; an
inconsistent one raises ReportInvariantError.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

from .algebra import (AlgebraValidationError, LieSuperalgebra, adapted_basis,
                      even_family_shape, odd_family_shape, validate)
from .differential import _cochain_space, differential_matrix
from .formulas import dim_h_even, dim_h_odd_proof, even_cocycle_dim, odd_cocycle_dim
from .linalg import rank
from .superexterior import SuperSpaceDims, graded_dim

DEFAULT_COLUMN_CAP = 5000

# Largest degree the engine accepts.  The column cap bounds the width of
# each degree, not how many degrees there are: with at most one odd
# generator dim C^q stops growing, so the cap never refuses, and the
# closed forms cost O(q^4) per table.  Every test, demo and benchmark
# degree is far below it.
MAX_Q_MAX = 100

# The codomain C^{q+1} of the top degree is enumerated to number rows but
# is nobody's domain, so the column cap does not bound it: it is refused
# beyond this many rows per column of the cap (500,000 at the default).
CODOMAIN_ROWS_PER_COLUMN = 100

METHOD_RANK = "rank"
METHOD_FORMULA_EVEN = "formula-even"
METHOD_FORMULA_ODD_PROOF = "formula-odd-proof"
METHODS = (METHOD_RANK, METHOD_FORMULA_EVEN, METHOD_FORMULA_ODD_PROOF)


class DegreeLimitExceeded(RuntimeError):
    """Refusal of a degree over MAX_Q_MAX."""


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


def check_degree(q_max: int) -> None:
    """Refuse a top degree over MAX_Q_MAX, in O(1)."""
    if q_max > MAX_Q_MAX:
        raise DegreeLimitExceeded("refusing --q-max %d, limit is %d"
                                  % (q_max, MAX_Q_MAX))


def _checked_dims(name: str, superdim: Tuple[int, int], top: int,
                  degrees: Iterable[int], cap: int) -> Dict[int, int]:
    """{q: dim C^q} for -1, `degrees` and top + 1, after refusing top over
    MAX_Q_MAX, each of `degrees` (in order) over the cap, and C^{top+1}
    over CODOMAIN_ROWS_PER_COLUMN * cap."""
    check_degree(top)
    space = SuperSpaceDims(*superdim)
    dims = {-1: 0}
    for q in degrees:
        dims[q] = graded_dim(space, q)
        if dims[q] > cap:
            raise ColumnCapExceeded(name, q, dims[q], cap)
    rows = dims[top + 1] = graded_dim(space, top + 1)
    limit = CODOMAIN_ROWS_PER_COLUMN * cap
    if rows > limit:
        raise CodomainTooLarge(name, top, rows, limit)
    return dims


def check_column_cap(name: str, superdim: Tuple[int, int], q_max: int,
                     column_cap: int = DEFAULT_COLUMN_CAP) -> None:
    """betti_table's size refusals for degrees 0..q_max (the first degree
    over the cap is named).  Needs only the superdimension, so a caller
    can refuse before the algebra is built."""
    _checked_dims(name, superdim, q_max, range(q_max + 1), column_cap)


def _enter(algebra: LieSuperalgebra, top: int, degrees: Iterable[int],
           cap: int) -> Tuple[LieSuperalgebra, Dict[int, int]]:
    """The one way into the rank engine: the size refusals, then
    adapted_basis, then validate on that sparse table, which fails
    exactly when the input's does; the error lists validate(algebra).
    Returns the adapted algebra and _checked_dims' dimensions."""
    dims = _checked_dims(algebra.name, algebra.superdim, top, degrees, cap)
    adapted = adapted_basis(algebra)
    if validate(adapted):
        raise AlgebraValidationError(validate(algebra))
    return adapted, dims


def _checked_rank(algebra: LieSuperalgebra, q: int, dims: Dict[int, int]) -> int:
    """rank d_q, its shape checked against the preamble's dimensions."""
    if q < 0:
        return 0
    dm = differential_matrix(algebra, q)
    if (dm.matrix.cols, dm.matrix.rows) != (dims[q], dims[q + 1]):
        raise AssertionError("d_%d has shape %dx%d, not dim C^%d x dim C^%d"
                             % (q, dm.matrix.rows, dm.matrix.cols, q + 1, q))
    return rank(dm.matrix)


def cohomology_dims(algebra: LieSuperalgebra, q: int,
                    column_cap: int = DEFAULT_COLUMN_CAP) -> CohomologyReport:
    """Betti data in a single degree, via exact ranks."""
    if q < 0:
        return CohomologyReport(algebra.name, q, 0, 0, 0, 0, METHOD_RANK)
    try:
        algebra, dims = _enter(algebra, q, (q, q - 1), column_cap)
        z = dims[q] - _checked_rank(algebra, q, dims)
        b = _checked_rank(algebra, q - 1, dims)
    finally:
        _cochain_space.cache_clear()
    return CohomologyReport(algebra.name, q, dims[q], z, b, z - b, METHOD_RANK)


def betti_table(algebra: LieSuperalgebra, q_max: int,
                column_cap: int = DEFAULT_COLUMN_CAP) -> List[CohomologyReport]:
    """Betti data for q = 0..q_max, computing each coboundary rank once.

    Every degree is checked against the column cap before any matrix is
    built, so a refusal names the first degree over the cap and costs
    nothing.  The ranks are taken in adapted_basis(algebra), which has
    the same Betti numbers.  The cochain spaces built on the way are
    released when the call returns.  Also cross-checks dim H^q =
    dim Z^q + dim Z^{q-1} - dim C^{q-1} in every degree.
    """
    if q_max < 0:
        raise ValueError("q_max must be nonnegative")
    try:
        algebra, dim_c = _enter(algebra, q_max, range(q_max + 1), column_cap)
        rk = {q: _checked_rank(algebra, q, dim_c) for q in range(-1, q_max + 1)}
    finally:
        _cochain_space.cache_clear()
    z = {q: dim_c[q] - rk[q] for q in rk}
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
