"""Betti numbers from exact ranks of the coboundary matrices.

dim H^q = dim ker d_q - rank d_{q-1}, all over the rationals.
betti_table and cohomology_dims share one preamble (_enter).  It first
runs limits' size refusals, from the superdimension alone: a degree over
MAX_Q_MAX, a matrix wider than the column cap (default 5000 columns)
and a top codomain C^{q+1} over CODOMAIN_ROWS_PER_COLUMN times the cap,
explicit, overridable refusals, not truncations.  Those constants, the
checks and the error types are defined in limits, which loads no engine
module, and stay importable from here.  Then it rewrites the algebra
in a basis adapted to [g, g] (algebra.adapted_basis; the identity on
the built-in families), which keeps every Betti number and makes
dense-basis matrices sparse, and validates that table: one that is not a Lie superalgebra, so d^2 != 0,
raises AlgebraValidationError.  The rewrite and the verdict are kept on
the algebra, so one that parse_algebra or a family constructor just
checked is neither rewritten nor validated again.  Each call owns one
workspace (differential._Workspace) that enumerates each cochain space
it needs once, and is dropped when the call returns or raises.  Every
CohomologyReport, the closed forms' too (even_formula_report,
odd_formula_report), is built here; an inconsistent one raises
ReportInvariantError.

betti_table takes one of two rank routes.  When one odd generator z is
the only bracket target and appears in no bracket (h_n, and any table
of that type once adapted), the z-dual f_z is the only dual with a
nonzero d and d(alpha f_z^l) = +-l (alpha omega) f_z^{l-1} with
omega = d f_z, so d_q splits into the blocks +-l L^(q-l), L^(t) the
multiplication by omega from A^t to A^{t+2} (A: the cochains on the
other duals), and rank d_q = sum_{t<q} rank L^(t).  One walk
(_lefschetz_blocks) builds and eliminates each L^(t) once per table;
verify_family iterates the same walk one block further, and reads the
kernel of psi_{(n,1)} = +-L^(t) off each block's rank.  Every
other algebra, even centres included, has each full d_q built and
eliminated: an even z-dual has no power above 1, so its blocks are
reused by nothing.  The top codomain C^{q+1} is nobody's domain, and
Betti numbers do not depend on how its rows are numbered, so the top
d_q numbers them on first use and C^{q+1} is never enumerated.
"""

from __future__ import annotations

from itertools import chain
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from .algebra import ODD, LieSuperalgebra, _Record, adapted_basis, validate
from .differential import (_coboundary, _lefschetz_block, _RowIndex,
                           _Workspace)
from .formulas import dim_h_even, dim_h_odd_proof, even_cocycle_dim, odd_cocycle_dim
# the size refusals and the error types live in limits, which needs no
# engine module; they stay importable from here
from .limits import (CODOMAIN_ROWS_PER_COLUMN, DEFAULT_COLUMN_CAP, MAX_Q_MAX,
                     AlgebraValidationError, CodomainTooLarge,
                     ColumnCapExceeded, DegreeLimitExceeded,
                     ReportInvariantError, _checked_dims, check_column_cap,
                     check_degree, even_family_shape, graded_dim,
                     odd_family_shape)
from .linalg import RationalMatrix, rank

METHOD_RANK = "rank"
METHOD_FORMULA_EVEN = "formula-even"
METHOD_FORMULA_ODD_PROOF = "formula-odd-proof"
METHODS = (METHOD_RANK, METHOD_FORMULA_EVEN, METHOD_FORMULA_ODD_PROOF)


class CohomologyReport(_Record):
    """Dimension bookkeeping for one cohomological degree; the
    constructor raises ReportInvariantError on inconsistent fields."""

    __slots__ = ("algebra_name", "q", "dim_cochain", "dim_cocycles",
                 "dim_coboundaries", "dim_cohomology", "method")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if self.method not in METHODS:
            raise ReportInvariantError("unknown method %r" % self.method)
        ok = (0 <= self.dim_cohomology
              and 0 <= self.dim_coboundaries
              and self.dim_cocycles <= self.dim_cochain
              and self.dim_cohomology == self.dim_cocycles - self.dim_coboundaries)
        if not ok:
            raise ReportInvariantError("inconsistent dimensions in %r" % (self,))


def _enter(algebra: LieSuperalgebra, top: int, degrees: Iterable[int],
           cap: int) -> Tuple[LieSuperalgebra, Dict[int, int], _Workspace]:
    """The one way into the rank engine: the size refusals, then
    adapted_basis, then validate on that sparse table, which fails
    exactly when the input's does; the error lists validate(algebra).
    The verdict is kept on the algebra, so it is validated once.
    Returns the adapted algebra, _checked_dims' dimensions and the
    call's workspace."""
    dims = _checked_dims(algebra.name, algebra.superdim, top, degrees, cap)
    adapted = adapted_basis(algebra)
    if "valid" not in algebra._derived:
        algebra._derived["valid"] = not validate(adapted)
    if not algebra._derived["valid"]:
        raise AlgebraValidationError(validate(algebra))
    return adapted, dims, _Workspace()


def _checked_rank(algebra: LieSuperalgebra, q: int, dims: Dict[int, int],
                  workspace: _Workspace) -> int:
    """rank d_q, its shape checked against the preamble's dimensions.

    dims runs up to the top degree's codomain (_checked_dims).  Below
    the top degree C^{q+1} is d_{q+1}'s domain, enumerated anyway,
    and its canonical index numbers the rows.  The top codomain is
    nobody's domain: its rows are numbered on first use, so it is never
    enumerated, and the rows d_q reaches must fit in dim C^{q+1}.
    """
    if q < 0:
        return 0
    domain, _ = workspace.space(algebra.superdim, q)
    if q + 1 < max(dims):
        codomain, row_index = workspace.space(algebra.superdim, q + 1)
        matrix = _coboundary(algebra, domain, row_index, len(codomain))
    else:
        row_index = _RowIndex()
        matrix = _coboundary(algebra, domain, row_index, dims[q + 1])
        if len(row_index) > dims[q + 1]:
            raise AssertionError("d_%d reaches %d rows, more than dim C^%d = %d"
                                 % (q, len(row_index), q + 1, dims[q + 1]))
    if (matrix.cols, matrix.rows) != (dims[q], dims[q + 1]):
        raise AssertionError("d_%d has shape %dx%d, not dim C^%d x dim C^%d"
                             % (q, matrix.rows, matrix.cols, q + 1, q))
    return rank(matrix)


def _odd_centre(algebra: LieSuperalgebra) -> Optional[int]:
    """The odd generator z that is the only nonzero bracket target and
    appears in no nonzero bracket, or None: then the z-dual is the only
    dual with a nonzero d, and no d-term contains it."""
    targets = {k for t in algebra.brackets.values() for k in t}
    if len(targets) != 1:
        return None
    (z,) = targets
    if algebra.parity(z) != ODD or any(z in pair for pair in algebra.brackets):
        return None
    return z


def _lefschetz_blocks(algebra: LieSuperalgebra, z: int, dims: Dict[int, int],
                      t_end: int, workspace: _Workspace
                      ) -> Iterator[Tuple[int, RationalMatrix, int]]:
    """(t, L^(t), rank L^(t)) for t = 0..t_end-1, each block built and
    eliminated once, its shape and dim C^q = sum_l dim A^{q-l} checked
    against the preamble's dimensions.

    The even t come first, then the odd t, each upward: block t's
    codomain is block t+2's domain, so each space of A is enumerated
    once.  A block is not kept past its t.
    """
    n0, n1 = algebra.superdim
    space = (n0, n1 - 1)
    dim_a = {s: graded_dim(space, s) for s in range(t_end + 2)}
    for q in range(max(dims) + 1):
        if sum(dim_a[q - l] for l in range(q + 1)) != dims[q]:
            raise AssertionError("dim C^%d is not the sum of dim A^(%d-l) f_z^l"
                                 % (q, q))
    for t in chain(range(0, t_end, 2), range(1, t_end, 2)):
        block = _lefschetz_block(algebra, z, t, 1, workspace)
        if (block.rows, block.cols) != (dim_a[t + 2], dim_a[t]):
            raise AssertionError("L^(%d) has shape %dx%d, not dim A^%d x dim A^%d"
                                 % (t, block.rows, block.cols, t + 2, t))
        yield t, block, rank(block)


def _block_ranks(block_rank: Dict[int, int], q_max: int) -> Dict[int, int]:
    """{q: rank d_q} for q = -1..q_max as sum_{t<q} rank L^(t)."""
    rk = {-1: 0, 0: 0}
    for q in range(1, q_max + 1):
        rk[q] = rk[q - 1] + block_rank[q - 1]
    return rk


def _reports(name: str, dims: Dict[int, int],
             rk: Dict[int, int]) -> List[CohomologyReport]:
    """The rank route's reports for q = 0..max(rk), from dim C^q and
    rank d_q."""
    out = []
    for q in range(max(rk) + 1):
        z = dims[q] - rk[q]
        out.append(CohomologyReport(name, q, dims[q], z, rk[q - 1],
                                    z - rk[q - 1], METHOD_RANK))
    return out


def cohomology_dims(algebra: LieSuperalgebra, q: int,
                    column_cap: int = DEFAULT_COLUMN_CAP) -> CohomologyReport:
    """Betti data in a single degree, via exact ranks."""
    if q < 0:
        return CohomologyReport(algebra.name, q, 0, 0, 0, 0, METHOD_RANK)
    algebra, dims, workspace = _enter(algebra, q, (q, q - 1), column_cap)
    # d_{q-1} first: its codomain C^q is d_q's domain, already enumerated;
    # d_q is the top degree, so C^{q+1} is not enumerated
    b = _checked_rank(algebra, q - 1, dims, workspace)
    z = dims[q] - _checked_rank(algebra, q, dims, workspace)
    return CohomologyReport(algebra.name, q, dims[q], z, b, z - b, METHOD_RANK)


def betti_table(algebra: LieSuperalgebra, q_max: int,
                column_cap: int = DEFAULT_COLUMN_CAP) -> List[CohomologyReport]:
    """Betti data for q = 0..q_max, computing each coboundary rank once.

    Every degree is checked against the column cap before any matrix is
    built, so a refusal names the first degree over the cap and costs
    nothing.  The ranks are taken in adapted_basis(algebra), which has
    the same Betti numbers: from its Lefschetz blocks when it has an odd
    centre spanning [g, g] (_odd_centre), from each full d_q otherwise.
    The cochain spaces built on the way live in the call's workspace.
    """
    if q_max < 0:
        raise ValueError("q_max must be nonnegative")
    algebra, dims, workspace = _enter(algebra, q_max, range(q_max + 1), column_cap)
    z = _odd_centre(algebra)
    if z is None:
        rk = {q: _checked_rank(algebra, q, dims, workspace)
              for q in range(-1, q_max + 1)}
    else:
        blocks = _lefschetz_blocks(algebra, z, dims, q_max, workspace)
        rk = _block_ranks({t: r for t, _, r in blocks}, q_max)
    return _reports(algebra.name, dims, rk)


def _formula_report(shape: Tuple[str, Tuple[int, int]],
                    cocycle_dim: Callable[[int], int],
                    h: int, method: str, q: int) -> CohomologyReport:
    """Betti data in degree q of the family member of this shape from its
    closed forms: cocycle_dim(p) is dim Z^p and h is dim H^q."""
    name, superdim = shape
    b = graded_dim(superdim, q - 1) - cocycle_dim(q - 1)
    return CohomologyReport(name, q, graded_dim(superdim, q), cocycle_dim(q), b,
                            h, method)


def even_formula_report(n: int, m: int, q: int) -> CohomologyReport:
    """Betti data of h_{n,m} in degree q from the closed forms."""
    return _formula_report(even_family_shape(n, m),
                           lambda p: even_cocycle_dim(n, m, p),
                           dim_h_even(n, m, q), METHOD_FORMULA_EVEN, q)


def odd_formula_report(n: int, q: int) -> CohomologyReport:
    """Betti data of h_n in degree q from the closed forms."""
    return _formula_report(odd_family_shape(n), lambda p: odd_cocycle_dim(n, p),
                           dim_h_odd_proof(n, q), METHOD_FORMULA_ODD_PROOF, q)
