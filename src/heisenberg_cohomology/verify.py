"""Adjudication harness: closed-form formulas versus the rank engine.

verify_family runs a whole (n, m, q) grid, computes Betti numbers from
coboundary ranks, and records one Comparison per grid point per
formula, match or not.  Only disagreements of dim_h_even or
dim_h_odd_proof count as failures; the expanded odd-family display is
retained verbatim precisely so that its deviations can be reported
rather than hidden.

Every refusal of a grid is decided from sizes alone by limits.check_grid
(its MAX_GRID_POINTS, GridTooLarge and the per-point column-cap and psi
codomain checks live there), before any point is computed; the CLI runs
the same check before this module is loaded.
"""

from __future__ import annotations

import time
from itertools import product
from typing import List, Optional

from .algebra import _Record, make_heisenberg_even, make_heisenberg_odd
from .cohomology import (_block_ranks, _enter, _lefschetz_blocks, _reports,
                         betti_table)
from .differential import _lefschetz_block, _psi
from .formulas import dim_h_even, dim_h_odd_displayed, dim_h_odd_proof, ker_psi_dim
# the grid's refusals live in limits, which needs no engine module, so
# the CLI runs them before this module is loaded; they stay importable
# from here
from .limits import (DEFAULT_COLUMN_CAP, MAX_GRID_POINTS, GridTooLarge,
                     _check_psi_codomain, check_grid)
from .linalg import RationalMatrix, kernel_dim

FAILING_FORMULAS = ("dim_h_even", "dim_h_odd_proof")
PSI_POWERS = (1, 2, 3)


class Comparison(_Record):
    """One grid point: a closed form against the rank oracle (m is None
    on the odd family)."""

    __slots__ = ("formula", "n", "m", "q", "formula_value", "oracle_value")

    @property
    def ok(self) -> bool:
        return self.formula_value == self.oracle_value

    def describe(self) -> str:
        where = "n=%d" % self.n
        if self.m is not None:
            where += " m=%d" % self.m
        status = "ok" if self.ok else "MISMATCH"
        return "%s %s q=%d: formula=%d oracle=%d %s" % (
            self.formula, where, self.q, self.formula_value,
            self.oracle_value, status)


class VerifyResult(_Record):
    """One verify_family run; unlike the other records it is mutable,
    and so unhashable."""

    __slots__ = ("family", "n_max", "m_max", "q_max", "checks", "elapsed")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, family: str, n_max: int, m_max: Optional[int],
                 q_max: int, checks: Optional[List[Comparison]] = None,
                 elapsed: float = 0.0):
        super().__init__(family, n_max, m_max, q_max,
                         [] if checks is None else checks, elapsed)

    @property
    def mismatches(self) -> List[Comparison]:
        return [c for c in self.checks if not c.ok]

    @property
    def failures(self) -> List[Comparison]:
        """Mismatches that make the run fail."""
        return [c for c in self.mismatches if c.formula in FAILING_FORMULAS]

    @property
    def deviations(self) -> List[Comparison]:
        """Mismatches that are reported but tolerated (displayed form)."""
        return [c for c in self.mismatches if c.formula not in FAILING_FORMULAS]

    def ok(self) -> bool:
        return not self.failures


def _is_multiple(matrix: RationalMatrix, base: RationalMatrix, l: int) -> bool:
    """Whether `matrix` is stored as l times `base`: the same rows and
    scale, and every integer column l times base's.  O(nnz)."""
    return (matrix.rows == base.rows and matrix.scale == base.scale
            and matrix.columns == [{r: l * v for r, v in col.items()}
                                   for col in base.columns])


def verify_family(family: str, n_max: int, m_max: Optional[int] = None,
                  q_max: int = 8,
                  column_cap: int = DEFAULT_COLUMN_CAP) -> VerifyResult:
    """Compare closed forms against ranks on the full grid.

    family 'even': dim_h_even on n=1..n_max, m=1..m_max, q=0..q_max.
    family 'odd': dim_h_odd_proof and dim_h_odd_displayed on
    n=1..n_max, q=0..q_max, plus ker_psi_dim against the kernel of
    psi_{(n,l)} (psi_matrix(t, n, l)) for t=0..q_max and l=1,2,3.

    Each n of the odd family makes one walk over h_n's Lefschetz blocks
    L^(t), t=0..q_max, with one workspace, as betti_table does one
    block further: each block is built and eliminated once, its rank
    gives rank d_q for the Betti reports and the kernel of
    psi_{(n,1)} = (-1)^t L^(t).  psi_{(n,2)} and psi_{(n,3)} are built
    on the same spaces; one that is exactly l times psi_{(n,1)} has its
    kernel, and any other gets its own elimination.

    Every refusal comes first, from sizes alone (limits.check_grid): a
    grid of more than MAX_GRID_POINTS points (GridTooLarge), a q_max
    over MAX_Q_MAX (DegreeLimitExceeded), then every grid point against
    the column cap, in grid order, and on the odd family every psi walk
    against its codomain bound, so an oversized grid is refused before
    anything is computed.
    """
    start = time.perf_counter()
    check_grid(family, n_max, m_max, q_max, column_cap)
    checks: List[Comparison] = []
    if family == "even":
        for n, m in product(range(1, n_max + 1), range(1, m_max + 1)):
            for report in betti_table(make_heisenberg_even(n, m), q_max, column_cap):
                checks.append(Comparison("dim_h_even", n, m, report.q,
                                         dim_h_even(n, m, report.q),
                                         report.dim_cohomology))
    else:
        for n in range(1, n_max + 1):
            checks.extend(_odd_point(n, q_max, column_cap))
    checks.sort(key=lambda c: (c.formula, c.n, c.m or 0, c.q))
    elapsed = time.perf_counter() - start
    return VerifyResult(family, n_max, m_max, q_max, checks, elapsed)


def _odd_point(n: int, q_max: int, column_cap: int) -> List[Comparison]:
    """The checks of h_n: one block walk over t = 0..q_max on one
    workspace, dropped when this returns."""
    algebra, dims, workspace = _enter(make_heisenberg_odd(n), q_max,
                                      range(q_max + 1), column_cap)
    z = 2 * n  # h_n's odd centre, its last generator
    checks = []
    block_rank = {}
    for t, block, r in _lefschetz_blocks(algebra, z, dims, q_max + 1, workspace):
        block_rank[t] = r
        want = ker_psi_dim(t, n)
        base = _psi(block, t)
        for l in PSI_POWERS:
            psi = (base if l == 1
                   else _psi(_lefschetz_block(algebra, z, t, l, workspace), t))
            # psi_{(n,l)} = l * psi_{(n,1)}: equal matrices have equal
            # kernels, and any other matrix is eliminated
            same = psi is base or _is_multiple(psi, base, l)
            got = block.cols - r if same else kernel_dim(psi)
            checks.append(Comparison("ker_psi_dim[l=%d]" % l, n, None, t, want, got))
    for report in _reports(algebra.name, dims, _block_ranks(block_rank, q_max)):
        oracle = report.dim_cohomology
        checks.append(Comparison("dim_h_odd_proof", n, None, report.q,
                                 dim_h_odd_proof(n, report.q), oracle))
        checks.append(Comparison("dim_h_odd_displayed", n, None, report.q,
                                 dim_h_odd_displayed(n, report.q), oracle))
    return checks
