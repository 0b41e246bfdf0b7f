"""Adjudication harness: closed-form formulas versus the rank engine.

verify_family runs a whole (n, m, q) grid, computes Betti numbers from
coboundary ranks, and records one Comparison per grid point per
formula, match or not.  Only disagreements of dim_h_even or
dim_h_odd_proof count as failures; the expanded odd-family display is
retained verbatim precisely so that its deviations can be reported
rather than hidden.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import product
from typing import List, Optional

from .algebra import (even_family_shape, make_heisenberg_even,
                      make_heisenberg_odd, odd_family_shape)
from .cohomology import DEFAULT_COLUMN_CAP, betti_table, check_column_cap
from .differential import _cochain_space, psi_matrix
from .formulas import dim_h_even, dim_h_odd_displayed, dim_h_odd_proof, ker_psi_dim
from .linalg import RationalMatrix, kernel_dim

FAILING_FORMULAS = ("dim_h_even", "dim_h_odd_proof")
PSI_POWERS = (1, 2, 3)

# Largest grid verify_family accepts, in (n, m) points: n_max * m_max for
# the even family, n_max for the odd one.  Far above any grid the
# closed forms need checking on, and small enough that the per-point
# column-cap pre-check stays instant.
MAX_GRID_POINTS = 1000


class GridTooLarge(RuntimeError):
    """Refusal to walk a verify grid with more points than the limit."""

    def __init__(self, points: int, limit: int):
        super().__init__("refusing a verify grid of %d points, limit is %d"
                         % (points, limit))
        self.points = points
        self.limit = limit


@dataclass(frozen=True)
class Comparison:
    """One grid point: a closed form against the rank oracle."""

    formula: str
    n: int
    m: Optional[int]
    q: int
    formula_value: int
    oracle_value: int

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


@dataclass
class VerifyResult:
    family: str
    n_max: int
    m_max: Optional[int]
    q_max: int
    checks: List[Comparison] = field(default_factory=list)
    elapsed: float = 0.0

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


def check_grid(family: str, n_max: int, m_max: Optional[int],
               q_max: int) -> None:
    """The O(1) checks on verify_family's arguments: ValueError for a
    bad grid, then GridTooLarge for one of more than MAX_GRID_POINTS."""
    if n_max < 1 or q_max < 0:
        raise ValueError("need n_max >= 1 and q_max >= 0")
    if family == "even":
        if m_max is None or m_max < 1:
            raise ValueError("family 'even' needs m_max >= 1")
    elif family == "odd":
        if m_max is not None:
            raise ValueError("family 'odd' takes no m_max")
    else:
        raise ValueError("family must be 'even' or 'odd', got %r" % family)
    points = n_max * (m_max or 1)
    if points > MAX_GRID_POINTS:
        raise GridTooLarge(points, MAX_GRID_POINTS)


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
    psi_matrix(t, n, l) for t=0..q_max and l=1,2,3.  Every psi_matrix is
    built; only l=1 is eliminated when the others are exactly l times
    it, and any that is not gets its own elimination.

    A grid of more than MAX_GRID_POINTS points is refused from its size
    alone (GridTooLarge); then every grid point is checked against the
    column cap, in grid order, before anything is computed, so an
    oversized grid is refused at once.
    """
    start = time.perf_counter()
    check_grid(family, n_max, m_max, q_max)
    checks: List[Comparison] = []
    try:
        if family == "even":
            grid = (range(1, n_max + 1), range(1, m_max + 1))
            for n, m in product(*grid):
                check_column_cap(*even_family_shape(n, m), q_max, column_cap)
            for n, m in product(*grid):
                for report in betti_table(make_heisenberg_even(n, m), q_max, column_cap):
                    checks.append(Comparison("dim_h_even", n, m, report.q,
                                             dim_h_even(n, m, report.q),
                                             report.dim_cohomology))
        else:
            for n in range(1, n_max + 1):
                check_column_cap(*odd_family_shape(n), q_max, column_cap)
            for n in range(1, n_max + 1):
                for report in betti_table(make_heisenberg_odd(n), q_max, column_cap):
                    oracle = report.dim_cohomology
                    checks.append(Comparison("dim_h_odd_proof", n, None, report.q,
                                             dim_h_odd_proof(n, report.q), oracle))
                    checks.append(Comparison("dim_h_odd_displayed", n, None, report.q,
                                             dim_h_odd_displayed(n, report.q), oracle))
                for t in range(q_max + 1):
                    want = ker_psi_dim(t, n)
                    base = psi_matrix(t, n, 1)
                    base_kernel = kernel_dim(base)
                    for l in PSI_POWERS:
                        psi = base if l == 1 else psi_matrix(t, n, l)
                        # psi_{(n,l)} = l * psi_{(n,1)}: equal matrices have
                        # equal kernels, and any other matrix is eliminated
                        same = psi is base or _is_multiple(psi, base, l)
                        got = base_kernel if same else kernel_dim(psi)
                        checks.append(Comparison("ker_psi_dim[l=%d]" % l, n, None,
                                                 t, want, got))
    finally:
        _cochain_space.cache_clear()
    checks.sort(key=lambda c: (c.formula, c.n, c.m or 0, c.q))
    elapsed = time.perf_counter() - start
    return VerifyResult(family, n_max, m_max, q_max, checks, elapsed)
