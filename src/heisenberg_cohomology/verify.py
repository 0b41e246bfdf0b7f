"""Adjudication harness: closed-form formulas versus the rank engine.

verify_family runs a whole (n, m, q) grid, computes Betti numbers from
coboundary ranks, and records one Comparison per grid point per
formula, match or not.  Each formula's checks are filed in grid order,
so its lists joined in formula order come out sorted, with no sort.
Only disagreements of dim_h_even or dim_h_odd_proof count as failures;
the expanded odd-family display is retained verbatim precisely so that
its deviations can be reported rather than hidden.

On h_n each block L^(t) comes as groups of base charge tuples with
their weight series (cohomology._blocks, the rank routes' one block
walk, given h_n's odd centre; on h_1, which has no copies, one group,
the whole of A^t, of series (1,)): the Lefschetz
blocks of powers 2 and 3, which are psi_{(n,2)} and psi_{(n,3)} up to
the sign (-1)^t, are built on each group's keys and compared with l
times the group's L^(t) (_is_multiple) as they are, without the sign,
which changes no kernel and is put on only by the public psi_matrix.
Multiplying by f_{y_i} maps psi's blocks, like L^(t)'s, onto blocks one
degree up of the same kernel (symmetry's docstring), so the kernel of
degree t is the sum over s <= t of W[t - s] times each group of degree
s's kernel, added with the group's rank in one pass over W: each
group's psi blocks are built once for every degree they stand for,
and a faulty psi is still reported
through its own elimination.  Each n owns one orbit listing,
OrbitListing(_Workspace(adapted h_n, q_max + 4), q_max), built as
cohomology._ranks builds its own: the walk reads its keys, and
the psi blocks the d-term table of its workspace (listing.workspace),
whose radix fits psi's rows of degree t + l + 1.

Every refusal of a grid is decided from sizes alone by limits.check_grid
(its MAX_GRID_POINTS, GridTooLarge and the per-point column-cap and psi
codomain checks live there), before any point is computed; the CLI runs
the same check before this module is loaded.  check_grid returns each
point's dimensions dim C^q, and the point takes them as they are: an
even point calls cohomology._betti_table with them, and an odd point
checks its blocks' shapes against them, so no dimension is computed
twice.  No member is validated: the families are Lie superalgebras by
construction, and algebra.require_valid is the door for tables that
come from outside.

A Comparison is a record, a tuple of its six fields (reports._Record),
which the CLI's json writer reads as it is.  A VerifyResult is the one
mutable result: a plain slotted class with a record's repr, equality
within one class and rebuild through its constructor, and no hash.
"""

from __future__ import annotations

import time
from itertools import accumulate
from typing import Dict, List, Optional

from .algebra import adapted_basis, make_heisenberg_even, make_heisenberg_odd
from .cohomology import _betti_table, _blocks
from .differential import _lefschetz_block, _Workspace
from .formulas import dim_h_even, dim_h_odd_displayed, dim_h_odd_proof, ker_psi_dim
from .limits import DEFAULT_COLUMN_CAP, check_grid
from .linalg import RationalMatrix, kernel_dim
from .reports import _Record, _reports
from .symmetry import OrbitListing

FAILING_FORMULAS = ("dim_h_even", "dim_h_odd_proof")
PSI_POWERS = (1, 2, 3)
_PSI_FORMULAS = tuple("ker_psi_dim[l=%d]" % l for l in PSI_POWERS)


class Comparison(_Record):
    """One grid point: a closed form against the rank oracle (m is None
    on the odd family)."""

    __slots__ = ()

    def __new__(cls, formula, n, m, q, formula_value, oracle_value):
        return tuple.__new__(cls, (formula, n, m, q, formula_value, oracle_value))

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


class VerifyResult:
    """One verify_family run.  Unlike the records it is a plain class,
    mutable and so unhashable; its repr, equality within one class and
    rebuild through the constructor are theirs."""

    __slots__ = __match_args__ = ("family", "n_max", "m_max", "q_max", "checks",
                                  "elapsed")
    __hash__ = None

    def __init__(self, family: str, n_max: int, m_max: Optional[int],
                 q_max: int, checks: Optional[List[Comparison]] = None,
                 elapsed: float = 0.0):
        self.family, self.n_max, self.m_max, self.q_max = family, n_max, m_max, q_max
        self.checks = [] if checks is None else checks
        self.elapsed = elapsed

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self.__slots__)

    def __eq__(self, other):
        return other.__class__ is self.__class__ and self._values() == other._values()

    def __repr__(self) -> str:
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % pair for pair in zip(self.__slots__, self._values())))

    def __reduce__(self):
        return type(self), self._values()

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
    scale, and every integer column l times base's.  O(nnz), compared
    in place up to the first difference."""
    if (matrix.rows, matrix.scale, matrix.cols) != (base.rows, base.scale, base.cols):
        return False
    for col, base_col in zip(matrix.columns, base.columns):
        if len(col) != len(base_col):
            return False
        for r, v in base_col.items():
            if col.get(r) != l * v:
                return False
    return True


def verify_family(family: str, n_max: int, m_max: Optional[int] = None,
                  q_max: int = 8,
                  column_cap: int = DEFAULT_COLUMN_CAP) -> VerifyResult:
    """Compare closed forms against ranks on the full grid.

    family 'even': dim_h_even on n=1..n_max, m=1..m_max, q=0..q_max.
    family 'odd': dim_h_odd_proof and dim_h_odd_displayed on
    n=1..n_max, q=0..q_max, plus ker_psi_dim against the kernel of
    psi_{(n,l)} (psi_matrix(t, n, l)) for t=0..q_max and l=1,2,3.

    Each n of the odd family makes one walk over h_n's Lefschetz blocks
    L^(t), t=0..q_max, with one orbit listing, as betti_table does one
    block further: each block is built and eliminated once, its rank
    gives rank d_q for the Betti reports and the kernel of
    psi_{(n,1)} = (-1)^t L^(t).  psi_{(n,2)} and psi_{(n,3)} are built
    on the same keys, group by group, as Lefschetz blocks without their
    sign; one that is exactly l times L^(t) has its kernel, and any
    other gets its own elimination, each group's kernel counted
    W[k] times in degree t + k, W its weight series.

    Every refusal comes first, from sizes alone (limits.check_grid): a
    grid of more than MAX_GRID_POINTS points (GridTooLarge), a q_max
    over MAX_Q_MAX (DegreeLimitExceeded), then every grid point against
    the column cap, in grid order, and on the odd family every psi walk
    against its codomain bound, so an oversized grid is refused before
    anything is computed.  Each point takes the dimensions check_grid
    computed for it, so none is computed twice.
    """
    start = time.perf_counter()
    points = check_grid(family, n_max, m_max, q_max, column_cap)
    # {formula: its checks}, each list in grid order and then by q, so
    # joined by formula they are in (formula, n, m, q) order
    by_formula: Dict[str, List[Comparison]] = {}
    for (n, m), dims in points.items():
        if m is None:
            _odd_point(n, q_max, dims, by_formula)
            continue
        even = by_formula.setdefault("dim_h_even", [])
        for report in _betti_table(make_heisenberg_even(n, m), q_max, column_cap, dims):
            even.append(Comparison("dim_h_even", n, m, report.q,
                                   dim_h_even(n, m, report.q), report.dim_cohomology))
    checks = [c for formula in sorted(by_formula) for c in by_formula[formula]]
    elapsed = time.perf_counter() - start
    return VerifyResult(family, n_max, m_max, q_max, checks, elapsed)


def _odd_point(n: int, q_max: int, dims, by_formula: Dict[str, List[Comparison]]) -> None:
    """Append the checks of h_n, whose dimensions check_grid gave, to
    their formulas' lists in `by_formula`: one block walk over
    t = 0..q_max on one listing, built as cohomology._ranks builds its
    own, and dropped when this returns.  Each group's rank and psi
    kernels are added, in one pass over its weight series W, to every
    degree t + k that W reaches, W[k] times, so degree t's totals are
    whole once the walk has passed it."""
    # the rows of psi_{(n,l)} in degree t have degree t + l + 1
    listing = OrbitListing(_Workspace(adapted_basis(make_heisenberg_odd(n)),
                                      q_max + 1 + max(PSI_POWERS)), q_max)
    workspace = listing.workspace
    z = 2 * n  # h_n's odd centre, its last generator
    top = q_max + 1
    # rank L^(t) and the kernels of psi_{(n,1)}, psi_{(n,2)}, psi_{(n,3)}
    # in degree t, summed over the groups of every degree s <= t
    block_rank, ker1, ker2, ker3 = totals = [[0] * top for _ in range(4)]
    psi_checks = [by_formula.setdefault(name, []) for name in _PSI_FORMULAS]
    for t, groups in _blocks(listing, 0, q_max, dims, z):
        for weight, keys, block, r in groups:
            kernel = block.cols - r
            # psi_{(n,l)} is (-1)^t times the block of power l, and the
            # sign changes no kernel: a block that is l times L^(t) has
            # its kernel, and any other is eliminated
            psi2 = _lefschetz_block(workspace, z, t, 2, keys)
            k2 = kernel if _is_multiple(psi2, block, 2) else kernel_dim(psi2)
            psi3 = _lefschetz_block(workspace, z, t, 3, keys)
            k3 = kernel if _is_multiple(psi3, block, 3) else kernel_dim(psi3)
            for s, w in enumerate(weight[:top - t], t):
                block_rank[s] += w * r
                ker1[s] += w * kernel
                ker2[s] += w * k2
                ker3[s] += w * k3
        want = ker_psi_dim(t, n)
        for name, checks, kernels in zip(_PSI_FORMULAS, psi_checks, totals[1:]):
            checks.append(Comparison(name, n, None, t, want, kernels[t]))
    # rank d_q = sum_{t<q} rank L^(t), and d_{-1} = 0
    rk = {-1: 0, **dict(enumerate(accumulate(block_rank, initial=0)))}
    proof = by_formula.setdefault("dim_h_odd_proof", [])
    displayed = by_formula.setdefault("dim_h_odd_displayed", [])
    for report in _reports(workspace.algebra.name, dims, rk, range(top)):
        q, oracle = report.q, report.dim_cohomology
        proof.append(Comparison("dim_h_odd_proof", n, None, q, dim_h_odd_proof(n, q), oracle))
        displayed.append(Comparison("dim_h_odd_displayed", n, None, q,
                                    dim_h_odd_displayed(n, q), oracle))
