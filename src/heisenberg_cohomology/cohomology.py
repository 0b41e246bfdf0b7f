"""Betti numbers from exact ranks of the coboundary matrices.

dim H^q = dim ker d_q - rank d_{q-1}, all over the rationals.
betti_table and cohomology_dims open the same way.  First
limits._checked_dims runs the size refusals from the superdimension
alone (a degree over MAX_Q_MAX, a matrix wider than the column cap,
default 5000 columns, and a top codomain C^{q+1} over
CODOMAIN_ROWS_PER_COLUMN times the cap: explicit, overridable
refusals, not truncations) and returns the dimensions dim C^q that
every later shape check reads.  Those constants, the checks and the
error types are defined in limits, which loads no engine module.  Then
algebra.require_valid, the one validity door, validates the
algebra rewritten in a basis adapted to [g, g]
(algebra.adapted_basis; the identity on the built-in families), which
keeps every Betti number and makes dense-basis matrices sparse: a
table that is not a Lie superalgebra, so d^2 != 0, raises
AlgebraValidationError.  The rewrite and the verdict are kept on the
algebra, so one that parse_algebra just checked is neither rewritten
nor validated again.  A table the engine builds for itself is not
validated, since the built-in families are Lie superalgebras by
construction, and takes its dimensions from a check made before:
limits.check_grid refused a whole verify grid first and hands each
point its dimensions, so an even point calls _betti_table with them,
and an odd point builds its listing as _ranks does; a direct-sum
part takes those of limits.check_column_cap (below).  Each call owns
one listing, OrbitListing(_Workspace(adapted, degree), top): the
workspace (differential._Workspace) is the d-term table of the adapted
algebra, and the listing (symmetry.OrbitListing), built above it,
lists the cochains the call needs once and keeps the workspace as
listing.workspace.  _ranks builds it and hands it to the one block
walk, _blocks, which takes the listing alone; it is dropped when the
call returns or raises.
The reports are built by reports._reports, the one builder of the rank
route's reports; an inconsistent one raises ReportInvariantError.  This
module imports nothing from formulas: the closed forms' reports are
built beside them (formulas.even_formula_report, odd_formula_report).

The table picks one of two rank routes, for every caller: _ranks
finds its odd centre itself.  When one odd generator z is
the only bracket target and appears in no bracket (h_n, and any table
of that type once adapted; differential._odd_centre finds z, and
elements.lefschetz_block checks the same precondition), the z-dual f_z
is the only dual with a nonzero d and d(alpha f_z^l) = +-l (alpha omega) f_z^{l-1} with
omega = d f_z, so d_q splits into the blocks +-l L^(q-l), L^(t) the
multiplication by omega from A^t to A^{t+2} (A: the cochains on the
other duals), and rank d_q = sum_{t<q} rank L^(t).  Given z, the block
walk (_blocks) builds and eliminates each L^(t) once per table, and
_ranks takes the prefix sums; verify_family iterates the same walk one
block further, and reads the kernel of psi_{(n,1)} = +-L^(t) off each
block's rank.  Every other algebra, even centres included, has each
full d_q built and eliminated: an even z-dual has no power above 1, so
its blocks are reused by nothing.  cohomology_dims(q) takes the same
route as betti_table: given z it lists A^0..A^(q-1) and ranks each
L^(t), since rank d_q is their prefix sum.  No block of that walk is
over the cap: with an odd generator dim C^t grows with t, so each A^t
with t < q has at most dim C^(q-1) keys, which the entry checked.

Both routes, and verify's psi groups, walk their blocks in one
generator, _blocks: it lists the cochains through the call's
OrbitListing.orbits alone, one block per stack, and builds d, or L^(t)
given z, on each, as one differential._coboundary call on the call's
workspace (through differential._lefschetz_block given z), the one
path into the kernel that the public builders in elements take too.
A table with classes of identical copies
(symmetry.copy_classes; h_n, and h_{n,m} with n or m at least 2) is
ranked one block per orbit: d keeps each copy's charge, a permutation
of copies, or of one copy's generators by its class's local group,
maps the block of one charge tuple onto another's.  A shift does too,
one degree up: for y an odd generator of a copy that is no bracket
target, f_y is a cocycle and multiplying by it is injective, so
f_y maps a block of degree q - 1 onto one of degree q of the same rank
(symmetry's docstring gives the gate).  So each stack of base charge
tuples carries a weight series W, |orbit| times its copies' series of
shifts, and rank d_q (or rank L^(t)) = sum over t <= q of
sum_W W[q - t] rank(block of degree t): each base block is
built and ranked once, for every degree it stands for.  A table
without shifts has W = (|orbit|,), and one without copies one stack of
W = (1,) per degree, its canonical space.  A rank does not depend on
how the rows are numbered, so every block, of d_q or of L^(t), numbers
its rows on first use: no codomain is listed, and a call lists only
the degrees whose d it ranks, and the listing's reach below them, the
most shifts a stack stands for (cohomology_dims on the full route:
C^{q-1} and C^q on a table without shifts).  _blocks checks every shape:
sum W[q - t] columns = dim C^q (or dim A^q), and sum W[q - t] rows at
most the codomain's dimension.  Refusals are decided from the full
sizes before, so no refusal depends on the split.

Before either route, betti_table and cohomology_dims try to split a
two-step adapted table into ideals (_split_ranks, whose O(brackets)
gate every built-in family member fails).  directsum.split searches
for the parts, checks what it finds exactly, and returns each part's
type (dim K_s^0, dim K_s^1, parity of its centre).  The type alone
fixes a part's Betti numbers, in three steps (directsum's docstring
gives them in full):

1. R, the free radical, is the full common radical of the forms, so a
   part's form beta_s is nondegenerate on K_s.
2. Over C, nondegenerate forms are classified by dimension and parity,
   so the part tensored with C is h_{n,m} (x) C (2n = dim K_s^0,
   m = dim K_s^1) for an even centre, h_n (x) C (n = dim K_s^0) for an
   odd one.
3. A rank does not depend on the field.

So each distinct type is ranked once per call, by _ranks on its
canonical table (make_heisenberg_odd, or algebra._heisenberg_even,
where n or m may be 0) with the dimensions limits.check_column_cap
gives it, and the Betti numbers are the Kunneth product of the parts'
and R's.  That check cannot refuse: a part's C^q is never larger than
the whole table's, which the entry checked.  A canonical table is its
own adapted basis and fails the split gate, so a part is ranked with
no rewrite, no second gate and no reports: its Betti numbers are read
off its ranks.  A split not found, or failing the check, sends the
table down the routes above: it costs speed, never an answer.
Refusals come from the full sizes, before the split.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Dict, Iterator, List, Optional, Tuple

from .algebra import (LieSuperalgebra, _heisenberg_even, _targets, adapted_basis,
                      make_heisenberg_odd, require_valid)
from .differential import _coboundary, _lefschetz_block, _odd_centre, _Workspace
from .symmetry import OrbitListing
from .limits import DEFAULT_COLUMN_CAP, _checked_dims, _graded_dims, check_column_cap
from .linalg import rank
from .reports import METHOD_RANK, CohomologyReport, _reports

def _blocks(listing: OrbitListing, low: int, high: int, dims: Dict[int, int],
            z: Optional[int] = None) -> Iterator[Tuple[int, list]]:
    """(t, groups) for t = max(0, low - listing.reach)..high: the one
    block walk of both rank routes and of verify.  The groups of degree
    t are (weight series, keys, block, rank of the block), one per stack
    of listing.orbits(t, z); a block is d on the stack's keys, from C^t
    to C^(t+1), or with the odd centre z the Lefschetz block L^(t), from
    A^t to A^(t+2).  Each block is built, its rows numbered on first
    use, and ranked once, and is not kept past its t.  Before a degree
    from low on is ranked, its shape is checked against the preamble's
    dimensions: the columns summed with their weights must be dim C^t
    (dim A^t), and the rows, those they reach, at most the codomain's;
    with z, dim C^q = sum_l dim A^(q-l) is checked first.  Each block
    adds W[k] times its columns and rows to degree t + k, for every k
    that reaches high, in one pass over W.  The message is formatted
    only when a check fails.

    dim A^t is counted here, from A's superdimension, though it is also
    dim C^t - dim C^(t-1) of `dims` when the odd centre's powers are
    unbounded: the identity check compares two counts made
    independently, and one derived from the other would make it pass
    by construction."""
    workspace = listing.workspace
    if z is None:
        name, space, step, bound = "d_%d", "C", 1, dims
    else:
        n0, n1 = workspace.dims
        name, space, step = "L^(%d)", "A", 2
        bound = _graded_dims((n0, n1 - 1), high + 2)
        # sum_l dim A^(q-l), a running sum over q
        for q, total in enumerate(accumulate(bound[:max(dims) + 1])):
            if total != dims[q]:
                raise AssertionError("dim C^%d is not the sum of dim A^(%d-l) f_z^l"
                                     % (q, q))
    width, height = [0] * (high + 1), [0] * (high + 1)
    for t in range(max(0, low - listing.reach), high + 1):
        built = [(weight, keys, _coboundary(workspace, keys, {}) if z is None
                  else _lefschetz_block(workspace, z, t, 1, keys))
                 for weight, keys in listing.orbits(t, z)]
        for weight, _, block in built:
            cols, rows = block.cols, block.rows
            # one pass over W for both totals, cut at high
            for s, w in enumerate(weight[:high + 1 - t], t):
                width[s] += w * cols
                height[s] += w * rows
        if t >= low and (width[t] != bound[t] or height[t] > bound[t + step]):
            raise AssertionError("%s has shape %dx%d summed over its orbits, not at "
                                 "most dim %s^%d = %d rows by dim %s^%d = %d columns"
                                 % (name % t, height[t], width[t], space, t + step,
                                    bound[t + step], space, t, bound[t]))
        yield t, [(weight, keys, block, rank(block)) for weight, keys, block in built]


def _ranks(adapted: LieSuperalgebra, low: int, high: int,
           dims: Dict[int, int]) -> Dict[int, int]:
    """{q: rank d_q} for q = low..high from the call's one listing, each
    block's rank counted W[k] times in degree t + k, in one pass over
    W: the blocks of d_t themselves, or, when the table has an odd
    centre z (_odd_centre), those of L^(t) for every t < high, and then
    rank d_q = sum_{t<q} rank L^(t).  The table picks the route, so
    every caller takes the same one."""
    z = _odd_centre(adapted)
    # the listing's keys: those of d_q's columns, or of L^(t)'s for t < high
    top = high if z is None else high - 1
    listing = OrbitListing(_Workspace(adapted, high + 1), top)
    ranks = [0] * (top + 1)
    for t, groups in _blocks(listing, low if z is None else -1, top, dims, z):
        for weight, _, _, r in groups:
            if r:
                for s, w in enumerate(weight[:top + 1 - t], t):
                    ranks[s] += w * r
    if z is not None:
        ranks = list(accumulate(ranks, initial=0))
    return {q: ranks[q] if q >= 0 else 0 for q in range(low, high + 1)}


def _split_ranks(adapted: LieSuperalgebra, q_max: int, cap: int,
                 dims: Dict[int, int]) -> Optional[Dict[int, int]]:
    """{q: rank d_q} for q = -1..q_max from a checked split of the
    adapted table into ideals (directsum.split), or None: then the
    table takes the rank routes.  `dims` has dim C^q for q = 0..q_max,
    the entry's (limits._checked_dims).

    The gate costs O(brackets) and imports nothing: the table must be
    two-step, its bracket targets P (the pivots that span [g, g]) in no
    bracket, with q_max >= 2 (below, d_q costs no more than the
    search), and every C^q up to q_max within the cap, so that
    check_column_cap refuses no canonical table.  A table with |P| = 1
    passes only when its coefficients differ in absolute value: with one
    coefficient up to sign (the built-in members in any generator
    order, and every canonical table) it keeps the rank routes, and
    its copies.  Each distinct part type is ranked once, by _ranks on
    its canonical table, on the Lefschetz route for an odd centre;
    H(g) is the Kunneth product of the parts' and the free part's, and
    rank d_q = dim C^q - dim H^q - rank d_{q-1}.
    """
    table, targets = adapted._table, _targets(adapted)
    if (q_max < 2 or not targets
            or any(i in targets or j in targets for i, j in table)):
        return None
    if len(targets) == 1 and len({abs(c) for t in table.values() for c in t.values()}) == 1:
        return None
    if max(dims[q] for q in range(q_max + 1)) > cap:
        return None
    from .directsum import split
    found = split(adapted, sorted(targets))
    if found is None:
        return None
    types, free = found
    # an abelian algebra has d = 0: its Betti numbers are its cochains'
    betti = _graded_dims(free, q_max)
    ranked: Dict[Tuple[int, int, int], List[int]] = {}
    for even, odd, z in dict.fromkeys(types):
        part = (make_heisenberg_odd(odd) if z else
                _heisenberg_even("h_{%d,%d}" % (even // 2, odd), even // 2, odd))
        dims_part = check_column_cap(part.name, part.superdim, q_max, cap)
        rk = _ranks(part, -1, q_max, dims_part)
        ranked[even, odd, z] = [dims_part[q] - rk[q] - rk[q - 1] for q in range(q_max + 1)]
    for kind in types:
        h = ranked[kind]
        betti = [sum(betti[i] * h[q - i] for i in range(q + 1)) for q in range(q_max + 1)]
    rk = {-1: 0}
    for q in range(q_max + 1):
        rk[q] = dims[q] - betti[q] - rk[q - 1]
    return rk


def cohomology_dims(algebra: LieSuperalgebra, q: int,
                    column_cap: int = DEFAULT_COLUMN_CAP) -> CohomologyReport:
    """Betti data in a single degree, via exact ranks."""
    if q < 0:
        return CohomologyReport(algebra.name, q, 0, 0, 0, 0, METHOD_RANK)
    dims = _checked_dims(algebra.name, algebra.superdim, q, (q, q - 1), column_cap)
    require_valid(algebra)
    adapted = adapted_basis(algebra)
    rk = _split_ranks(adapted, q, column_cap, dims) or _ranks(adapted, q - 1, q, dims)
    return _reports(algebra.name, dims, rk, (q,))[0]


def betti_table(algebra: LieSuperalgebra, q_max: int,
                column_cap: int = DEFAULT_COLUMN_CAP) -> List[CohomologyReport]:
    """Betti data for q = 0..q_max, computing each coboundary rank once.

    Every degree is checked against the column cap before any matrix is
    built, so a refusal names the first degree over the cap and costs
    nothing.  The ranks are taken in adapted_basis(algebra), which has
    the same Betti numbers: by parts when it splits into ideals
    (_split_ranks), else from its Lefschetz blocks when it has an odd
    centre spanning [g, g] (_odd_centre), from each full d_q otherwise.
    Either way a table with copy classes is ranked one block per orbit
    and shift chain.  The cochain spaces built on the way live in the
    call's orbit listing.
    """
    if q_max < 0:
        raise ValueError("q_max must be nonnegative")
    dims = _checked_dims(algebra.name, algebra.superdim, q_max, range(q_max + 1), column_cap)
    require_valid(algebra)
    return _betti_table(algebra, q_max, column_cap, dims)


def _betti_table(algebra: LieSuperalgebra, q_max: int, column_cap: int,
                 dims: Dict[int, int]) -> List[CohomologyReport]:
    """betti_table past its refusals and require_valid, given their
    dimensions `dims` {q: dim C^q} for q = -1..q_max + 1; a verify grid
    point's come from limits.check_grid, and a direct-sum part's from
    limits.check_column_cap."""
    adapted = adapted_basis(algebra)
    rk = _split_ranks(adapted, q_max, column_cap, dims) or _ranks(adapted, -1, q_max, dims)
    return _reports(algebra.name, dims, rk, range(q_max + 1))
