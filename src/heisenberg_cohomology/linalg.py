"""Sparse exact linear algebra over the rationals.

A RationalMatrix is a list of sparse integer columns ({row: int}, no
stored zeros) times one exact rational scale, so the coboundary kernel's
integer output is a matrix as it stands.  rank() works on those integer
columns directly (a nonzero scale cannot change rank).  It first peels
structural pivots: a column with a row that no other column touches
adds 1 to the rank and is dropped, in rounds that recount the rows
in a plain dict (_row_counts), at most log2(columns) + 1 of them, so
the peel's work is O(nnz log columns) where peeling to the end can be
quadratic.  A rank is at most the rows and at most the nonzero
columns, so a block of fewer than two rows, or fewer than two nonzero
columns at entry or after any round, has its rank at once: most of
the engine's blocks are a few columns wide or one row high and end
there.  The rest goes through fraction-free
echelon elimination in one order fixed before it starts: rows by the
peel's last nonzero count (ties to the lowest index), columns sparsest
first.  Each column is reduced against the pivots found so far, keyed
by their first row in that order, by _reduce: _cancel, the package's
one fraction-free reduction step, then a division of the updated
column by its content gcd to keep entries small.  _echelon, the fully
reduced echelon form that the adapted basis and the direct-sum search
use, is built on the same step: it cancels each lead a new row meets
by _cancel alone, and divides out the row's content once, after the
last step, which leaves the same row as dividing after every step.
Everything is exact; no floating point enters anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, Tuple

Entry = Tuple[int, int]


class RationalMatrix:
    """An immutable-by-convention sparse matrix: `scale` times the
    integer columns `columns`."""

    __slots__ = ("rows", "cols", "columns", "scale")

    def __init__(self, rows: int, cols: int, entries: Mapping[Entry, object] = ()):
        """Build from {(row, col): rational}; stores v * L over scale 1/L,
        L the lcm of the entries' denominators."""
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        data: Dict[Entry, Fraction] = {}
        items = entries.items() if isinstance(entries, Mapping) else entries
        for (r, c), v in items:
            if not (0 <= r < rows and 0 <= c < cols):
                raise ValueError("entry (%d, %d) outside a %dx%d matrix"
                                 % (r, c, rows, cols))
            if isinstance(v, float):
                raise TypeError("entry (%d, %d) is the float %r; a float is not exact"
                                % (r, c, v))
            v = Fraction(v)
            if v:
                data[(r, c)] = v
        denom = lcm(1, *(v.denominator for v in data.values()))
        columns: List[Dict[int, int]] = [{} for _ in range(cols)]
        for (r, c), v in data.items():
            columns[c][r] = v.numerator * (denom // v.denominator)
        self.rows = rows
        self.cols = cols
        self.columns = columns
        self.scale = Fraction(1, denom)

    @classmethod
    def from_columns(cls, rows: int, columns: List[Dict[int, int]],
                     scale=1) -> "RationalMatrix":
        """`scale` times the integer columns {row: nonzero int}; the
        matrix takes the list over as its storage, without a copy."""
        if isinstance(scale, float):
            raise TypeError("the scale is the float %r; a float is not exact" % scale)
        scale = Fraction(scale)
        if rows < 0 or not scale:
            raise ValueError("need rows >= 0 and a nonzero scale")
        for c, col in enumerate(columns):
            if col and (min(col) < 0 or max(col) >= rows or
                        not all(type(v) is int and v for v in col.values())):
                raise ValueError("column %d has a row outside 0..%d or a "
                                 "value that is not a nonzero int" % (c, rows - 1))
        return cls._wrap(rows, columns, scale)

    @classmethod
    def _wrap(cls, rows: int, columns: List[Dict[int, int]],
              scale: Fraction) -> "RationalMatrix":
        # from_columns without the walk over every value: for the
        # coboundary kernel's columns, which hold their rows and nonzero
        # ints by construction (the tests check each one they build)
        self = cls.__new__(cls)
        self.rows = rows
        self.cols = len(columns)
        self.columns = columns
        self.scale = scale
        return self

    @property
    def entries(self) -> Mapping[Entry, Fraction]:
        """Read-only {(row, col): Fraction} view of the nonzero entries."""
        s = self.scale
        return MappingProxyType({(r, c): v * s for c, col in enumerate(self.columns)
                                 for r, v in col.items()})

    @property
    def nnz(self) -> int:
        return sum(map(len, self.columns))

    def get(self, r: int, c: int) -> Fraction:
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise IndexError("entry (%d, %d) outside a %dx%d matrix"
                             % (r, c, self.rows, self.cols))
        return self.columns[c].get(r, 0) * self.scale

    def is_zero(self) -> bool:
        return not any(self.columns)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return (self.rows, self.cols, self.entries) == (other.rows, other.cols, other.entries)

    def __repr__(self) -> str:
        return "RationalMatrix(%d, %d, nnz=%d)" % (self.rows, self.cols, self.nnz)

    def __reduce__(self):
        # slots alone pickle only from protocol 2 on
        return RationalMatrix.from_columns, (self.rows, self.columns, self.scale)


def _subtract(v: Dict[int, int], c: int, row: Mapping[int, int]) -> None:
    """v -= c * row, in place, dropping the coordinates that cancel."""
    for k, x in row.items():
        w = v.get(k, 0) - c * x
        if w:
            v[k] = w
        else:
            del v[k]


def _cancel(v: Dict[int, int], row: Mapping[int, int], lead: int) -> None:
    """v <- a v - b row, in place, with a/b = row[lead]/v[lead] in lowest
    terms and a > 0, so the lead cancels: the package's one
    fraction-free reduction step."""
    a, b = row[lead], v[lead]
    g = gcd(a, b)
    a, b = a // g, b // g
    if a < 0:
        a, b = -a, -b
    if a > 1:
        for k in v:
            v[k] *= a
    _subtract(v, b, row)


def _reduce(v: Dict[int, int], row: Mapping[int, int], lead: int) -> None:
    """_cancel, then v divided by its content gcd, which keeps the
    entries of a vector reduced again and again small."""
    _cancel(v, row, lead)
    g = gcd(*v.values())
    if g > 1:
        for k in v:
            v[k] //= g


def _echelon(rows: Iterable[Mapping[int, int]]) -> Dict[int, Dict[int, int]]:
    """A fully reduced echelon basis of the span of the integer `rows`,
    {lead: row}: row[lead] > 0 is the row's first entry, its content is
    1, and it is zero at every other lead."""
    basis: Dict[int, Dict[int, int]] = {}
    for row in rows:
        v = {k: x for k, x in row.items() if x}
        # every basis row is zero at the other leads, so one pass reduces
        # v; its content is divided out once, below, not after each step
        for p in [k for k in v if k in basis]:
            _cancel(v, basis[p], p)
        if not v:
            continue
        lead = min(v)
        g = gcd(*v.values()) * (1 if v[lead] > 0 else -1)
        if g != 1:
            v = {k: x // g for k, x in v.items()}
        for other in basis.values():
            if lead in other:
                _reduce(other, v, lead)
        basis[lead] = v
    return basis


def rank(matrix: RationalMatrix) -> int:
    """Exact rank: structural pivots peeled off in a few counted rounds,
    then fraction-free elimination of the rest in one pivot order,
    fixed before elimination starts.  Fewer than two rows, or fewer
    than two nonzero columns at entry or after any round of the peel,
    give the rank at once: it is at most either count."""
    cols = list(filter(None, matrix.columns))
    if len(cols) < 2 or matrix.rows < 2:
        # a nonzero column needs a row, so this is len(cols) or rows
        return min(len(cols), matrix.rows)
    counts = _row_counts(cols)
    peeled = 0
    # at most log2(columns) + 1 rounds, so the peel costs O(nnz log
    # columns): peeling until no private row is left can take one round
    # per column (a bidiagonal chain loses two columns a round)
    for _ in range(len(cols).bit_length()):
        # a column with a row that no other column touches is a pivot:
        # any combination of the others is 0 on that row
        private = {r for r, n in counts.items() if n == 1}
        kept = [col for col in cols if private.isdisjoint(col)]
        if len(kept) == len(cols):
            break
        peeled += len(cols) - len(kept)
        cols = kept
        if len(cols) < 2:
            return peeled + len(cols)
        counts = _row_counts(cols)
    # rows in the fixed order: fewer nonzeros first, lower index on ties;
    # a column is kept as {position of the row in that order: value}
    order = sorted(counts)
    order.sort(key=counts.__getitem__)
    position = dict(zip(order, range(len(order))))
    pivots: Dict[int, Dict[int, int]] = {}
    for col in sorted(cols, key=len):
        v = {position[r]: x for r, x in col.items()}
        lead = min(v)
        # every row of the pivot keyed at `lead` comes at or after `lead`,
        # and the update cancels `lead`, so the first row of v moves
        # strictly later at each step and the loop ends
        while lead in pivots:
            p = pivots[lead]
            if len(v) < len(p):
                # the sparser of the two is kept as the pivot
                pivots[lead], v, p = v, p, v
            # v is a fresh dict or an evicted pivot, so updating it in
            # place touches no column of the matrix and no kept pivot
            _reduce(v, p, lead)
            if not v:
                break
            lead = min(v)
        else:
            pivots[lead] = v
    return peeled + len(pivots)


def _row_counts(cols: List[Dict[int, int]]) -> Dict[int, int]:
    """{row: how many of the columns `cols` have it}, in a plain dict:
    on the engine's blocks of a few columns a Counter's set-up costs
    more than the count."""
    counts: Dict[int, int] = {}
    for col in cols:
        for r in col:
            counts[r] = counts.get(r, 0) + 1
    return counts


def kernel_dim(matrix: RationalMatrix) -> int:
    """Nullity over the rationals: cols - rank."""
    return matrix.cols - rank(matrix)
