"""Sparse exact linear algebra over the rationals.

A RationalMatrix is a list of sparse integer columns ({row: int}, no
stored zeros) times one exact rational scale, so the coboundary kernel's
integer output is a matrix as it stands.  rank() eliminates those
integer columns directly (a nonzero scale cannot change rank) by
fraction-free echelon elimination in one order fixed before it starts:
rows by nonzero count (ties to the lowest index), columns sparsest
first.  Each column is reduced against the pivots found so far, keyed
by their first row in that order, and every updated column is divided
by its content gcd to keep entries small.  Everything is exact; no
floating point enters anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from types import MappingProxyType
from typing import Dict, List, Mapping, Tuple

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
        scale = Fraction(scale)
        if rows < 0 or not scale:
            raise ValueError("need rows >= 0 and a nonzero scale")
        for c, col in enumerate(columns):
            if col and (min(col) < 0 or max(col) >= rows or
                        not all(type(v) is int and v for v in col.values())):
                raise ValueError("column %d has a row outside 0..%d or a "
                                 "value that is not a nonzero int" % (c, rows - 1))
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


def rank(matrix: RationalMatrix) -> int:
    """Exact rank by fraction-free elimination of the stored columns in
    one pivot order, fixed before elimination starts."""
    counts: Dict[int, int] = {}
    for col in matrix.columns:
        for r in col:
            counts[r] = counts.get(r, 0) + 1
    # rows in the fixed order: fewer nonzeros first, lower index on ties;
    # a column is kept as {position of the row in that order: value}
    position = {r: i for i, r in enumerate(sorted(counts, key=lambda r: (counts[r], r)))}
    pivots: Dict[int, Dict[int, int]] = {}
    for col in sorted(filter(None, matrix.columns), key=len):
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
            a, b = p[lead], v[lead]
            g = gcd(a, b)
            a, b = a // g, b // g
            v = {k: a * x for k, x in v.items()}
            for k, x in p.items():
                w = v.get(k, 0) - b * x
                if w:
                    v[k] = w
                else:
                    del v[k]
            if not v:
                break
            g = gcd(*v.values())
            if g > 1:
                v = {k: x // g for k, x in v.items()}
            lead = min(v)
        else:
            pivots[lead] = v
    return len(pivots)


def kernel_dim(matrix: RationalMatrix) -> int:
    """Nullity over the rationals: cols - rank."""
    return matrix.cols - rank(matrix)
