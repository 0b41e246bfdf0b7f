"""Sparse exact linear algebra over the rationals.

A RationalMatrix is a list of sparse integer columns ({row: int}, no
stored zeros) times one exact rational scale, so the coboundary kernel's
integer output is a matrix as it stands.  rank() eliminates those
integer columns directly (a nonzero scale cannot change rank) by
fraction-free elimination: pivots are chosen Markowitz-style (sparsest
column, then the sparsest row in it, ties to the lowest index), and
updated rows are divided by their content gcd to keep entries small.
Everything is exact; no floating point enters anywhere.
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
    """Exact rank by sparse integer elimination of the stored columns."""
    rows: Dict[int, Dict[int, int]] = {}
    col_rows: Dict[int, set] = {}
    for c, col in enumerate(matrix.columns):
        if col:
            col_rows[c] = set(col)
            for r, v in col.items():
                rows.setdefault(r, {})[c] = v
    # Markowitz queue: live columns bucketed by their row count, so the
    # sparsest column (lowest index on ties) is found without a scan
    buckets: Dict[int, set] = {}
    for c, holders in col_rows.items():
        buckets.setdefault(len(holders), set()).add(c)
    rk = 0
    while col_rows:
        c = min(buckets[min(buckets)])
        r = min(col_rows[c], key=lambda i: (len(rows[i]), i))
        pivot_row = rows.pop(r)
        p = pivot_row[c]
        # a step only changes the counts of the pivot row's columns:
        # fill-in and cancellation both happen where the pivot row is nonzero
        before = {cc: len(col_rows[cc]) for cc in pivot_row}
        for cc in pivot_row:
            holders = col_rows[cc]
            holders.discard(r)
            if not holders:
                del col_rows[cc]
        targets = sorted(col_rows.get(c, ()))
        for r2 in targets:
            row2 = rows[r2]
            a = row2[c]
            new = {cc: p * v for cc, v in row2.items() if cc != c}
            for cc, v in pivot_row.items():
                if cc == c:
                    continue
                w = new.get(cc, 0) - a * v
                if w:
                    new[cc] = w
                elif cc in new:
                    del new[cc]
            if new:
                g = 0
                for v in new.values():
                    g = gcd(g, v)
                    if g == 1:
                        break
                if g > 1:
                    new = {cc: v // g for cc, v in new.items()}
            for cc in row2:
                if cc not in new:
                    holders = col_rows.get(cc)
                    if holders is not None:
                        holders.discard(r2)
                        if not holders:
                            del col_rows[cc]
            for cc in new:
                if cc not in row2:
                    col_rows.setdefault(cc, set()).add(r2)
            if new:
                rows[r2] = new
            else:
                del rows[r2]
        for cc, n in before.items():
            bucket = buckets[n]
            bucket.discard(cc)
            if not bucket:
                del buckets[n]
            holders = col_rows.get(cc)
            if holders:
                buckets.setdefault(len(holders), set()).add(cc)
        rk += 1
    return rk


def kernel_dim(matrix: RationalMatrix) -> int:
    """Nullity over the rationals: cols - rank."""
    return matrix.cols - rank(matrix)
