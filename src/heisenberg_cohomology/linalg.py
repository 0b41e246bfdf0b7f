"""Sparse exact linear algebra over the rationals.

RationalMatrix stores only nonzero Fraction entries keyed by (row, col).
rank() does fraction-free integer elimination on a sparse copy: each
column is scaled to integers first (column scaling cannot change rank),
pivots are chosen Markowitz-style (sparsest column, then the sparsest
row in it, ties to the lowest index), and updated rows are divided by
their content gcd to keep entries small.  Everything is exact; no
floating point enters anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Iterable, Mapping, Tuple

Entry = Tuple[int, int]


class RationalMatrix:
    """An immutable-by-convention sparse matrix of Fractions."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Mapping[Entry, object] = ()):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        data: Dict[Entry, Fraction] = {}
        items = entries.items() if isinstance(entries, Mapping) else entries
        for (r, c), v in items:
            if not (0 <= r < rows and 0 <= c < cols):
                raise ValueError("entry (%d, %d) outside a %dx%d matrix"
                                 % (r, c, rows, cols))
            if not isinstance(v, Fraction):
                v = Fraction(v)
            if v:
                data[(r, c)] = v
        self.rows = rows
        self.cols = cols
        self.entries = data

    @classmethod
    def zero(cls, rows: int, cols: int) -> "RationalMatrix":
        return cls(rows, cols)

    @classmethod
    def from_columns(cls, rows: int, columns: Iterable[Mapping[int, object]]) -> "RationalMatrix":
        """Build from an iterable of {row: value} column vectors."""
        data = {}
        cols = 0
        for c, column in enumerate(columns):
            cols = c + 1
            for r, v in column.items():
                data[(r, c)] = v
        return cls(rows, cols, data)

    @property
    def nnz(self) -> int:
        return len(self.entries)

    def get(self, r: int, c: int) -> Fraction:
        return self.entries.get((r, c), Fraction(0))

    def column(self, c: int) -> Dict[int, Fraction]:
        return {r: v for (r, cc), v in self.entries.items() if cc == c}

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("shape mismatch: %dx%d @ %dx%d"
                             % (self.rows, self.cols, other.rows, other.cols))
        by_row: Dict[int, Dict[int, Fraction]] = {}
        for (r, c), v in self.entries.items():
            by_row.setdefault(r, {})[c] = v
        by_col: Dict[int, Dict[int, Fraction]] = {}
        for (r, c), v in other.entries.items():
            by_col.setdefault(c, {})[r] = v
        data = {}
        for r, row in by_row.items():
            for c, col in by_col.items():
                total = Fraction(0)
                if len(row) <= len(col):
                    for k, v in row.items():
                        w = col.get(k)
                        if w is not None:
                            total += v * w
                else:
                    for k, w in col.items():
                        v = row.get(k)
                        if v is not None:
                            total += v * w
                if total:
                    data[(r, c)] = total
        return RationalMatrix(self.rows, other.cols, data)

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return (self.rows, self.cols, self.entries) == (other.rows, other.cols, other.entries)

    def __repr__(self) -> str:
        return "RationalMatrix(%d, %d, nnz=%d)" % (self.rows, self.cols, self.nnz)


def _integer_rows(matrix: RationalMatrix) -> Dict[int, Dict[int, int]]:
    # clear denominators column by column; column scaling preserves rank
    scale: Dict[int, int] = {}
    for (r, c), v in matrix.entries.items():
        scale[c] = lcm(scale.get(c, 1), v.denominator)
    rows: Dict[int, Dict[int, int]] = {}
    for (r, c), v in matrix.entries.items():
        rows.setdefault(r, {})[c] = v.numerator * (scale[c] // v.denominator)
    return rows


def rank(matrix: RationalMatrix) -> int:
    """Exact rank by sparse integer elimination."""
    rows = _integer_rows(matrix)
    col_rows: Dict[int, set] = {}
    for r, row in rows.items():
        for c in row:
            col_rows.setdefault(c, set()).add(r)
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
