"""Exact references for the per-job gate, none of them from the rank route.

Cochain dimensions are counted here with math.comb; Betti numbers come
from the package's closed forms (the formula route) and, for direct
sums, from the Kuenneth convolution of the two factors' closed forms.
Emitted reports are parsed here, not by the package.
"""

from __future__ import annotations

import csv
import io
import json
from math import comb

COLUMN_CAP = 5000   # the CLI's default --column-cap


def cochain_dim(n_even: int, n_odd: int, q: int) -> int:
    """dim C^q over n_even anticommuting and n_odd commuting duals."""
    if q < 0:
        return 0
    total = 0
    for p in range(q + 1):
        sym = 1 if p == 0 else (comb(n_odd + p - 1, p) if n_odd else 0)
        total += comb(n_even, q - p) * sym
    return total


def cochain_dims(n_even: int, n_odd: int, q_max: int):
    return tuple(cochain_dim(n_even, n_odd, q) for q in range(q_max + 1))


def first_refused_degree(n_even: int, n_odd: int, q_max: int, cap: int = COLUMN_CAP):
    """The first q <= q_max whose coboundary is wider than cap, or None."""
    for q in range(q_max + 1):
        if cochain_dim(n_even, n_odd, q) > cap:
            return q
    return None


def family_betti(api, family, q_max: int):
    """Closed-form Betti numbers of ("odd", n) or ("even", n, m)."""
    if family[0] == "odd":
        return tuple(api.dim_h_odd_proof(family[1], q) for q in range(q_max + 1))
    return tuple(api.dim_h_even(family[1], family[2], q) for q in range(q_max + 1))


def kunneth(betti_a, betti_b):
    """Betti numbers of a direct sum from those of its two summands."""
    q_max = min(len(betti_a), len(betti_b)) - 1
    return tuple(sum(betti_a[i] * betti_b[q - i] for i in range(q + 1))
                 for q in range(q_max + 1))


def parse_report(data: bytes, fmt: str):
    """[(q, dim_cochain, dim_cohomology)] from emitted text, csv or json."""
    text = data.decode("utf-8")
    if fmt == "json":
        return [(r["q"], r["dim_cochain"], r["dim_cohomology"]) for r in json.loads(text)]
    if fmt == "csv":
        rows = list(csv.DictReader(io.StringIO(text)))
    elif fmt == "text":
        lines = text.splitlines()
        header = lines[0].split()
        rows = [dict(zip(header, line.split())) for line in lines[1:]]
    else:
        raise ValueError("unknown format %r" % fmt)
    return [(int(r["q"]), int(r["dim_cochain"]), int(r["dim_cohomology"])) for r in rows]


def compare_table(rows, cochain, betti):
    """None if rows (q, dim C^q, dim H^q, ...) match the reference, else what differs."""
    if len(rows) != len(betti):
        return "expected %d degrees, got %d" % (len(betti), len(rows))
    for q, row in enumerate(rows):
        got_q, got_c, got_h = row[:3]
        if got_q != q:
            return "row %d reports q=%s" % (q, got_q)
        if got_c != cochain[q]:
            return "q=%d: dim C^q %s, reference %d" % (q, got_c, cochain[q])
        if got_h != betti[q]:
            return "q=%d: dim H^q %s, reference %d" % (q, got_h, betti[q])
    return None
