"""Spans around the package's layer boundaries, recorded from outside.

The tracer replaces module attributes of the package with wrappers, so
the package's own calls go through them; nothing under src/ knows about
it.  Spans (name, start, end, parent span, job id) are kept in flat
arrays in memory and written out once, when the traced pass ends.  A
span's self time is its duration minus the durations of its direct
children; calls are sequential, so children never overlap.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

PACKAGE = "heisenberg_cohomology"

# (module the call is made from, attribute name, span name).  Every site
# through which the package (or the benchmark's own jobs) reaches a layer.
SITES = (
    ("algebra", "validate", "algebra.validate"),
    ("fileformats", "validate", "algebra.validate"),
    ("differential", "enumerate_basis", "superexterior.enumerate_basis"),
    ("differential", "wedge", "superexterior.wedge"),
    ("cohomology", "differential_matrix", "differential.differential_matrix"),
    ("verify", "psi_matrix", "differential.psi_matrix"),
    ("differential", "tau", "differential.tau"),
    ("cohomology", "rank", "linalg.rank"),
    ("linalg", "rank", "linalg.rank"),
    ("", "betti_table", "cohomology.betti_table"),
    ("verify", "betti_table", "cohomology.betti_table"),
    ("cli", "betti_table", "cohomology.betti_table"),
    ("verify", "dim_h_even", "formulas.dim_h_even"),
    ("verify", "dim_h_odd_proof", "formulas.dim_h_odd_proof"),
    ("verify", "dim_h_odd_displayed", "formulas.dim_h_odd_displayed"),
    ("verify", "ker_psi_dim", "formulas.ker_psi_dim"),
    ("", "verify_family", "verify.verify_family"),
    ("cli", "verify_family", "verify.verify_family"),
    ("", "parse_algebra", "fileformats.parse_algebra"),
    ("cli", "parse_algebra", "fileformats.parse_algebra"),
    ("", "emit_report", "fileformats.emit_report"),
    ("cli", "emit_report", "fileformats.emit_report"),
)


def _count_enumerate(c, result, args):
    c["superexterior.monomials"] += len(result)


def _count_differential(c, result, args):
    mat = result.matrix
    c["differential.columns"] += mat.cols
    c["differential.rows"] += mat.rows
    c["differential.nnz"] += mat.nnz
    c["differential.max_rows"] = max(c["differential.max_rows"], mat.rows)


def _count_rank(c, result, args):
    c["linalg.rank_nnz"] += args[0].nnz
    c["linalg.pivots"] += result


def _count_verify(c, result, args):
    c["verify.checks"] += len(result.checks)
    c["verify.deviations"] += len(result.deviations)


def _count_emit(c, result, args):
    c["fileformats.bytes_out"] += len(result)


COUNTERS = {
    "superexterior.enumerate_basis": _count_enumerate,
    "differential.differential_matrix": _count_differential,
    "linalg.rank": _count_rank,
    "verify.verify_family": _count_verify,
    "fileformats.emit_report": _count_emit,
}


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array("i")
        self.parent = array("l")
        self.job = array("l")
        self.start = array("d")
        self.end = array("d")
        self.counts = defaultdict(int)
        self.missing = []
        self._stack = []
        self._job = -1
        self._saved = []

    def _intern(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid):
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.job.append(self._job)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def wrap(self, fn, name):
        nid = self._intern(name)
        count = COUNTERS.get(name)
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(nid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                tracer._stack.pop()
                tracer.start[idx] = t0
                tracer.end[idx] = t1
            if count is not None:
                count(tracer.counts, result, args)
            return result

        return traced

    @contextmanager
    def job_span(self, job_id: int):
        """Root span of one job; every span opened inside carries its id."""
        self._job = job_id
        idx = self._open(self._intern("job"))
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter()
            self.start[idx] = t0
            self._stack.pop()
            self._job = -1

    def install(self):
        """Patch every site whose module is loaded; remember what to restore."""
        wrappers = {}
        for module, attr, name in SITES:
            mod = sys.modules.get(PACKAGE + ("." + module if module else ""))
            fn = getattr(mod, attr, None) if mod is not None else None
            if fn is None:
                self.missing.append("%s.%s" % (module or PACKAGE, attr))
                continue
            key = (id(fn), name)
            if key not in wrappers:
                wrappers[key] = self.wrap(fn, name)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, wrappers[key])

    def uninstall(self):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved = []

    def totals(self):
        """{span name: [calls, total seconds, self seconds]}."""
        child = [0.0] * len(self.start)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {}
        for i, nid in enumerate(self.name_id):
            row = out.setdefault(self.names[nid], [0, 0.0, 0.0])
            dur = self.end[i] - self.start[i]
            row[0] += 1
            row[1] += dur
            row[2] += dur - child[i]
        return out

    def layer_metrics(self):
        """The per-layer metrics derivable from spans and counts."""
        t = self.totals()

        def calls(name):
            return t.get(name, (0, 0.0, 0.0))[0]

        def total(name):
            return t.get(name, (0, 0.0, 0.0))[1]

        def self_s(name):
            return t.get(name, (0, 0.0, 0.0))[2]

        formulas = [n for n in t if n.startswith("formulas.")]
        c = self.counts
        cols = c["differential.columns"]
        return {
            "algebra.validate_s": (total("algebra.validate"), "s"),
            "algebra.validate_calls": (calls("algebra.validate"), "count"),
            "superexterior.enumerate_s": (total("superexterior.enumerate_basis"), "s"),
            "superexterior.monomials": (c["superexterior.monomials"], "count"),
            "superexterior.wedge_s": (total("superexterior.wedge"), "s"),
            "superexterior.wedge_calls": (calls("superexterior.wedge"), "count"),
            "differential.build_self_s": (self_s("differential.differential_matrix"), "s"),
            "differential.columns": (cols, "count"),
            "differential.rows": (c["differential.rows"], "count"),
            "differential.nnz": (c["differential.nnz"], "count"),
            "differential.nnz_per_column": (c["differential.nnz"] / cols if cols else 0.0,
                                            "nnz/col"),
            "differential.max_rows": (c["differential.max_rows"], "count"),
            "differential.psi_s": (self_s("differential.psi_matrix"), "s"),
            "differential.tau_s": (self_s("differential.tau"), "s"),
            "linalg.rank_s": (total("linalg.rank"), "s"),
            "linalg.rank_calls": (calls("linalg.rank"), "count"),
            "linalg.rank_nnz": (c["linalg.rank_nnz"], "count"),
            "linalg.pivots": (c["linalg.pivots"], "count"),
            "cohomology.self_s": (self_s("cohomology.betti_table"), "s"),
            "formulas.s": (sum(total(n) for n in formulas), "s"),
            "formulas.calls": (sum(calls(n) for n in formulas), "count"),
            "verify.self_s": (self_s("verify.verify_family"), "s"),
            "verify.checks": (c["verify.checks"], "count"),
            "verify.deviations": (c["verify.deviations"], "count"),
            "fileformats.parse_s": (self_s("fileformats.parse_algebra"), "s"),
            "fileformats.emit_s": (total("fileformats.emit_report"), "s"),
            "fileformats.bytes_out": (c["fileformats.bytes_out"], "count"),
        }

    def write(self, path, meta):
        """Spans as JSON: a header line, then one [name, start, end, parent, job] per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(dict(meta, names=self.names, counts=dict(self.counts),
                                     unpatched=self.missing)) + "\n")
            for i in range(len(self.start)):
                fh.write("[%d,%.9f,%.9f,%d,%d]\n" % (self.name_id[i], self.start[i],
                                                     self.end[i], self.parent[i], self.job[i]))
