"""Betti reports: the record both routes return, and its serialization.

CohomologyReport is the dimension bookkeeping of one degree; its
constructor raises ReportInvariantError on inconsistent fields.  Every
report is built here: the rank route's by _reports, from dim C^q and
the ranks of d, and the closed forms' by _formula_report, from the
cocycle dimensions and dim H^q (formulas.even_formula_report and
odd_formula_report call it).  emit_report writes reports as json, csv
or text, reading each report as the tuple it is.  _Record, the tuple
base of the package's immutable record types (Generator,
CohomologyReport, verify's Comparison, DifferentialMatrix), is defined
here too: each type names its fields once, as the parameters of its own
`__new__`.

This module imports only limits and the standard library, so neither
route loads the other: the formula verbs reach formulas and this
module alone, and the rank engine reaches no closed form.
"""

from __future__ import annotations

import csv
import io
from operator import itemgetter
from typing import Callable, Dict, Iterable, List, Tuple

from .limits import ReportInvariantError, graded_dim


class _Record(tuple):
    """Base of the package's record types: a tuple whose fields,
    `_fields`, are the parameters of its subclass's own `__new__`, read
    once when the class is created, each read by an `itemgetter`
    property.

    Python's argument binding gives construction by position or keyword
    and its TypeErrors, and the tuple its storage, immutability and
    hash.  Equality is by value within one class, and False for any
    other object, plain tuples included; the repr is
    `Name(field=value, ...)`.  Pickle and copy rebuild through the
    constructor at every protocol (`__reduce__`, which protocols 0 and
    1 do not skip as they skip `__getnewargs__`), which also re-runs a
    subclass's checks.  No import or code generation happens when a
    subclass is defined, so the CLI starts without either.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "__new__" in cls.__dict__:  # a subclass without one keeps its fields
            code = cls.__new__.__code__
            cls._fields = cls.__match_args__ = code.co_varnames[1:code.co_argcount]
            for i, field in enumerate(cls._fields):
                setattr(cls, field, property(itemgetter(i)))

    def __eq__(self, other):
        return other.__class__ is self.__class__ and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    __hash__ = tuple.__hash__

    def __repr__(self) -> str:
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % pair for pair in zip(self._fields, self)))

    def __reduce__(self):
        return type(self), tuple(self)


METHOD_RANK = "rank"
METHOD_FORMULA_EVEN = "formula-even"
METHOD_FORMULA_ODD_PROOF = "formula-odd-proof"
METHODS = (METHOD_RANK, METHOD_FORMULA_EVEN, METHOD_FORMULA_ODD_PROOF)

# csv header per the report layout; json keys are the report's own fields
CSV_FIELDS = ("algebra", "q", "dim_cochain", "dim_cocycles",
              "dim_coboundaries", "dim_cohomology", "method")


class CohomologyReport(_Record):
    """Dimension bookkeeping for one cohomological degree; the
    constructor, which pickle and copy call too, raises
    ReportInvariantError on inconsistent fields."""

    __slots__ = ()

    def __new__(cls, algebra_name, q, dim_cochain, dim_cocycles,
                dim_coboundaries, dim_cohomology, method):
        if method not in METHODS:
            raise ReportInvariantError("unknown method %r" % method)
        self = tuple.__new__(cls, (algebra_name, q, dim_cochain, dim_cocycles,
                                   dim_coboundaries, dim_cohomology, method))
        if not (0 <= dim_cohomology and 0 <= dim_coboundaries
                and dim_cocycles <= dim_cochain
                and dim_cohomology == dim_cocycles - dim_coboundaries):
            raise ReportInvariantError("inconsistent dimensions in %r" % (self,))
        return self


JSON_FIELDS = CohomologyReport._fields


def _reports(name: str, dims: Dict[int, int], rk: Dict[int, int],
             degrees: Iterable[int]) -> List[CohomologyReport]:
    """The rank route's reports for these degrees q, from dim C^q,
    rank d_q and rank d_{q-1}."""
    return [CohomologyReport(name, q, dims[q], dims[q] - rk[q], rk[q - 1],
                             dims[q] - rk[q] - rk[q - 1], METHOD_RANK) for q in degrees]


def _formula_report(shape: Tuple[str, Tuple[int, int]],
                    cocycle_dim: Callable[[int], int],
                    h: int, method: str, q: int) -> CohomologyReport:
    """Betti data in degree q of the family member of this shape from its
    closed forms: cocycle_dim(p) is dim Z^p and h is dim H^q."""
    name, superdim = shape
    b = graded_dim(superdim, q - 1) - cocycle_dim(q - 1)
    return CohomologyReport(name, q, graded_dim(superdim, q), cocycle_dim(q), b,
                            h, method)


def emit_report(reports: Iterable[CohomologyReport], fmt: str) -> bytes:
    """Serialize reports as 'json', 'csv' or 'text' (deterministic bytes)."""
    reports = list(reports)
    if fmt == "json":
        import json  # only a json report needs it
        payload = [dict(zip(JSON_FIELDS, r)) for r in reports]
        return (json.dumps(payload, indent=2) + "\n").encode("utf-8")
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n", quoting=csv.QUOTE_MINIMAL)
        writer.writerow(CSV_FIELDS)
        for r in reports:
            writer.writerow(r)
        return buf.getvalue().encode("utf-8")
    if fmt == "text":
        table = [tuple(map(str, r)) for r in reports]
        widths = [len(h) for h in CSV_FIELDS]
        for row in table:
            widths = [max(w, len(x)) for w, x in zip(widths, row)]
        def line(cells):
            return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
        out = [line(CSV_FIELDS)]
        out.extend(line(row) for row in table)
        return ("\n".join(out) + "\n").encode("utf-8")
    raise ValueError("unknown format %r" % fmt)
