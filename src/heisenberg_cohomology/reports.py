"""Betti reports: the record both routes return, and its serialization.

CohomologyReport is the dimension bookkeeping of one degree; its
constructor raises ReportInvariantError on inconsistent fields.  Every
report is built here: the rank route's by _reports, from dim C^q and
the ranks of d, and the closed forms' by _formula_report, from the
cocycle dimensions and dim H^q (formulas.even_formula_report and
odd_formula_report call it).  emit_report writes reports as json, csv
or text.  _Record, the base of every record type of the package, is
defined here too.

This module imports only limits and the standard library, so neither
route loads the other: the formula verbs reach formulas and this
module alone, and the rank engine reaches no closed form.
"""

from __future__ import annotations

import csv
import io
from typing import Callable, Dict, Iterable, List, Tuple

from .limits import ReportInvariantError, graded_dim


class _Record:
    """Base of the package's record types: a `__slots__` class whose
    fields, `_fields`, are its `__slots__`, in order.

    It gives immutable value semantics: construction by position or
    keyword (TypeError on a missing or unknown field), equality and hash
    by the field tuple within one class, the repr
    `Name(field=value, ...)`, and no assignment or deletion.  Pickle and
    copy rebuild through the constructor, which also re-runs a
    subclass's checks.  No import or code generation happens when a
    subclass is defined, so the CLI starts without either.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = cls.__dict__.get("__slots__")
        if fields:  # a subclass that adds no slots keeps its parent's fields
            cls._fields = cls.__match_args__ = fields
            # the slots' own setters, which the refusing __setattr__ bypasses
            cls._setters = tuple(cls.__dict__[f].__set__ for f in fields)

    def __init__(self, *args, **kwargs):
        setters = self._setters
        if kwargs or len(args) != len(setters):
            args = self._arrange(args, kwargs)
        for set_field, value in zip(setters, args):
            set_field(self, value)

    def _arrange(self, args: tuple, kwargs: dict) -> list:
        """The field values in order, from positions and keywords."""
        fields = self._fields
        if len(args) > len(fields):
            raise TypeError("%s takes %d fields but %d were given"
                            % (type(self).__name__, len(fields), len(args)))
        values = dict(zip(fields, args))
        for name, value in kwargs.items():
            if name not in fields or name in values:
                raise TypeError("%s got an unexpected or repeated field %r"
                                % (type(self).__name__, name))
            values[name] = value
        missing = [f for f in fields if f not in values]
        if missing:
            raise TypeError("%s missing field(s) %s"
                            % (type(self).__name__, ", ".join(map(repr, missing))))
        return [values[f] for f in fields]

    def _values(self) -> tuple:
        """The field values, in field order."""
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (f, getattr(self, f)) for f in self._fields))

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def __reduce__(self):
        return type(self), self._values()


METHOD_RANK = "rank"
METHOD_FORMULA_EVEN = "formula-even"
METHOD_FORMULA_ODD_PROOF = "formula-odd-proof"
METHODS = (METHOD_RANK, METHOD_FORMULA_EVEN, METHOD_FORMULA_ODD_PROOF)

# csv header per the report layout; json keys are the report's own fields
CSV_FIELDS = ("algebra", "q", "dim_cochain", "dim_cocycles",
              "dim_coboundaries", "dim_cohomology", "method")


class CohomologyReport(_Record):
    """Dimension bookkeeping for one cohomological degree; the
    constructor raises ReportInvariantError on inconsistent fields."""

    __slots__ = ("algebra_name", "q", "dim_cochain", "dim_cocycles",
                 "dim_coboundaries", "dim_cohomology", "method")

    def __init__(self, *args, **kwargs):
        # _Record's construction, with the checks read off the values
        if kwargs or len(args) != 7:
            args = self._arrange(args, kwargs)
        for set_field, value in zip(self._setters, args):
            set_field(self, value)
        _, _, cochain, cocycles, coboundaries, cohomology, method = args
        if method not in METHODS:
            raise ReportInvariantError("unknown method %r" % method)
        if not (0 <= cohomology and 0 <= coboundaries and cocycles <= cochain
                and cohomology == cocycles - coboundaries):
            raise ReportInvariantError("inconsistent dimensions in %r" % (self,))


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
        payload = [dict(zip(JSON_FIELDS, r._values())) for r in reports]
        return (json.dumps(payload, indent=2) + "\n").encode("utf-8")
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n", quoting=csv.QUOTE_MINIMAL)
        writer.writerow(CSV_FIELDS)
        for r in reports:
            writer.writerow(r._values())
        return buf.getvalue().encode("utf-8")
    if fmt == "text":
        table = [tuple(str(x) for x in r._values()) for r in reports]
        widths = [len(h) for h in CSV_FIELDS]
        for row in table:
            widths = [max(w, len(x)) for w, x in zip(widths, row)]
        def line(cells):
            return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
        out = [line(CSV_FIELDS)]
        out.extend(line(row) for row in table)
        return ("\n".join(out) + "\n").encode("utf-8")
    raise ValueError("unknown format %r" % fmt)
