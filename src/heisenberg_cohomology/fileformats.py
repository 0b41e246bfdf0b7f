"""Text formats: algebra definition files and report serialization.

Algebra files are line oriented; '#' starts a comment, blank lines are
ignored.  Directives:

    name IDENT
    generator IDENT PARITY          # PARITY is 0 (even) or 1 (odd)
    bracket LEFT RIGHT = T:C [T:C ...]

Each T:C pair contributes coefficient C (an integer or integer/integer)
on generator T to [LEFT, RIGHT].  Each unordered generator pair may
carry at most one bracket line; writing the pair in either order is
allowed, the table stores the index-sorted form with the sign that
super skew-symmetry dictates.

Parsing fails at the parse site, not later inside a rank computation.
A malformed line raises AlgebraParseError with its line number.  The
axioms are checked on the table rewritten in the basis adapted to
[g, g] (algebra.adapted_basis), which is sparse; they hold there
exactly when they hold in the file's basis.  The rewrite and the
verdict are kept on the algebra returned, whose bracket table is
read-only, so the rank engine reuses the one and does not validate
again.  A table that fails raises AlgebraValidationError with
validate's messages on the table as written, so they name the file's
generators; they carry no line number.
"""

from __future__ import annotations

import csv
import io
import re
from fractions import Fraction
from typing import Dict, Iterable, List, Tuple

from .algebra import LieSuperalgebra, adapted_basis, validate
from .cohomology import CohomologyReport
# both error types live in limits, which needs no engine module, so the
# CLI catches them without loading this one; they stay importable here
from .limits import AlgebraParseError, AlgebraValidationError

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")

# csv header per the report layout; json keys are the report's own fields
CSV_FIELDS = ("algebra", "q", "dim_cochain", "dim_cocycles",
              "dim_coboundaries", "dim_cohomology", "method")
JSON_FIELDS = CohomologyReport._fields


def _parse_rational(token: str, lineno: int) -> Fraction:
    if not _RATIONAL_RE.match(token):
        raise AlgebraParseError("malformed rational %r" % token, lineno)
    try:
        return Fraction(token)
    except ValueError as exc:
        # a numeral over the interpreter's integer-conversion limit
        raise AlgebraParseError("rational of %d characters: %s"
                                % (len(token), exc), lineno) from None


def parse_algebra(text) -> LieSuperalgebra:
    """Parse and validate an algebra definition file."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            # number lines as the parser below does, up to the bad byte
            line = len((text[:exc.start].decode("utf-8") + ".").splitlines())
            raise AlgebraParseError("byte 0x%02x is not UTF-8 (%s)"
                                    % (text[exc.start], exc.reason), line) from None
    name = None
    gens: List[Tuple[str, int]] = []
    gen_index: Dict[str, int] = {}
    gen_parity: Dict[str, int] = {}
    brackets: Dict[Tuple[int, int], Dict[int, Fraction]] = {}
    pair_line: Dict[Tuple[int, int], int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        kw = tokens[0]
        if kw == "name":
            if len(tokens) != 2:
                raise AlgebraParseError("'name' takes exactly one token", lineno)
            if name is not None:
                raise AlgebraParseError("duplicate 'name' directive", lineno)
            name = tokens[1]
        elif kw == "generator":
            if len(tokens) != 3:
                raise AlgebraParseError("'generator' takes a name and a parity", lineno)
            gname, ptok = tokens[1], tokens[2]
            if gname in gen_index:
                raise AlgebraParseError("duplicate generator %r" % gname, lineno)
            if ptok not in ("0", "1"):
                raise AlgebraParseError("parity must be 0 or 1, got %r" % ptok, lineno)
            gen_index[gname] = len(gens)
            gen_parity[gname] = int(ptok)
            gens.append((gname, int(ptok)))
        elif kw == "bracket":
            if len(tokens) < 5 or tokens[3] != "=":
                raise AlgebraParseError(
                    "expected 'bracket LEFT RIGHT = target:coeff ...'", lineno)
            left, right = tokens[1], tokens[2]
            for g in (left, right):
                if g not in gen_index:
                    raise AlgebraParseError("unknown generator %r" % g, lineno)
            il, ir = gen_index[left], gen_index[right]
            targets: Dict[int, Fraction] = {}
            for tok in tokens[4:]:
                if ":" not in tok:
                    raise AlgebraParseError("expected target:coeff, got %r" % tok, lineno)
                tname, _, ctext = tok.partition(":")
                if tname not in gen_index:
                    raise AlgebraParseError("unknown generator %r" % tname, lineno)
                k = gen_index[tname]
                if k in targets:
                    raise AlgebraParseError("generator %r repeated in bracket result"
                                            % tname, lineno)
                targets[k] = _parse_rational(ctext, lineno)
            if il > ir:
                # [left, right] = -(-1)^{|l||r|} [right, left]
                flip = 1 if gen_parity[left] and gen_parity[right] else -1
                il, ir = ir, il
                targets = {k: flip * c for k, c in targets.items()}
            pair = (il, ir)
            if pair in pair_line:
                raise AlgebraParseError(
                    "bracket for this generator pair already given on line %d"
                    % pair_line[pair], lineno)
            pair_line[pair] = lineno
            brackets[pair] = targets
        else:
            raise AlgebraParseError("unknown directive %r" % kw, lineno)
    if name is None:
        raise AlgebraParseError("missing 'name' directive", max(1, len(text.splitlines())))
    if not gens:
        raise AlgebraParseError("no generators defined", max(1, len(text.splitlines())))
    alg = LieSuperalgebra(name, gens, brackets)
    # the axioms hold in every basis or in none, so check the sparse
    # adapted table and word a failure in the file's own basis; the
    # rewrite and the verdict are kept on alg for the rank engine
    if validate(adapted_basis(alg)):
        raise AlgebraValidationError(validate(alg))
    alg._derived["valid"] = True
    return alg


def format_algebra(alg: LieSuperalgebra) -> str:
    """Render an algebra in the file grammar; parse_algebra inverts this."""
    lines = ["name %s" % alg.name]
    for g in alg.generators:
        lines.append("generator %s %d" % (g.name, g.parity))
    names = [g.name for g in alg.generators]
    for (i, j) in sorted(alg.brackets):
        terms = " ".join("%s:%s" % (names[k], c)
                         for k, c in sorted(alg.brackets[(i, j)].items()))
        lines.append("bracket %s %s = %s" % (names[i], names[j], terms))
    return "\n".join(lines) + "\n"


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
