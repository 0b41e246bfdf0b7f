"""Algebra definition files: the parser and its inverse.

Algebra files are line oriented; '#' starts a comment, blank lines are
ignored.  Directives:

    name IDENT
    generator IDENT PARITY          # PARITY is 0 (even) or 1 (odd)
    bracket LEFT RIGHT = T:C [T:C ...]

An IDENT is one token: no whitespace and no '#'; a generator's also has
no ':', which the parser refuses on its generator line.

Each T:C pair contributes coefficient C (an integer or integer/integer,
in ASCII digits) on generator T to [LEFT, RIGHT].  Each unordered
generator pair may carry at most one bracket line; writing the pair in
either order is allowed, the table stores the index-sorted form with
the sign that super skew-symmetry dictates.

Parsing fails at the parse site, not later inside a rank computation.
A malformed line raises AlgebraParseError with its line number.  The
axioms are checked by algebra.require_valid, on the table rewritten in
the basis adapted to [g, g], which is sparse; they hold there exactly
when they hold in the file's basis.  The rewrite and the verdict are
kept on the algebra returned, whose bracket table is read-only, so the
rank engine reuses the one and does not validate again.  A table that
fails raises AlgebraValidationError with validate's messages on the
table as written, so they name the file's generators; they carry no
line number.  _parse_table is the parse alone: `compute` hands its
table to betti_table, which refuses by size before it calls
require_valid, so a table too big to rank is refused unvalidated.
Reports are written by reports.emit_report.
"""

from __future__ import annotations

import io
import re
from fractions import Fraction
from typing import Dict, List, Tuple

from .algebra import LieSuperalgebra, require_valid
from .limits import AlgebraParseError

# ASCII digits only: \d would admit every Unicode decimal digit
_RATIONAL_RE = re.compile(r"^[+-]?[0-9]+(/[1-9][0-9]*)?$")


def _parse_rational(token: str, lineno: int):
    """An int, or a Fraction for num/den; LieSuperalgebra scales it to ints."""
    # a plain integer, the usual coefficient, skips the regex
    digits = token[1:] if token[:1] in ("+", "-") else token
    if not (digits.isdigit() and digits.isascii()) and not _RATIONAL_RE.match(token):
        raise AlgebraParseError("malformed rational %r" % token, lineno)
    num, _, den = token.partition("/")
    try:
        return Fraction(int(num), int(den)) if den else int(num)
    except ValueError as exc:
        # a numeral over the interpreter's integer-conversion limit
        raise AlgebraParseError("rational of %d characters: %s"
                                % (len(token), exc), lineno) from None


def parse_algebra(text) -> LieSuperalgebra:
    """Parse and validate an algebra definition file."""
    alg = _parse_table(text)
    require_valid(alg)
    return alg


def _lines(text: str) -> List[str]:
    r"""The lines of text as an editor numbers them: universal newlines end
    a line at \n, \r\n or \r alone, where str.splitlines would also end
    one at \v, \f, \x1c-\x1e, \x85, U+2028 and U+2029, inside a comment
    too."""
    return io.StringIO(text, newline=None).readlines()


def _parse_table(text) -> LieSuperalgebra:
    """The algebra of a definition file, parsed but not validated."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            # number lines as the parser below does, up to the bad byte
            line = len(_lines(text[:exc.start].decode("utf-8") + "."))
            raise AlgebraParseError("byte 0x%02x is not UTF-8 (%s)"
                                    % (text[exc.start], exc.reason), line) from None
    name = None
    gens: List[Tuple[str, int]] = []
    gen_index: Dict[str, int] = {}
    brackets: Dict[Tuple[int, int], Dict[int, Fraction]] = {}
    pair_line: Dict[Tuple[int, int], int] = {}
    lines = _lines(text)
    for lineno, raw in enumerate(lines, start=1):
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
            if ":" in gname:
                # a bracket's target:coeff could not name it
                raise AlgebraParseError("generator name %r contains ':'" % gname, lineno)
            if gname in gen_index:
                raise AlgebraParseError("duplicate generator %r" % gname, lineno)
            if ptok not in ("0", "1"):
                raise AlgebraParseError("parity must be 0 or 1, got %r" % ptok, lineno)
            gen_index[gname] = len(gens)
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
                tname, colon, ctext = tok.partition(":")
                if not colon:
                    raise AlgebraParseError("expected target:coeff, got %r" % tok, lineno)
                k = gen_index.get(tname)
                if k is None:
                    raise AlgebraParseError("unknown generator %r" % tname, lineno)
                if k in targets:
                    raise AlgebraParseError("generator %r repeated in bracket result"
                                            % tname, lineno)
                targets[k] = _parse_rational(ctext, lineno)
            if il > ir:
                # [left, right] = -(-1)^{|l||r|} [right, left]
                flip = 1 if gens[il][1] and gens[ir][1] else -1
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
        raise AlgebraParseError("missing 'name' directive", max(1, len(lines)))
    if not gens:
        raise AlgebraParseError("no generators defined", max(1, len(lines)))
    return LieSuperalgebra(name, gens, brackets)


def format_algebra(alg: LieSuperalgebra) -> str:
    """Render an algebra in the file grammar; parse_algebra inverts this.

    Every name must be one nonempty token without '#', and a generator's
    without ':' too; ValueError names the first name that is not.
    """
    names = [g.name for g in alg.generators]
    for name, banned in ((alg.name, "#"), *((n, "#:") for n in names)):
        if name.split() != [name] or any(c in name for c in banned):
            raise ValueError("a definition file cannot carry the name %r" % name)
    lines = ["name %s" % alg.name]
    for g in alg.generators:
        lines.append("generator %s %d" % (g.name, g.parity))
    for (i, j) in sorted(alg.brackets):
        terms = " ".join("%s:%s" % (names[k], c)
                         for k, c in sorted(alg.brackets[(i, j)].items()))
        lines.append("bracket %s %s = %s" % (names[i], names[j], terms))
    return "\n".join(lines) + "\n"

