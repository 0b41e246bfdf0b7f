"""Command line interface.

Verbs: `even` and `odd` print Betti tables for the built-in families,
`compute` does the same for an algebra file, `verify` adjudicates the
closed-form formulas against the rank engine on a grid.  All output is
byte-deterministic; `verify` prints its elapsed time to stderr.  Exit
codes: 0 success, 1 usage or parse error (a negative --column-cap
included), 2 validation error, 3 resource refusal (a --q-max over
MAX_Q_MAX, a matrix over the column cap, a top codomain, or on the odd
verify grid psi's, over 100 times the cap in rows, or a verify grid
over MAX_GRID_POINTS), 4 verification mismatch, 5 internal error (a
failed invariant check, such as an inconsistent CohomologyReport,
reported as one line on stderr).

At start-up this module loads only argparse and limits, which holds the
size limits and checks and every error type main catches.  `even`,
`odd` and `verify` run all their refusals there, from the arguments
alone, so a refused command never loads the engine; `compute` refuses
a negative or oversized --q-max before it reads its file, then parses
it (exit 1), then refuses by size (exit 3), then validates it (exit 2):
betti_table makes its size refusals before require_valid.  Each verb
imports what it calls inside the branch that calls it: the public
names from the package, whose lazy namespace loads each module on
first use, and the private ones (_parse_table, the formula report
builders) from their own modules.  So a verb loads only the modules it
reaches, `--method formula` loads formulas and reports and no module
of the rank engine, and a name patched on the package, or a private
name patched on its module, is the one the verbs call.
"""

from __future__ import annotations

import argparse
import sys

from .limits import (DEFAULT_COLUMN_CAP, AlgebraParseError, CodomainTooLarge,
                     ColumnCapExceeded, DegreeLimitExceeded, GridTooLarge,
                     ReportInvariantError, check_column_cap, check_degree,
                     check_grid, even_family_shape, odd_family_shape)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_RESOURCE = 3
EXIT_MISMATCH = 4
EXIT_INTERNAL = 5


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; this interface reserves 2
    # for validation, so usage problems exit 1 instead
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, "%s: error: %s\n" % (self.prog, message))


def _column_cap(text: str) -> int:
    try:
        cap = int(text)
    except ValueError:
        # argparse's own wording for a bad int
        raise argparse.ArgumentTypeError("invalid int value: %r" % text) from None
    if cap < 0:
        raise argparse.ArgumentTypeError("must be nonnegative, got %d" % cap)
    return cap


def _add_column_cap(p):
    p.add_argument("--column-cap", type=_column_cap, default=DEFAULT_COLUMN_CAP,
                   metavar="N", help="refuse coboundary matrices wider than N "
                   "(default: %d)" % DEFAULT_COLUMN_CAP)


def _add_output_options(p):
    p.add_argument("--format", choices=("text", "json", "csv"), default="text",
                   help="output format (default: text)")
    _add_column_cap(p)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="heisenberg-cohomology",
                     description="Exact Betti numbers of Heisenberg Lie "
                     "superalgebras, by matrix rank or closed formula.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="VERB",
                                parser_class=_Parser)

    p_even = sub.add_parser("even",
                            help="Betti table of the even-center family h_{n,m}")
    p_even.add_argument("--n", type=int, required=True)
    p_even.add_argument("--m", type=int, required=True)
    p_even.add_argument("--q-max", type=int, required=True)
    _add_output_options(p_even)
    p_even.set_defaults(func=_cmd_family)

    p_odd = sub.add_parser("odd",
                           help="Betti table of the odd-center family h_n")
    p_odd.add_argument("--n", type=int, required=True)
    p_odd.add_argument("--q-max", type=int, required=True)
    _add_output_options(p_odd)
    p_odd.set_defaults(func=_cmd_family)

    # closed forms exist only for the built-in families: no --method on compute
    for p in (p_even, p_odd):
        p.add_argument("--method", choices=("rank", "formula", "both"),
                       default="rank",
                       help="rank: exact matrix ranks; formula: closed forms; "
                       "both: interleaved (default: rank)")

    p_comp = sub.add_parser("compute",
                            help="Betti table of an algebra definition file")
    p_comp.add_argument("--algebra", required=True, metavar="FILE")
    p_comp.add_argument("--q-max", type=int, required=True)
    _add_output_options(p_comp)
    p_comp.set_defaults(func=_cmd_compute)

    p_ver = sub.add_parser("verify",
                           help="compare closed-form formulas against ranks")
    p_ver.add_argument("--family", choices=("even", "odd"), required=True)
    p_ver.add_argument("--n-max", type=int, required=True)
    p_ver.add_argument("--m-max", type=int, default=None)
    p_ver.add_argument("--q-max", type=int, required=True)
    p_ver.add_argument("--format", choices=("text", "json"), default="text")
    _add_column_cap(p_ver)
    p_ver.set_defaults(func=_cmd_verify)
    return parser


def _emit(reports, fmt: str) -> int:
    from . import emit_report
    sys.stdout.buffer.write(emit_report(reports, fmt))
    sys.stdout.buffer.flush()
    return EXIT_OK


def _cmd_family(args) -> int:
    """Reports of the built-in family the verb names, `even` or `odd`.

    The rank route checks every degree against the column cap from the
    family's shape alone, so a refusal comes before the family is built.
    """
    even = args.command == "even"
    params = (args.n, args.m) if even else (args.n,)
    shape = (even_family_shape if even else odd_family_shape)(*params)
    if args.q_max < 0:
        raise ValueError("--q-max must be nonnegative")
    check_degree(args.q_max)
    ranked = formula = None
    if args.method in ("rank", "both"):
        check_column_cap(*shape, args.q_max, args.column_cap)
        from . import betti_table, make_heisenberg_even, make_heisenberg_odd
        build = make_heisenberg_even if even else make_heisenberg_odd
        ranked = betti_table(build(*params), args.q_max, args.column_cap)
    if args.method in ("formula", "both"):
        from .formulas import even_formula_report, odd_formula_report
        formula = even_formula_report if even else odd_formula_report
    reports = []
    for q in range(args.q_max + 1):
        if ranked is not None:
            reports.append(ranked[q])
        if formula is not None:
            reports.append(formula(*params, q))
    return _emit(reports, args.format)


def _cmd_compute(args) -> int:
    # the degree's refusals first, in _cmd_family's order, so a bad
    # --q-max costs no read, parse or validation of the file
    if args.q_max < 0:
        raise ValueError("--q-max must be nonnegative")
    check_degree(args.q_max)
    with open(args.algebra, "rb") as fh:
        text = fh.read()
    from . import betti_table
    from .fileformats import _parse_table
    # unvalidated: betti_table refuses by size before it validates
    return _emit(betti_table(_parse_table(text), args.q_max, args.column_cap),
                 args.format)


def _verify_text(res) -> str:
    head = "verify family=%s n_max=%d" % (res.family, res.n_max)
    if res.m_max is not None:
        head += " m_max=%d" % res.m_max
    head += " q_max=%d" % res.q_max
    lines = [head]
    lines.extend(c.describe() for c in res.checks)
    lines.append("checks: %d" % len(res.checks))
    lines.append("failures: %d" % len(res.failures))
    lines.append("deviations: %d" % len(res.deviations))
    lines.append("result: %s" % ("OK" if res.ok() else "MISMATCH"))
    return "\n".join(lines) + "\n"


def _verify_json(res) -> str:
    import json  # only verify --format json needs it
    payload = {
        "family": res.family,
        "n_max": res.n_max,
        "m_max": res.m_max,
        "q_max": res.q_max,
        "checks": [dict(zip(c._fields, c), ok=c.ok) for c in res.checks],
        "failures": len(res.failures),
        "deviations": len(res.deviations),
        "ok": res.ok(),
    }
    return json.dumps(payload, indent=2) + "\n"


def _cmd_verify(args) -> int:
    check_grid(args.family, args.n_max, args.m_max, args.q_max, args.column_cap)
    from . import verify_family
    res = verify_family(args.family, args.n_max, args.m_max, args.q_max,
                        args.column_cap)
    text = _verify_text(res) if args.format == "text" else _verify_json(res)
    sys.stdout.buffer.write(text.encode("utf-8"))
    sys.stdout.buffer.flush()
    print("elapsed: %.2fs" % res.elapsed, file=sys.stderr)
    return EXIT_OK if res.ok() else EXIT_MISMATCH


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with an int status: 0 after --help, EXIT_USAGE
        # on a usage error (the parser's own error())
        return exc.code
    try:
        return args.func(args)
    except AlgebraParseError as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except DegreeLimitExceeded as exc:
        # the library names a degree; here it came from the option
        print("resource refusal: refusing --q-max %d, limit is %d"
              % (exc.degree, exc.limit), file=sys.stderr)
        return EXIT_RESOURCE
    except (ColumnCapExceeded, CodomainTooLarge, GridTooLarge) as exc:
        print("resource refusal: %s" % exc, file=sys.stderr)
        return EXIT_RESOURCE
    except OSError as exc:
        print("cannot read input: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except (ReportInvariantError, AssertionError) as exc:
        print("internal error: %s" % exc, file=sys.stderr)
        return EXIT_INTERNAL
    except ValueError as exc:
        # AlgebraValidationError included
        print("validation error: %s" % exc, file=sys.stderr)
        return EXIT_VALIDATION


def run():
    sys.exit(main())


if __name__ == "__main__":
    run()
