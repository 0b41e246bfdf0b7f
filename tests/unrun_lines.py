"""The lines of the package that the tier-1 tests never run.

    python tests/unrun_lines.py [PYTEST ARGS ...]

sets a line tracer (sys.settrace, and threading.settrace for threads),
limited to the code of src/heisenberg_cohomology, runs the tier-1
tests in this process (pytest -q over tests/, or the arguments given),
and prints every executable line of the package that never ran: a line
is executable when some instruction of a code object compiled from the
module carries it (co_lines()).  It exits 1 if any unrun line is
outside ALLOWED, or if an entry of ALLOWED matches no unrun line (a
stale exemption, printed, so none outlives its line), and 0 otherwise,
whatever pytest's own status: under tracing a timed test may fail
that passes untraced, and the tier-1 run decides pass or fail.  Child
processes are not traced, so the lines that run only in one are
allowed.

Standard library and pytest only; the file has no test_ prefix, so
pytest does not collect it.
"""

import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "heisenberg_cohomology"

# (module, function, the line's source or None for each of its lines)
ALLOWED = {
    # the console script's entry and the module guard run only in a
    # child process
    ("cli", "run", None),
    ("cli", "<module>", "run()"),
}


def executable_lines(path: Path) -> dict:
    """{line: qualified name of its innermost code object} for every
    line an instruction of the module's code carries."""
    lines = {}
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        for _, _, line in code.co_lines():
            if line is not None and line > 0:
                # a nested code object is popped later and overrides
                lines[line] = getattr(code, "co_qualname", code.co_name)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def traced_run(args) -> set:
    """The (file, line) pairs of the package that ran under pytest.main(args)."""
    ran = set()
    prefix = str(PACKAGE) + "/"

    def local(frame, event, arg):
        ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def trace(frame, event, arg):
        if frame.f_code.co_filename.startswith(prefix):
            ran.add((frame.f_code.co_filename, frame.f_lineno))
            return local
        return None

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import pytest

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    print("pytest exited %s under tracing" % status)
    return ran


def main(argv) -> int:
    ran = traced_run(argv or ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    unrun, allowed, used = 0, 0, set()
    for path in sorted(PACKAGE.rglob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        for line, owner in sorted(executable_lines(path).items()):
            if (str(path), line) in ran:
                continue
            text = source[line - 1].strip()
            entry = next((e for e in ((path.stem, owner, None), (path.stem, owner, text))
                          if e in ALLOWED), None)
            ok = entry is not None
            used.add(entry)
            allowed += ok
            unrun += not ok
            print("%s %s:%d (%s): %s" % ("allowed" if ok else "UNRUN  ",
                                         path.relative_to(ROOT), line, owner, text))
    stale = sorted(ALLOWED - used, key=repr)
    for entry in stale:
        print("STALE   allowlist entry %r matches no unrun line" % (entry,))
    print("%d unrun lines outside the allowlist, %d allowed, %d stale allowlist entries"
          % (unrun, allowed, len(stale)))
    return 1 if unrun or stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
