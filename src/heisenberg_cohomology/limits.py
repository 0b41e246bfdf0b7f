"""Size arithmetic, refusals and error types, with no engine behind them.

Every refusal is decided here from sizes alone: the superdimension of a
family member (even_family_shape, odd_family_shape), the dimension of
each cochain space (graded_dim, sym_power_dim) and the limits below.
check_degree refuses a degree over MAX_Q_MAX, check_column_cap a
coboundary matrix wider than the column cap or a top codomain over
CODOMAIN_ROWS_PER_COLUMN times it, and check_grid every refusal of a
verify grid.  The error types the CLI reports are defined here too, so
the wording of every refusal and error lives in this one module.

It imports nothing from the package and only `math` from the standard
library, so a caller can refuse before any engine module is loaded;
the CLI does, and the engine modules re-export these names.  Each
exception pickles and copies by rebuilding through its constructor.
"""

from math import comb

DEFAULT_COLUMN_CAP = 5000

# Largest degree the engine accepts.  The column cap bounds the width of
# each degree, not how many degrees there are: with at most one odd
# generator dim C^q stops growing, so the cap never refuses, and the
# closed forms cost O(q^4) per table.  Every test, demo and benchmark
# degree is far below it.
MAX_Q_MAX = 100

# The codomain C^{q+1} of the top degree is nobody's domain, so the
# column cap does not bound it: it is refused beyond this many rows per
# column of the cap (500,000 at the default).  The full-matrix route
# numbers only the rows its top d_q reaches; what the refusal bounds is
# the last codomain the block route enumerates, A^{q+1}, and the top
# matrix the public differential_matrix would build.
CODOMAIN_ROWS_PER_COLUMN = 100

# Largest grid verify_family accepts, in (n, m) points: n_max * m_max for
# the even family, n_max for the odd one.  Far above any grid the
# closed forms need checking on, and small enough that the per-point
# column-cap pre-check stays instant.
MAX_GRID_POINTS = 1000


class _Rebuilt:
    """Mixin for the exceptions below: pickle and copy call the
    constructor again with the attributes named in `_init_args`, then
    restore the instance dictionary (notes included)."""

    __slots__ = ()
    _init_args = ()

    def __reduce__(self):
        return (type(self), tuple(getattr(self, a) for a in self._init_args),
                self.__dict__)


class DegreeLimitExceeded(_Rebuilt, RuntimeError):
    """Refusal of a degree over MAX_Q_MAX; `degree` is the one refused."""

    _init_args = ("degree", "limit")

    def __init__(self, degree: int, limit: int):
        super().__init__("refusing degree %d, limit is %d" % (degree, limit))
        self.degree = degree
        self.limit = limit


class ColumnCapExceeded(_Rebuilt, RuntimeError):
    """Refusal to build a coboundary matrix wider than the cap."""

    _init_args = ("algebra_name", "q", "columns", "cap")

    def __init__(self, algebra_name: str, q: int, columns: int, cap: int):
        super().__init__(
            "refusing %s at q=%d: matrix has %d columns, cap is %d "
            "(raise the cap to force the computation)"
            % (algebra_name, q, columns, cap))
        self.algebra_name = algebra_name
        self.q = q
        self.columns = columns
        self.cap = cap


class CodomainTooLarge(_Rebuilt, RuntimeError):
    """Refusal to build a coboundary matrix whose codomain has more rows
    than CODOMAIN_ROWS_PER_COLUMN times the column cap.  `codomain`
    names the space: C^{q+1} by default, psi's A^{q+2} in verify."""

    _init_args = ("algebra_name", "q", "rows", "limit", "codomain")

    def __init__(self, algebra_name: str, q: int, rows: int, limit: int,
                 codomain: str | None = None):
        if codomain is None:
            codomain = "codomain C^%d" % (q + 1)
        super().__init__(
            "refusing %s at q=%d: %s has %d rows, limit is %d "
            "(%d times the column cap; raise the cap to force the computation)"
            % (algebra_name, q, codomain, rows, limit, CODOMAIN_ROWS_PER_COLUMN))
        self.algebra_name = algebra_name
        self.q = q
        self.rows = rows
        self.limit = limit
        self.codomain = codomain


class GridTooLarge(_Rebuilt, RuntimeError):
    """Refusal to walk a verify grid with more points than the limit."""

    _init_args = ("points", "limit")

    def __init__(self, points: int, limit: int):
        super().__init__("refusing a verify grid of %d points, limit is %d"
                         % (points, limit))
        self.points = points
        self.limit = limit


class AlgebraParseError(_Rebuilt, ValueError):
    """Malformed algebra file; `line` is the 1-based offending line."""

    _init_args = ("message", "line")

    def __init__(self, message: str, line: int):
        super().__init__("line %d: %s" % (line, message))
        self.message = message
        self.line = line


class AlgebraValidationError(_Rebuilt, ValueError):
    """Bracket table that violates the axioms; `violations` lists how."""

    _init_args = ("violations",)

    def __init__(self, violations: list):
        super().__init__("algebra fails validation:\n  "
                         + "\n  ".join(violations))
        self.violations = list(violations)


class ReportInvariantError(ValueError):
    """A CohomologyReport whose fields break its own invariants: a fault
    in the engine, not in the user's input."""


def sym_power_dim(m: int, p: int) -> int:
    """Monomials of degree p in m commuting variables: C(m+p-1, p).

    Zero for p < 0; equals graded_dim((0, m), p) for all p.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    if p < 0:
        return 0
    if p == 0:
        return 1
    return comb(m + p - 1, p)


def graded_dim(dims: tuple[int, int], q: int) -> int:
    """Dimension of the degree-q component over a superspace of
    dimensions `dims` = (even_count, odd_count), any pair."""
    n, m = dims
    if n < 0 or m < 0:
        raise ValueError("dimensions must be nonnegative")
    if q < 0:
        return 0
    total = 0
    for p in range(q + 1):
        if q - p <= n:
            total += comb(n, q - p) * sym_power_dim(m, p)
    return total


def even_family_shape(n: int, m: int) -> tuple[str, tuple[int, int]]:
    """Name and superdimension (2n+1 | m) of h_{n,m}, without building it."""
    if n < 1 or m < 1:
        raise ValueError("h_{n,m} needs n >= 1 and m >= 1")
    return "h_{%d,%d}" % (n, m), (2 * n + 1, m)


def odd_family_shape(n: int) -> tuple[str, tuple[int, int]]:
    """Name and superdimension (n | n+1) of h_n, without building it."""
    if n < 1:
        raise ValueError("h_n needs n >= 1")
    return "h_%d" % n, (n, n + 1)


def check_degree(q_max: int) -> None:
    """Refuse a top degree over MAX_Q_MAX, in O(1)."""
    if q_max > MAX_Q_MAX:
        raise DegreeLimitExceeded(q_max, MAX_Q_MAX)


def _checked_dims(name: str, superdim: tuple[int, int], top: int,
                  degrees, cap: int) -> dict[int, int]:
    """{q: dim C^q} for -1, `degrees` and top + 1, after refusing top over
    MAX_Q_MAX, each of `degrees` (in order) over the cap, and C^{top+1}
    over CODOMAIN_ROWS_PER_COLUMN * cap."""
    check_degree(top)
    dims = {-1: 0}
    for q in degrees:
        dims[q] = graded_dim(superdim, q)
        if dims[q] > cap:
            raise ColumnCapExceeded(name, q, dims[q], cap)
    rows = dims[top + 1] = graded_dim(superdim, top + 1)
    limit = CODOMAIN_ROWS_PER_COLUMN * cap
    if rows > limit:
        raise CodomainTooLarge(name, top, rows, limit)
    return dims


def check_column_cap(name: str, superdim: tuple[int, int], q_max: int,
                     column_cap: int = DEFAULT_COLUMN_CAP) -> None:
    """betti_table's size refusals for degrees 0..q_max (the first degree
    over the cap is named).  Needs only the superdimension, so a caller
    can refuse before the algebra is built."""
    _checked_dims(name, superdim, q_max, range(q_max + 1), column_cap)


def _check_psi_codomain(n: int, q_max: int, column_cap: int) -> None:
    """Refuse h_n's psi walk when its top codomain A^{q_max+2}, over
    dims (n|n), has more rows than CODOMAIN_ROWS_PER_COLUMN times the
    cap (CodomainTooLarge); from graded_dim alone, in O(q_max)."""
    rows = graded_dim((n, n), q_max + 2)
    limit = CODOMAIN_ROWS_PER_COLUMN * column_cap
    if rows > limit:
        raise CodomainTooLarge(odd_family_shape(n)[0], q_max, rows, limit,
                               "psi's codomain A^%d" % (q_max + 2))


def check_grid(family: str, n_max: int, m_max: int | None, q_max: int,
               column_cap: int = DEFAULT_COLUMN_CAP) -> None:
    """Every refusal of verify_family, from sizes alone, in its order.

    First the O(1) checks: ValueError for a bad grid, then GridTooLarge
    for one of more than MAX_GRID_POINTS, then DegreeLimitExceeded for a
    q_max over MAX_Q_MAX.  Then every grid point against the column cap,
    in grid order, and on the odd family every psi walk against its
    codomain bound (_check_psi_codomain).
    """
    if n_max < 1 or q_max < 0:
        raise ValueError("need n_max >= 1 and q_max >= 0")
    if family == "even":
        if m_max is None or m_max < 1:
            raise ValueError("family 'even' needs m_max >= 1")
    elif family == "odd":
        if m_max is not None:
            raise ValueError("family 'odd' takes no m_max")
    else:
        raise ValueError("family must be 'even' or 'odd', got %r" % family)
    points = n_max * (m_max or 1)
    if points > MAX_GRID_POINTS:
        raise GridTooLarge(points, MAX_GRID_POINTS)
    check_degree(q_max)
    if family == "even":
        for n in range(1, n_max + 1):
            for m in range(1, m_max + 1):
                check_column_cap(*even_family_shape(n, m), q_max, column_cap)
    else:
        for n in range(1, n_max + 1):
            check_column_cap(*odd_family_shape(n), q_max, column_cap)
        for n in range(1, n_max + 1):
            _check_psi_codomain(n, q_max, column_cap)
