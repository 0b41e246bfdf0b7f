"""Size arithmetic, refusals and error types, with no engine behind them.

Every refusal is decided here from sizes alone: the superdimension of a
family member (even_family_shape, odd_family_shape), the dimension of
each cochain space (graded_dim, sym_power_dim) and the limits below.
check_degree refuses a degree over MAX_Q_MAX, check_column_cap a
coboundary matrix wider than the column cap or a top codomain over
CODOMAIN_ROWS_PER_COLUMN times it (_check_codomain, the one comparison
of a codomain with that limit), and check_grid every refusal of a
verify grid.  The error types the CLI reports are defined here too, so
the wording of every refusal and error lives in this one module.

It imports nothing from the package and only `math` from the standard
library, so a caller can refuse before any engine module is loaded;
the CLI does.  No other module re-exports these names: each comes from
here or the package.  The refusal types share one constructor,
_Rebuilt's: it keeps its arguments as the attributes a type names in
`_init_args` and formats the type's message template `_text` from them,
so each message is written once.  Each exception pickles and copies by
rebuilding through its constructor.
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
# column of the cap (500,000 at the default).  No engine route lists a
# codomain: each numbers only the rows its top d_q reaches.  The engine
# keeps the refusal so that what is refused does not depend on the
# route; what it bounds is the canonical codomain of each public builder
# (differential_matrix, lefschetz_block, psi_matrix), which refuses it
# at the default cap.
CODOMAIN_ROWS_PER_COLUMN = 100

# Largest grid verify_family accepts, in (n, m) points: n_max * m_max for
# the even family, n_max for the odd one.  Far above any grid the
# closed forms need checking on, and small enough that the per-point
# column-cap pre-check stays instant.
MAX_GRID_POINTS = 1000


class _Rebuilt:
    """Base of the refusal types below, and their one constructor: it
    keeps its arguments as the attributes named in `_init_args`, in
    order, and formats the class's message template `_text` from them.
    Pickle and copy call the constructor again with those attributes,
    then restore the instance dictionary (notes included)."""

    __slots__ = ()
    _init_args = ()

    def __init__(self, *args):
        if len(args) != len(self._init_args):
            raise TypeError("%s takes %d arguments but %d were given"
                            % (type(self).__name__, len(self._init_args), len(args)))
        vars(self).update(zip(self._init_args, args))
        super().__init__(self._text % vars(self))

    def __reduce__(self):
        return (type(self), tuple(getattr(self, a) for a in self._init_args),
                self.__dict__)


class DegreeLimitExceeded(_Rebuilt, RuntimeError):
    """Refusal of a degree over MAX_Q_MAX; `degree` is the one refused."""

    _init_args = ("degree", "limit")
    _text = "refusing degree %(degree)d, limit is %(limit)d"


class ColumnCapExceeded(_Rebuilt, RuntimeError):
    """Refusal to build a coboundary matrix wider than the cap."""

    _init_args = ("algebra_name", "q", "columns", "cap")
    _text = ("refusing %(algebra_name)s at q=%(q)d: matrix has %(columns)d columns, "
             "cap is %(cap)d (raise the cap to force the computation)")


class CodomainTooLarge(_Rebuilt, RuntimeError):
    """Refusal to build a coboundary matrix whose codomain has more rows
    than CODOMAIN_ROWS_PER_COLUMN times the column cap.  `codomain`
    names the space: C^{q+1} by default, psi's A^{q+2} in verify and
    psi_matrix, A^{q+2} in lefschetz_block."""

    _init_args = ("algebra_name", "q", "rows", "limit", "codomain")
    _text = ("refusing %%(algebra_name)s at q=%%(q)d: %%(codomain)s has %%(rows)d rows, "
             "limit is %%(limit)d (%d times the column cap; raise the cap to force "
             "the computation)" % CODOMAIN_ROWS_PER_COLUMN)

    def __init__(self, algebra_name: str, q: int, rows: int, limit: int,
                 codomain: str | None = None):
        super().__init__(algebra_name, q, rows, limit,
                         "codomain C^%d" % (q + 1) if codomain is None else codomain)


class GridTooLarge(_Rebuilt, RuntimeError):
    """Refusal to walk a verify grid with more points than the limit."""

    _init_args = ("points", "limit")
    _text = "refusing a verify grid of %(points)d points, limit is %(limit)d"


class AlgebraParseError(_Rebuilt, ValueError):
    """Malformed algebra file; `line` is the 1-based offending line."""

    _init_args = ("message", "line")
    _text = "line %(line)d: %(message)s"


class AlgebraValidationError(_Rebuilt, ValueError):
    """Bracket table that violates the axioms; `violations` lists how."""

    _init_args = ("violations",)

    def __init__(self, violations: list):
        ValueError.__init__(self, "algebra fails validation:\n  " + "\n  ".join(violations))
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
    # p odd factors: C(n, q - p) even masks times sym_power_dim(m, p),
    # which is C(m + p - 1, p) for p >= 1 (0 when m = 0)
    total = comb(n, q)
    for p in range(max(1, q - n), q + 1):
        total += comb(n, q - p) * comb(m + p - 1, p)
    return total


def _graded_dims(dims: tuple[int, int], top: int) -> list[int]:
    """[graded_dim(dims, q) for q = 0..top] as one series, in O(top)
    steps whatever the dimensions: f = (1 + t)^n / (1 - t)^m has
    (1 - t^2) f' = (n + m + (m - n) t) f, so its coefficients satisfy
    (q + 1) a_(q+1) = (n + m) a_q + (m - n + q - 1) a_(q-1), exactly."""
    n, m = dims
    if n < 0 or m < 0:
        raise ValueError("dimensions must be nonnegative")
    out = [1, n + m][:top + 1]
    for q in range(1, top):
        out.append(((n + m) * out[q] + (m - n + q - 1) * out[q - 1]) // (q + 1))
    return out


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


def _check_codomain(name: str, q: int, rows: int, cap: int,
                    codomain: str | None = None) -> None:
    """Refuse `rows` over CODOMAIN_ROWS_PER_COLUMN * cap with
    CodomainTooLarge, whose message names the space `codomain` (C^{q+1}
    when None); the one place that compares a codomain with its limit."""
    limit = CODOMAIN_ROWS_PER_COLUMN * cap
    if rows > limit:
        raise CodomainTooLarge(name, q, rows, limit, codomain)


def _checked_dims(name: str, superdim: tuple[int, int], top: int,
                  degrees, cap: int) -> dict[int, int]:
    """{q: dim C^q} for q = -1..top + 1, after refusing top over
    MAX_Q_MAX (before any dimension is counted), then each of `degrees`
    (in order) over the cap, and C^{top+1} over
    CODOMAIN_ROWS_PER_COLUMN * cap.  The dimensions are counted once,
    as one series (_graded_dims), in O(top) steps."""
    check_degree(top)
    dims = {-1: 0}
    dims.update(enumerate(_graded_dims(superdim, top + 1)))
    for q in degrees:
        if dims[q] > cap:
            raise ColumnCapExceeded(name, q, dims[q], cap)
    _check_codomain(name, top, dims[top + 1], cap)
    return dims


def check_column_cap(name: str, superdim: tuple[int, int], q_max: int,
                     column_cap: int = DEFAULT_COLUMN_CAP) -> dict[int, int]:
    """betti_table's size refusals for degrees 0..q_max (the first degree
    over the cap is named).  Needs only the superdimension, so a caller
    can refuse before the algebra is built.  Returns _checked_dims'
    dimensions, those betti_table would compute."""
    return _checked_dims(name, superdim, q_max, range(q_max + 1), column_cap)


def _check_psi_codomain(n: int, q_max: int, column_cap: int) -> None:
    """Refuse h_n's psi walk when its top codomain A^{q_max+2}, over
    dims (n|n), has more rows than CODOMAIN_ROWS_PER_COLUMN times the
    cap (CodomainTooLarge); from graded_dim alone, in O(q_max)."""
    _check_codomain(odd_family_shape(n)[0], q_max, graded_dim((n, n), q_max + 2),
                    column_cap, "psi's codomain A^%d" % (q_max + 2))


def check_grid(family: str, n_max: int, m_max: int | None, q_max: int,
               column_cap: int = DEFAULT_COLUMN_CAP) -> dict:
    """Every refusal of verify_family, from sizes alone, in its order.

    First the O(1) checks: ValueError for a bad grid, then GridTooLarge
    for one of more than MAX_GRID_POINTS, then DegreeLimitExceeded for a
    q_max over MAX_Q_MAX.  Then every grid point against the column cap,
    in grid order, and on the odd family every psi walk against its
    codomain bound (_check_psi_codomain).  Returns each point's
    check_column_cap dimensions, {(n, m): dims} in grid order (m None on
    the odd family), which verify_family hands on to the point.
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
        return {(n, m): check_column_cap(*even_family_shape(n, m), q_max, column_cap)
                for n in range(1, n_max + 1) for m in range(1, m_max + 1)}
    dims = {(n, None): check_column_cap(*odd_family_shape(n), q_max, column_cap)
            for n in range(1, n_max + 1)}
    for n in range(1, n_max + 1):
        _check_psi_codomain(n, q_max, column_cap)
    return dims
