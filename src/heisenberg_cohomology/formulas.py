"""Closed-form Betti number formulas for the two Heisenberg families.

These are pure integer evaluators, independent of the matrix engine;
the verify harness compares them against exact ranks degree by degree.
For the odd-center family two closed forms are provided: one assembled
from the kernel-dimension recursion that underlies its derivation
(`dim_h_odd_proof`), and one transcribed literally from its fully
expanded binomial display (`dim_h_odd_displayed`).  They are NOT the
same function: the expanded display disagrees with the rank oracle in
low degrees (first at n=1, q=2), which is exactly what the comparison
harness is built to surface, so the transcription below must not be
"fixed" to agree.

even_formula_report and odd_formula_report give a family member's
CohomologyReport from the closed forms alone.  This module imports only
limits and reports, so the formula route loads no rank engine module.
Those two import reports when called, so a caller that needs only the
closed forms (reference values, say) compiles no report code.
"""

from __future__ import annotations

from itertools import accumulate
from math import comb

from .limits import _graded_dims, even_family_shape, graded_dim, odd_family_shape, sym_power_dim


def binom(a: int, b: int) -> int:
    """C(a, b), zero outside 0 <= b <= a."""
    if b < 0 or b > a:
        return 0
    return comb(a, b)


def delta(a: int, b: int) -> int:
    return 1 if a == b else 0


def dim_h_even(n: int, m: int, q: int) -> int:
    """dim H^q of the even-center family h_{n,m}."""
    if n < 1 or m < 1:
        raise ValueError("h_{n,m} needs n >= 1 and m >= 1")
    if q < 0:
        return 0
    total = sym_power_dim(m, q)
    for p in range(q):
        total += (binom(2 * n, q - p) - binom(2 * n, q - 2 - p)) * sym_power_dim(m, p)
    return total


def ker_psi_dim(t: int, n: int) -> int:
    """Kernel dimension of the degree-t wedge map psi for h_n.

    Independent of the power l of the central dual in tau; the verify
    harness checks this against kernel_dim(psi_matrix(t, n, l)) for
    l = 1, 2, 3.
    """
    if n < 1:
        raise ValueError("n must be positive")
    return _kernels(n, _graded_dims((n, n), t))[t] if t >= 0 else 0


def _kernels(n: int, dims: list) -> list:
    """[ker_psi_dim(t, n) for t < len(dims)], dims the graded_dim series
    of (n|n).  ker_psi_dim(t, n) is delta(t, n) plus the alternating sum
    over i >= 1 of graded_dim((n, n), t - 2i) - delta(t - 2i, n), which
    telescopes: K(t) + K(t - 2) = delta(t, n) + graded_dim((n, n), t - 2),
    so each kernel is one step from the one two below it."""
    out = []
    for t in range(len(dims)):
        out.append(delta(t, n) + (dims[t - 2] - out[t - 2] if t >= 2 else 0))
    return out


def _odd_cocycle_dims(n: int, top: int) -> list:
    """[dim Z^q(h_n) for q = 0..top] in O(top) steps from one graded_dim
    series: the z-dual-free monomials plus one kernel per z-power,
    dim Z^q = graded_dim((n, n), q) + sum_{s<q} ker_psi_dim(s, n)."""
    dims = _graded_dims((n, n), top)
    return [d + z for d, z in zip(dims, accumulate(_kernels(n, dims), initial=0))]


def dim_h_odd_proof(n: int, q: int) -> int:
    """dim H^q of the odd-center family h_n, from the kernel recursion:
    dim H^q = dim Z^q + dim Z^{q-1} - dim C^{q-1}, both dim Z from one
    series, in O(q) steps."""
    if n < 1:
        raise ValueError("n must be positive")
    if q < 0:
        return 0
    z = _odd_cocycle_dims(n, q)
    return z[q] + (z[q - 1] if q else 0) - graded_dim((n, n + 1), q - 1)


def odd_cocycle_dim(n: int, q: int) -> int:
    """dim Z^q(h_n): z-dual-free monomials plus one kernel per z-power."""
    if n < 1:
        raise ValueError("n must be positive")
    return _odd_cocycle_dims(n, q)[q] if q >= 0 else 0


def even_cocycle_dim(n: int, m: int, q: int) -> int:
    """dim Z^q(h_{n,m}): exactly the z-dual-free monomials."""
    if n < 1 or m < 1:
        raise ValueError("h_{n,m} needs n >= 1 and m >= 1")
    if q < 0:
        return 0
    return graded_dim((2 * n, m), q)


def even_formula_report(n: int, m: int, q: int):
    """The CohomologyReport of h_{n,m} in degree q, from the closed forms."""
    from .reports import METHOD_FORMULA_EVEN, _formula_report
    return _formula_report(even_family_shape(n, m),
                           lambda p: even_cocycle_dim(n, m, p),
                           dim_h_even(n, m, q), METHOD_FORMULA_EVEN, q)


def odd_formula_report(n: int, q: int):
    """The CohomologyReport of h_n in degree q, from the closed forms."""
    from .reports import METHOD_FORMULA_ODD_PROOF, _formula_report
    return _formula_report(odd_family_shape(n), lambda p: odd_cocycle_dim(n, p),
                           dim_h_odd_proof(n, q), METHOD_FORMULA_ODD_PROOF, q)


def dim_h_odd_displayed(n: int, q: int) -> int:
    """The fully expanded closed form for dim H^q(h_n), verbatim.

    A literal term-for-term evaluation of the expanded binomial display,
    including the q mod 4 bookkeeping of its correction sum.
    Deliberately NOT reconciled with dim_h_odd_proof: the two disagree
    (first at n=1, q=2, where this gives 3 and the rank oracle gives 2),
    and the comparison harness exists to report exactly that, so the
    transcription below must not be "fixed" to agree.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if q < 0:
        return 0
    total = sym_power_dim(n, q)
    for p in range(q):
        total += (binom(n + 1, q - p) * sym_power_dim(n, p)
                  - binom(n, q - p) * sym_power_dim(n + 1, p))
    bound = q // 4 + (1 if q % 4 in (2, 3) else 0)
    for i in range(1, bound + 1):
        shift = q - 4 * i
        for p in range(shift):
            total += binom(n + 2, shift + 1 - p) * sym_power_dim(n, p)
        total += (n + 2) * sym_power_dim(n, shift)
        total += sym_power_dim(n, shift + 1)
        total += delta(shift + 1, n) + 2 * delta(shift + 2, n) + delta(shift + 3, n)
    return total
