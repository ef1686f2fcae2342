"""Stable scalar special functions used throughout the package.

Everything here is polynomial or integer-order: the Kummer function
Phi(-n, b; x) with nonpositive-integer first argument, the terminating
2F0 sum, generalized Laguerre polynomials, integer-order Bessel J and I,
and log-factorials.  Evaluation strategies are chosen for stability at
large degree (three-term recurrences, Miller-style normalized downward
recurrence), never naive alternating series.

The Kummer polynomial is also summed as its series, by
:func:`kummer_phi_series`, for large n at small n|x|: the sum stops once a
bound on its tail is below eps |sum|, and it is refused (None) where it
loses more than 4 digits to cancellation or needs over 200 terms, leaving
the recurrence as the fallback.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SpecValue",
    "log_factorial",
    "kummer_phi",
    "kummer_phi_seq",
    "kummer_phi_series",
    "hyp2f0_poly",
    "laguerre",
    "laguerre_seq",
    "bessel_j",
    "bessel_j_seq",
    "bessel_i",
    "bessel_i_scaled",
]


@dataclass(frozen=True)
class SpecValue:
    """A function value with an optional natural-log scaling exponent.

    The represented number is ``value * exp(log_scale)``; ``log_scale == 0``
    means ``value`` is the plain function value.
    """

    value: float
    log_scale: float = 0.0

    def unscaled(self) -> float:
        return self.value * math.exp(self.log_scale)


# logs of exact integer factorials (<= 1 ulp each); beyond 170! the factorial
# overflows double and lgamma's ~2 ulp sits below representability anyway
_LOG_FACTORIAL_TABLE = tuple(math.log(math.factorial(n)) for n in range(171))


def log_factorial(n: int) -> float:
    """Natural log of n!: exact-integer log table for n <= 170, lgamma above."""
    if n < 0:
        raise ValueError("log_factorial requires n >= 0")
    if n <= 170:
        return _LOG_FACTORIAL_TABLE[n]
    return math.lgamma(n + 1)


def _kummer_terms(b: int, x: float):
    # Phi(-n, b; x) for n = 0, 1, 2, ... by the forward degree recurrence
    f_prev, f = 1.0, 1.0 - x / b
    yield f_prev
    for n in itertools.count(1):
        yield f
        f_prev, f = f, ((b + 2 * n - x) * f - n * f_prev) / (n + b)


def kummer_phi_seq(nmax: int, b: int, x: float) -> np.ndarray:
    """All values Phi(-n, b; x) for n = 0..nmax, b >= 1 and any finite real x.

    Uses the three-term recurrence in the degree,

        Phi(-(n+1), b; x) = ((b + 2n - x) Phi(-n) - n Phi(-(n-1))) / (n + b),

    which follows from the contiguous recurrence
    a*Phi(a+1) + (a-b)*Phi(a-1) + (b-2a-x)*Phi(a) = 0 at a = -n.  Forward
    recursion is stable here (the Laguerre-type solution dominates).  For
    x > 0 the power series loses about 2 sqrt(n x) log10(e) digits to
    cancellation, all 16 near n x ~ 340; :func:`kummer_phi_series` sums it
    only where n x is small.
    """
    if nmax < 0 or b < 1:
        raise ValueError("kummer_phi_seq requires nmax >= 0 and integer b >= 1")
    return np.fromiter(_kummer_terms(b, x), dtype=float, count=nmax + 1)


def kummer_phi(n: int, b: int, x: float) -> float:
    """Kummer function Phi(-n, b; x), a degree-n polynomial in x, by n steps of the recurrence."""
    if n < 0 or b < 1:
        raise ValueError("kummer_phi requires n >= 0 and integer b >= 1")
    return next(itertools.islice(_kummer_terms(b, x), n, None))


# a series value may lose at most 4 of its 16 digits to cancellation (the limit
# suites' grids and benchmark spans reach 427, at lam r = 8), in at most 200 terms
_SERIES_MAX_LOSS, _SERIES_MAX_TERMS = 1e4, 200


def kummer_phi_series(n: int, b: int, x: float) -> float | None:
    """Phi(-n, b; x) from its terminating series in about sqrt(n|x|) + 20 terms, or None if refused.

    The term ratio -(n-j) x / ((b+j)(j+1)) falls in modulus with j, so once
    the next ratio rho is below 1 the tail is at most |t| rho / (1 - rho);
    the sum stops when that is below eps |sum|, or at its last term.  Its
    rounding error is about eps sum |t_j|, so the loss sum |t_j| / max(|sum|, 1)
    is counted against the larger of the value and Phi(-n, b; 0) = 1: for
    x >= 0, |Phi| <= e^{x/2}, and near a zero of Phi no method does better
    than absolutely.  A loss above 10^4, or a sum not done in 200 terms,
    returns None, and :func:`kummer_phi` is the fallback.
    """
    if n < 0 or b < 1:
        raise ValueError("kummer_phi_series requires n >= 0 and integer b >= 1")
    s = size = t = 1.0
    for j in range(n):
        if j == _SERIES_MAX_TERMS:
            return None
        t *= -(n - j) * x / ((b + j) * (j + 1))
        s += t
        size += abs(t)
        rho = abs((n - j - 1) * x / ((b + j + 1) * (j + 2)))
        if rho < 1.0 and abs(t) * rho <= 2.0**-53 * abs(s) * (1.0 - rho):
            break
    return s if size <= _SERIES_MAX_LOSS * max(abs(s), 1.0) else None


def hyp2f0_poly(m: int, n: int, x: float) -> float:
    """Terminating sum 2F0(-m, -n; x) = sum_j (-m)_j (-n)_j x^j / j!.

    Exactly symmetric in (m, n): arguments are ordered before summation so
    swapped calls produce bit-identical results.
    """
    if m < 0 or n < 0:
        raise ValueError("hyp2f0_poly requires m, n >= 0")
    if m > n:
        m, n = n, m
    s = 1.0
    t = 1.0
    for j in range(m):
        t *= (m - j) * (n - j) * x / (j + 1)
        s += t
    return s


def _laguerre_terms(k: int, x: float):
    # L^k_n(x) for n = 0, 1, 2, ... by the standard three-term recurrence
    p_prev, p = 1.0, 1.0 + k - x
    yield p_prev
    for n in itertools.count(1):
        yield p
        p_prev, p = p, ((2 * n + 1 + k - x) * p - (n + k) * p_prev) / (n + 1)


def laguerre_seq(nmax: int, k: int, x: float) -> np.ndarray:
    """Generalized Laguerre polynomials L^k_n(x) for n = 0..nmax.

    Standard three-term recurrence
    (n+1) L_{n+1} = (2n+1+k-x) L_n - (n+k) L_{n-1}.
    """
    if nmax < 0 or k < 0:
        raise ValueError("laguerre_seq requires nmax, k >= 0")
    return np.fromiter(_laguerre_terms(k, x), dtype=float, count=nmax + 1)


def laguerre(n: int, k: int, x: float) -> float:
    """Generalized Laguerre polynomial L^k_n(x)."""
    if n < 0 or k < 0:
        raise ValueError("laguerre requires n, k >= 0")
    return next(itertools.islice(_laguerre_terms(k, x), n, None))


def _bessel_start_index(base: int) -> int:
    # Start far enough above max(order, argument) that the minimal solution
    # dominates the downward recursion at the turning point.
    return base + 40 + int(10.0 * (base + 1) ** (1.0 / 3.0)) + int(2.0 * math.sqrt(base + 1))


def _miller_seq(nmax: int, x: float, sign: int, step: int) -> np.ndarray:
    # Miller's normalized downward recurrence (Gautschi, SIAM Rev. 9, 1967):
    # c_{k-1} = (2k/x) c_k + sign c_{k+1} from a start index well above
    # max(nmax, x), normalized with c_0 + 2 sum_{k>=1, step | k} c_k.  With
    # (sign, step) = (-1, 2) that is J_0 + 2 sum J_{2k} = 1, giving J_k(x);
    # with (+1, 1) it is I_0 + 2 sum I_k = e^x, giving e^{-x} I_k(x).
    out = np.zeros(nmax + 1)
    if x == 0.0:
        out[0] = 1.0
        return out
    base = max(nmax, int(math.ceil(x)))
    start = _bessel_start_index(base)
    c_up, c_cur = 0.0, 1e-300
    norm = 0.0
    for k in range(start, -1, -1):
        c_down = (2.0 * (k + 1) / x) * c_cur + sign * c_up
        c_up, c_cur = c_cur, c_down
        if abs(c_cur) > 1e250:
            c_cur *= 1e-250
            c_up *= 1e-250
            norm *= 1e-250
            out *= 1e-250
        if k <= nmax:
            out[k] = c_cur
        if k > 0 and k % step == 0:
            norm += 2.0 * c_cur
    return out / (c_cur + norm)


def bessel_j_seq(nmax: int, x: float) -> np.ndarray:
    """J_0(x)..J_nmax(x) for x >= 0 by normalized downward recurrence.

    Miller's algorithm: recurse J_{k-1} = (2k/x) J_k - J_{k+1} downward from a
    start index well above max(nmax, x), then normalize with
    J_0 + 2 sum_{k>=1} J_{2k} = 1.
    """
    if nmax < 0:
        raise ValueError("bessel_j_seq requires nmax >= 0")
    if x < 0:
        raise ValueError("bessel_j_seq requires x >= 0")
    return _miller_seq(nmax, x, -1, 2)


def _bessel_j_series(nu: int, x: float) -> float:
    # Ascending series with compensated summation; used only where the terms
    # do not alternate destructively (x small or order dominating argument).
    q = 0.25 * x * x
    term = math.exp(nu * math.log(0.5 * x) - log_factorial(nu)) if x > 0 else (1.0 if nu == 0 else 0.0)
    s = 0.0
    comp = 0.0
    j = 0
    while True:
        y = term - comp
        t = s + y
        comp = (t - s) - y
        s = t
        j += 1
        term *= -q / (j * (j + nu))
        if abs(term) <= 1e-18 * abs(s) + 5e-324 or j > 400:
            return s


def bessel_j(nu: int, x: float) -> float:
    """Bessel function of the first kind, integer order.

    Negative orders via J_{-nu} = (-1)^nu J_nu, negative arguments via
    J_nu(-x) = (-1)^nu J_nu(x).
    """
    sign = 1.0
    if nu < 0:
        nu = -nu
        if nu % 2:
            sign = -sign
    if x < 0:
        x = -x
        if nu % 2:
            sign = -sign
    if x == 0.0:
        return sign if nu == 0 else 0.0
    if x <= 6.0 or x * x <= 4.0 * (nu + 1):
        return sign * _bessel_j_series(nu, x)
    return sign * float(bessel_j_seq(nu, x)[nu])


def _bessel_i_series(nu: int, x: float) -> float:
    q = 0.25 * x * x
    term = math.exp(nu * math.log(0.5 * x) - log_factorial(nu)) if x > 0 else (1.0 if nu == 0 else 0.0)
    s = 0.0
    j = 0
    while True:
        s += term
        j += 1
        term *= q / (j * (j + nu))
        if term <= 1e-18 * s + 5e-324 or j > 500:
            return s


def bessel_i_scaled(nu: int, x: float) -> SpecValue:
    """Modified Bessel I_nu(x), scaled when the plain value would be huge.

    Returns ``SpecValue(e^{-x} I_nu(x), log_scale=x)`` for x > 500 and the
    plain value (log_scale 0) otherwise.
    """
    if x < 0:
        raise ValueError("bessel_i_scaled requires x >= 0")
    nu = abs(nu)
    if x <= 30.0:
        return SpecValue(_bessel_i_series(nu, x), 0.0)
    scaled = _miller_seq(nu, x, 1, 1)[nu]
    if x > 500.0:
        return SpecValue(scaled, x)
    return SpecValue(scaled * math.exp(x), 0.0)


def bessel_i(nu: int, x: float) -> float:
    """Modified Bessel function of the first kind, integer order, x >= 0.

    For x > 500 prefer :func:`bessel_i_scaled`; the plain value overflows
    near x ~ 709.
    """
    return bessel_i_scaled(nu, x).unscaled()
