"""Stable scalar special functions used throughout the package.

Everything here is polynomial or integer-order: the Kummer function Phi(-n, b; x) with nonpositive-integer first
argument, the terminating 2F0 sum, integer-order Bessel J and I, and log-factorials.  Evaluation strategies are
chosen for stability at large degree (three-term recurrences, Miller-style normalized downward recurrence), never
naive alternating series.  Given numpy arrays, kummer_phi_seq, hyp2f0_seq and bessel_j_seq run their lanes as one
recurrence, a numpy step per index, each lane the scalar call's floats bit for bit.

The confluent family is computed by one recurrence, the Kummer degree
recurrence: the Laguerre polynomial is L^(k)_n(x) = C(n+k, n) Phi(-n, 1+k; x),
and the terminating 2F0(-m, -n; x) = (q!/(q-p)!) x^p Phi(-p, 1+q-p; -1/x)
with p = min(m, n) and q = max(m, n) (DLMF 13.6, 18.5).  2F0 columns at one x
are one run of that recurrence on the lanes b = 1 + |m - n| of all their m.

The Kummer polynomial is also summed as its series, by
:func:`kummer_phi_series`, for large n at small n|x|: the sum stops once a
bound on its tail is below eps |sum|, and it is refused (None) where it
loses more than 4 digits to cancellation or needs over 200 terms, leaving
the recurrence as the fallback.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys

import numpy as np

__all__ = [
    "log_factorial",
    "kummer_phi",
    "kummer_phi_seq",
    "kummer_phi_series",
    "hyp2f0_seq",
    "bessel_j",
    "bessel_j_seq",
    "bessel_i_scaled",
]


# logs of exact integer factorials (<= 1 ulp each); beyond 170! the factorial
# overflows double and lgamma's ~2 ulp sits below representability anyway
_LOG_FACTORIAL_TABLE = tuple(math.log(math.factorial(n)) for n in range(171))
_FLOAT_PAST = 2**1024 - 2**970  # the least integer that float() rounds past the float range


def log_factorial(n: int) -> float:
    """Natural log of n!: exact-integer log table for n <= 170, lgamma above."""
    if n < 0:
        raise ValueError("log_factorial requires n >= 0")
    if n <= 170:
        return _LOG_FACTORIAL_TABLE[n]
    return math.lgamma(n + 1)


def _kummer_terms(b, x, s: float = 1.0):
    # s^n Phi(-n, b; x) for n = 0, 1, 2, ... by the forward degree recurrence, each step
    # carrying one more factor s (exact at s = 1), so s^n Phi is in range where Phi is not;
    # b and x may be arrays, one lane each, whose elementwise steps round as the scalar ones do
    f_prev, f = 1.0, s * (1.0 - x / b)
    yield f_prev
    yield f
    for n in itertools.count(1):
        f_prev, f = f, ((b + 2 * n - x) * s * f - n * s * s * f_prev) / (n + b)
        yield f


def kummer_phi_seq(nmax: int, b, x) -> np.ndarray:
    """All values Phi(-n, b; x) for n = 0..nmax, b >= 1 and any finite real x.

    Uses the three-term recurrence in the degree,

        Phi(-(n+1), b; x) = ((b + 2n - x) Phi(-n) - n Phi(-(n-1))) / (n + b),

    which follows from the contiguous recurrence
    a*Phi(a+1) + (a-b)*Phi(a-1) + (b-2a-x)*Phi(a) = 0 at a = -n.  Forward
    recursion is stable here (the Laguerre-type solution dominates).  For
    x > 0 the power series loses about 2 sqrt(n x) log10(e) digits to
    cancellation, all 16 near n x ~ 340; :func:`kummer_phi_series` sums it
    only where n x is small.

    With numpy 1-D arrays b and x (or one of them), each (b[i], x[i]) is a
    lane: the result has one row per lane, all lanes run together, one numpy
    step per degree, and row i is the scalar call's float array at
    (b[i], x[i]), bit for bit.  A lane whose values leave the float range
    turns inf or NaN silently, as Python floats do.
    """
    lanes = isinstance(b, np.ndarray) or isinstance(x, np.ndarray)
    if nmax < 0 or (np.any(b < 1) if lanes else b < 1):
        raise ValueError("kummer_phi_seq requires nmax >= 0 and integer b >= 1")
    if not lanes:
        return np.fromiter(_kummer_terms(b, x), dtype=float, count=nmax + 1)
    # float b: its steps are exact, as the scalar run's integer ones, and skip numpy's int-to-float casts
    b, x = np.broadcast_arrays(np.asarray(b, dtype=float), np.asarray(x, dtype=float))
    out = np.empty((len(b), nmax + 1))
    with np.errstate(over="ignore", invalid="ignore"):
        for n, values in zip(range(nmax + 1), _kummer_terms(b, x)):
            out[:, n] = values
    return out


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


def hyp2f0_seq(m, nmax: int, x: float) -> np.ndarray:
    """Terminating sums 2F0(-m, -n; x) = sum_j (-m)_j (-n)_j x^j / j! for n = 0..nmax, by one Kummer recurrence.

    Entry n is (q!/(q-p)!) x^p Phi(-p, 1+q-p; -1/x), p = min(m, n), q = max(m, n), read at step p of the
    recurrence's lane b = 1 + |m - n|: the float of a recurrence for that entry alone.  Carrying x^p through the
    recurrence keeps a value in range where x^p or Phi alone is not.  A 2F0 value beyond the float range is inf
    or NaN; q!/(q-p)! above 1e308 raises OverflowError.  With a numpy 1-D array m, row i is the scalar call's
    column at m[i], bit for bit, NaN where that call raises: a lane b runs the same floats whatever m reads it.
    """
    lanes, ms = isinstance(m, np.ndarray), np.atleast_1d(m)
    if nmax < 0 or np.any(ms < 0):
        raise ValueError("2F0(-m, -n; x) requires m, n >= 0")
    if x == 0.0:
        return np.ones((len(ms), nmax + 1) if lanes else nmax + 1)
    steps, bs = np.minimum(ms[:, None], np.arange(nmax + 1)), abs(ms[:, None] - np.arange(nmax + 1))
    table = np.empty((int(steps.max()) + 1, int(bs.max() - bs.min()) + 1))  # row p: step p of b = 1 + bs.min()..
    run = _kummer_terms(np.arange(1.0, 1.0 + table.shape[1]) + bs.min(), -1.0 / x, x)
    # silent, as Python floats are: lanes past their own step may overflow, and out-of-range values are inf or NaN
    with np.errstate(over="ignore", invalid="ignore"):
        for row, values in zip(table, run):
            row[:] = values
        out = table[steps, bs - bs.min()] * [_perms(q, nmax, lanes) for q in ms.tolist()]
    return out if lanes else out[0]


@functools.lru_cache(maxsize=1024)
def _perms(m: int, nmax: int, lane: bool = False) -> list[float]:
    # q!/(q-p)! for n = 0..nmax, p = min(m, n), q = max(m, n): exact integer running products, each rounded once,
    # raising OverflowError past the float range, or for a lane NaN there; kept per (m, nmax), read-only
    perms, perm = [], 1
    for n in range(nmax + 1):
        if n:
            perm = perm * (m - n + 1) if n <= m else perm * n // (n - m)
        perms.append(float(perm) if not lane or perm < _FLOAT_PAST else math.nan)
    return perms


# most downward steps one Miller recurrence may run, a fraction of a second
_MAX_MILLER_STEPS = 10**6


def _bessel_start_index(base: int) -> int:
    # Start far enough above max(order, argument) that the minimal solution
    # dominates the downward recursion at the turning point.
    return base + 40 + int(10.0 * (base + 1) ** (1.0 / 3.0)) + int(2.0 * math.sqrt(base + 1))


def _miller_seq(nmax, x, sign: int, step: int) -> np.ndarray:
    # Miller's normalized downward recurrence (Gautschi, SIAM Rev. 9, 1967):
    # c_{k-1} = (2k/x) c_k + sign c_{k+1} from a start index well above
    # max(nmax, x), normalized with c_0 + 2 sum_{k>=1, step | k} c_k.  With
    # (sign, step) = (-1, 2) that is J_0 + 2 sum J_{2k} = 1, giving J_k(x);
    # with (+1, 1) it is I_0 + 2 sum I_k = e^x, giving e^{-x} I_k(x).  With arrays nmax and x, a row per lane
    # (nmax[i], x[i]), all lanes run as one recurrence: a lane is (0, 0) above its own start index, (0, 1e-300)
    # there, and rescales on its own, the others multiplied by 1.0, so row i up to nmax[i] is the scalar run's
    # floats, or NaN where the step cap, or x = inf, refuses the lane
    if isinstance(x, np.ndarray):
        starts = [_bessel_start_index(max(n, math.ceil(min(2e6, v)))) for n, v in zip(nmax.tolist(), x.tolist())]
        starts = np.where(refused := np.array(starts) > _MAX_MILLER_STEPS, -1, starts)
        out = np.zeros((len(x), int(nmax.max()) + 1))
        c_up, c_cur, norm = np.zeros((3, len(x)))
        for k in range(int(starts.max()), -1, -1):
            c_cur[starts == k] = 1e-300
            c_up, c_cur = c_cur, (2.0 * (k + 1) / x) * c_cur + sign * c_up
            if (big := abs(c_cur) > 1e250).any():
                scale = np.where(big, 1e-250, 1.0)
                c_cur, c_up, norm, out = c_cur * scale, c_up * scale, norm * scale, out * scale[:, None]
            if k < out.shape[1]:
                out[:, k] = c_cur
            if k > 0 and k % step == 0:
                norm += 2.0 * c_cur
        return out / np.where(refused, math.nan, c_cur + norm)[:, None]
    start = _bessel_start_index(max(nmax, int(math.ceil(x))))
    if start > _MAX_MILLER_STEPS:
        raise ValueError(
            f"Bessel argument {x!r} at order {nmax} needs {start:.3g} recurrence steps,"
            f" above the cap of {_MAX_MILLER_STEPS}"
        )
    out = np.zeros(nmax + 1)
    c_up, c_cur, norm = 0.0, 1e-300, 0.0
    for k in range(start, -1, -1):
        c_up, c_cur = c_cur, (2.0 * (k + 1) / x) * c_cur + sign * c_up
        if abs(c_cur) > 1e250:
            c_cur, c_up, norm = c_cur * 1e-250, c_up * 1e-250, norm * 1e-250
            out *= 1e-250
        if k <= nmax:
            out[k] = c_cur
        if k > 0 and k % step == 0:
            norm += 2.0 * c_cur
    return out / (c_cur + norm)


def bessel_j_seq(nmax, x) -> np.ndarray:
    """J_0(x)..J_nmax(x) for x >= 0 by normalized downward recurrence.

    Miller's algorithm: recurse J_{k-1} = (2k/x) J_k - J_{k+1} downward from a
    start index well above max(nmax, x), then normalize with
    J_0 + 2 sum_{k>=1} J_{2k} = 1.  Raises ValueError where max(nmax, x)
    needs more than 10**6 recurrence steps.  Below x = 1e-30, 0 included,
    where one step could grow past the recurrence's rescaling, each J_k is
    its ascending series, as :func:`bessel_j` computes it.  With numpy 1-D
    arrays nmax and x, row i up to nmax[i] is the scalar call's floats at
    (nmax[i], x[i]), the Miller runs one recurrence, or NaN where it refuses.
    """
    if np.any(nmax < 0):
        raise ValueError("bessel_j_seq requires nmax >= 0")
    if np.any(x < 0):
        raise ValueError("bessel_j_seq requires x >= 0")
    if isinstance(x, np.ndarray):  # a series lane's Miller run, at x = 1, gives way to its series
        out = _miller_seq(nmax, np.where(x < 1e-30, 1.0, x), -1, 2)
        for i in np.flatnonzero(x < 1e-30).tolist():
            out[i, : nmax[i] + 1] = bessel_j_seq(int(nmax[i]), float(x[i]))
        return out
    if x < 1e-30:
        return np.array([_bessel_j_series(k, x) for k in range(nmax + 1)])
    return _miller_seq(nmax, x, -1, 2)


def _bessel_lead(nu: int, x: float) -> float:
    # (x/2)^nu / nu!, the first term of J_nu's and I_nu's ascending series: 1 or 0 where x/2 is 0 (x = 0 or 5e-324)
    return math.exp(nu * math.log(0.5 * x) - log_factorial(nu)) if 0.5 * x > 0 else float(nu == 0)


def _bessel_j_series(nu: int, x: float) -> float:
    # Ascending series with compensated summation; used only where the terms
    # do not alternate destructively (x small or order dominating argument).
    q = 0.25 * x * x
    term = _bessel_lead(nu, x)
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
    sign = -1.0 if nu % 2 and (nu < 0) != (x < 0) else 1.0
    nu, x = abs(nu), abs(x)
    if x == 0.0:
        return sign if nu == 0 else 0.0
    if x <= 6.0 or x * x <= 4.0 * (nu + 1):
        return sign * _bessel_j_series(nu, x)
    return sign * float(bessel_j_seq(nu, x)[nu])


def _bessel_i_series(nu: int, x: float, term: float) -> float:
    # I_nu(x)'s ascending series from its first term, (x/2)^nu/nu!, or that series divided by its first term at 1.0
    q = 0.25 * x * x
    s = 0.0
    j = 0
    while True:
        s += term
        j += 1
        term *= q / (j * (j + nu))
        if term <= 1e-18 * s + 5e-324 or j > 500:
            return s


def bessel_i_scaled(nu: int, x: float) -> tuple[float, float]:
    """Modified Bessel I_nu(x) as ``(value, log_scale)``, I_nu(x) = value * e^log_scale.

    Returns ``(e^{-x} I_nu(x), x)`` for x > 500, where the plain value would
    be huge; for 0 < x <= 30 where the plain value would fall below the
    normal float range, ``(I_nu(x) / t, log t)`` with t = (x/2)^nu / nu!,
    the series' first term; and ``(I_nu(x), 0.0)`` otherwise.  Raises
    ValueError where max(nu, x) needs more than 10**6 recurrence steps.
    """
    if x < 0:
        raise ValueError("bessel_i_scaled requires x >= 0")
    nu = abs(nu)
    if x <= 30.0:
        if (value := _bessel_i_series(nu, x, _bessel_lead(nu, x))) >= sys.float_info.min or x == 0.0:
            return value, 0.0
        # log t from log x, since x/2 itself is 0 at x = 5e-324
        return _bessel_i_series(nu, x, 1.0), nu * (math.log(x) - math.log(2.0)) - log_factorial(nu)
    scaled = float(_miller_seq(nu, x, 1, 1)[nu])
    if x > 500.0:
        return scaled, x
    return scaled * math.exp(x), 0.0
