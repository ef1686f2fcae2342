"""Shared independent oracles for the test suite.

These deliberately avoid the library's evaluation strategies: power series
instead of recurrences, explicit matrix traces instead of closed-form sums,
matrix exponentials instead of assembled blocks, displaced states built
one ladder step at a time instead of U(g)'s closed form, so each check pits
two independent routes against each other.
"""

import cmath
import math

import mpmath as mp
import numpy as np
import pytest

from e2fock.fock import boundary_margin
from e2fock.specfun import bessel_j

mp.mp.dps = 40


def kummer_series(n: int, b: int, x) -> mp.mpf:
    """Phi(-n, b; x) by its terminating series.

    Working precision grows with the degree: the alternating sum cancels
    ~n/2 digits at moderate x, far beyond any fixed dps.
    """
    with mp.workdps(50 + n):
        s = mp.mpf(0)
        t = mp.mpf(1)
        for j in range(n + 1):
            s += t
            t = t * (-(n - j)) / ((b + j) * (j + 1)) * mp.mpf(x)
        return +s


def hyp2f0_series(m: int, n: int, x) -> mp.mpf:
    with mp.workdps(50 + min(m, n)):
        s = mp.mpf(0)
        for j in range(min(m, n) + 1):
            s += mp.rf(-m, j) * mp.rf(-n, j) / mp.factorial(j) * mp.mpf(x) ** j
        return +s


def hyp2f0_per_entry(m: int, n: int, x: float) -> float:
    """2F0(-m, -n; x) as one scalar Kummer recurrence for this entry alone, in Python floats.

    With p = min(m, n) and q = max(m, n) it runs p steps of the degree
    recurrence of x^j Phi(-j, 1+q-p; -1/x) and multiplies by q!/(q-p)!: the
    per-entry reference for the vectorized column of ``specfun.hyp2f0_seq``.
    """
    if x == 0.0:
        return 1.0
    p, q = min(m, n), max(m, n)
    b, y = 1 + q - p, -1.0 / x
    f_prev, f = 1.0, x * (1.0 - y / b)
    for j in range(1, p):
        f_prev, f = f, ((b + 2 * j - y) * x * f - j * x * x * f_prev) / (j + b)
    return math.perm(q, p) * (f if p else f_prev)


def laguerre_series(n: int, k: int, x) -> mp.mpf:
    with mp.workdps(50 + n):
        s = mp.mpf(0)
        for j in range(n + 1):
            s += (-1) ** j * mp.binomial(n + k, n - j) * mp.mpf(x) ** j / mp.factorial(j)
        return +s


def orthogonality_profile_mp(k: int, lam1: float, lam2: float, zmax: int) -> mp.mpf:
    """(D^lam1_k, D^lam2_k) summed over zeta <= zmax, in 40 digits.

    Every factor is an mpmath number: the Kummer values by their forward
    degree recurrence (stable, and exact to far below float rounding at this
    precision), the trace weights (zeta+a)!/zeta! as running products, and the
    prefactor (lam1 lam2/4)^a / a!^2 e^{-(lam1^2 + lam2^2)/8}, a = |k|, which no
    float range limits.
    """
    a = abs(k)
    with mp.workdps(40):
        def phis(lam):
            x = mp.mpf(lam) ** 2 / 4
            out = [mp.mpf(1), 1 - x / (1 + a)]
            for n in range(1, zmax):
                out.append(((1 + a + 2 * n - x) * out[n] - n * out[n - 1]) / (n + 1 + a))
            return out[: zmax + 1]

        total, weight = mp.mpf(0), mp.factorial(a)
        for zeta, (p1, p2) in enumerate(zip(phis(lam1), phis(lam2))):
            total += p1 * p2 * weight
            weight = weight * (zeta + 1 + a) / (zeta + 1)
        l1, l2 = mp.mpf(lam1), mp.mpf(lam2)
        return total * (l1 * l2 / 4) ** a / mp.factorial(a) ** 2 * mp.exp(-(l1**2 + l2**2) / 8)


def irrep_element_series(label, n: int, g) -> complex:
    """t^lam_{kn}(g) = i^{n-k} e^{-i(n phi + (k-n) psi)} J_{n-k}(lam r), k = label.k, one element at a time.

    J is the scalar :func:`specfun.bessel_j`, its ascending series for lam r <= 6,
    not the Miller sequence that ``e2group.irrep_row`` reads a whole row from.
    """
    k = label.k
    return 1j ** ((n - k) % 4) * cmath.exp(-1j * (n * g.phi + (k - n) * g.psi)) * bessel_j(n - k, label.lam * g.r)


def annihilator_ref(dim: int) -> np.ndarray:
    a = np.zeros((dim, dim), dtype=complex)
    for n in range(1, dim):
        a[n - 1, n] = math.sqrt(n)
    return a


def displaced_vacuum(g, dim: int) -> np.ndarray:
    """The transformed vacuum, the unit vector annihilated by gz: U(g)'s column 0 built as a state.

    Amplitudes are c_n = e^{-r^2/2} (-r e^{i(psi-phi)})^n / sqrt(n!), a
    coherent state with parameter -r e^{i(psi-phi)}.  Raises ValueError if
    the dropped tail mass exceeds 1e-20 e^{r^2}, i.e. dim is too small for
    this displacement.
    """
    r = g.r
    _check_vacuum_tail(r, dim)
    u = -r * np.exp(1j * (g.psi - g.phi))
    amps = np.zeros(dim, dtype=complex)
    amps[0] = math.exp(-0.5 * r * r)
    for n in range(1, dim):
        amps[n] = amps[n - 1] * u / math.sqrt(n)
    return amps


def _check_vacuum_tail(r: float, dim: int) -> None:
    # Tail of sum_{n>=dim} r^{2n}/n! bounded by the first term times a
    # geometric factor; requires r^2 < dim.
    if r == 0.0:
        return
    q = r * r / dim
    if q >= 1.0:
        raise ValueError(f"dim={dim} too small for displacement r={r}")
    log_first = 2 * dim * math.log(r) - math.lgamma(dim + 1)
    log_bound = log_first - math.log1p(-q)
    if log_bound > math.log(1e-20) + r * r:
        raise ValueError(f"dim={dim} too small for displacement r={r}: tail bound violated")


def displaced_basis(g, dim: int, n: int) -> np.ndarray:
    """The transformed number state, (gz*)^n / sqrt(n!) applied to the transformed vacuum.

    gz* = e^{-i phi} z* + r e^{-i psi}; this is U(g)'s column n, built one
    ladder step at a time.  Raises ValueError if n sits too close to the
    truncation boundary for the ladder relations to hold there (repeated
    application of the truncated gz* degrades a few levels before the
    static safe block, hence the +8).
    """
    if n < 0:
        raise ValueError("displaced_basis requires n >= 0")
    if g.r == 0.0:
        if n >= dim:
            raise ValueError(f"level n={n} outside truncation dim={dim}")
    elif n > 0 and n + boundary_margin(n, g.r) + 8 > dim:
        raise ValueError(f"level n={n} too close to truncation boundary dim={dim} for r={g.r}")
    vec = displaced_vacuum(g, dim)
    raise_phase = np.exp(-1j * g.phi)
    shift = g.r * np.exp(-1j * g.psi)
    sqrts = np.sqrt(np.arange(1, dim, dtype=float))
    for m in range(1, n + 1):
        up = np.zeros(dim, dtype=complex)
        up[1:] = raise_phase * sqrts * vec[:-1]
        vec = (up + shift * vec) / math.sqrt(m)
    return vec


def group_matrix3(g) -> np.ndarray:
    """The defining 3x3 matrix of a group element."""
    w = g.r * np.exp(1j * g.psi)
    return np.array(
        [
            [np.exp(1j * g.phi), 0.0, w],
            [0.0, np.exp(-1j * g.phi), np.conj(w)],
            [0.0, 0.0, 1.0],
        ]
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
