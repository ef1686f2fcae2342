"""The Euclidean group E(2) acting on the Heisenberg algebra.

A group element g = (r, psi, phi) acts on the generators as

    gz = e^{i phi} z + r e^{i psi} 1,      gz* = (gz)*,

i.e. a rotation by phi composed with a translation by r e^{i psi}.  This
module provides the group operations, the closed-form matrix elements of the
unitary operator U(g) implementing the action on Fock space by conjugation,
and the rows of irreducible matrix elements t^lambda_{kn}(g) built from one
Bessel sequence.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .specfun import bessel_j_seq, log_factorial

__all__ = [
    "GroupElement",
    "IrrepLabel",
    "identity",
    "compose",
    "inverse",
    "act_on_generator",
    "u_factors",
    "u_matrix",
    "irrep_row",
]

_TWO_PI = 2.0 * math.pi

# a product of two floats of at least this size is a normal float
_UNDERFLOW_FLOOR = 2.0**-511


def _wrap_angle(x: float) -> float:
    # normalize to (-pi, pi]
    w = math.fmod(x, _TWO_PI)
    if w > math.pi:
        w -= _TWO_PI
    elif w <= -math.pi:
        w += _TWO_PI
    return w


@dataclass(frozen=True)
class GroupElement:
    """E(2) element: translation modulus r, translation phase psi, rotation phi.

    Angles are stored normalized to (-pi, pi]; psi is canonicalized to 0 when
    r vanishes (it is unphysical there).
    """

    r: float
    psi: float
    phi: float

    def __post_init__(self):
        if self.r < 0:
            raise ValueError("translation modulus r must be >= 0")
        r = self.r
        psi = _wrap_angle(self.psi)
        if r < 1e-15:
            r, psi = 0.0, 0.0
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "psi", psi)
        object.__setattr__(self, "phi", _wrap_angle(self.phi))

    @property
    def w(self) -> complex:
        """Translation as a complex number r e^{i psi}."""
        return self.r * cmath.exp(1j * self.psi)


@dataclass(frozen=True)
class IrrepLabel:
    """Label (lam, k): positive real weight and integer row index."""

    lam: float
    k: int = 0

    def __post_init__(self):
        if not self.lam > 0:
            raise ValueError("irrep weight lam must be > 0")


def identity() -> GroupElement:
    return GroupElement(0.0, 0.0, 0.0)


def compose(g1: GroupElement, g2: GroupElement) -> GroupElement:
    """Group product, read off the 3x3 matrix form: g2's matrix applies first.

    Rotation angles add; translations compose as w1 + e^{i phi1} w2.
    """
    w = g1.w + cmath.exp(1j * g1.phi) * g2.w
    return GroupElement(abs(w), cmath.phase(w), g1.phi + g2.phi)


def inverse(g: GroupElement) -> GroupElement:
    """Inverse element: rotation -phi, translation -e^{-i phi} w."""
    return GroupElement(g.r, g.psi - g.phi + math.pi, -g.phi)


def act_on_generator(g: GroupElement) -> tuple[complex, complex]:
    """The pair (alpha, beta) with gz = alpha z + beta 1."""
    return cmath.exp(1j * g.phi), g.w


def u_factors(g: GroupElement, dim: int, rows: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """U(g) = diag(row) M diag(col): its unit-modulus phases and the leading ``rows`` rows of its real core M.

    row[m] = e^{i m (psi - phi)}, col[n] = e^{-i n psi} and M[m, m+d] = (-1)^d M[m+d, m] = e^{-r^2/2} S_m(d), where
    S_m(d) = r^d sqrt(m!/(m+d)!) L^{(d)}_m(r^2) runs as a self-scaled recurrence in m, one numpy step per row.
    It stops once ``rows`` rows are filled; each entry is the same float whatever ``rows`` is.  Entries below
    2^-511 read a zero of their sign, so products of cores never meet subnormal arithmetic and move by at most
    about dim * 2^-511.  A returned row that overflows (at r = 40, dim 512) raises FloatingPointError.
    """
    ms = np.arange(dim)
    if g.r < 1e-12:  # a rotation
        return np.exp(-1j * ms * g.phi), np.ones(dim), np.eye(rows, dim)
    x, log_r = g.r * g.r, math.log(g.r)
    parity = 1 - 2 * (ms % 2)  # (-1)^d for the entries below the diagonal, which the recurrence never reads
    M = np.empty((rows, dim))
    M[0] = [math.exp(d * log_r - 0.5 * log_factorial(d)) if d > 0 else 1.0 for d in range(dim)]
    M[:, 0] = M[0, :rows] * parity[:rows]
    coef = np.arange(2 * dim - 1) - x  # coef[2m+1+d] = 2m+1+d - x
    root = np.sqrt(ms[1:])  # sqrt(m (m+d)) at m = 1
    with np.errstate(over="raise", invalid="raise"):
        for m in range(1, rows):
            # row m from rows m-1 and m-2; sqrt((m-1)(m-1+d)) is the last row's root, one entry shorter
            step = coef[2 * m - 1 : m - 1 + dim] * M[m - 1, m - 1 : -1]
            if m > 1:
                lag, root = root[:-1], np.sqrt(m * ms[m:])
                step -= lag * M[m - 2, m - 2 : -2]
            step /= root
            M[m, m:], M[m:, m] = step, step[: rows - m] * parity[: rows - m]
    M *= math.exp(-0.5 * g.r * g.r)
    np.multiply(M, 0.0, out=M, where=np.abs(M) < _UNDERFLOW_FLOOR)
    return np.exp(1j * ms * (g.psi - g.phi)), np.exp(-1j * ms * g.psi), M


def u_matrix(g: GroupElement, dim: int) -> np.ndarray:
    """The truncated U(g), exact matrix elements: the real core of :func:`u_factors` times its two phase vectors.

    Entry (m, n) is <m|U(g)|n> = (-1)^m e^{i(m-n)psi - i m phi} r^{n+m} e^{-r^2/2} / sqrt(n! m!) 2F0(-m, -n; -1/r^2),
    the r -> 0 limit being the rotation diagonal delta_{mn} e^{-i n phi}; it is the same float whatever ``dim`` is.
    """
    if dim < 2:
        raise ValueError("Fock truncation dimension must be >= 2")
    row, col, M = u_factors(g, dim, dim)
    return row[:, None] * M * col


def irrep_row(label: IrrepLabel, g: GroupElement, nmax: int) -> np.ndarray:
    """Row k = label.k of the irrep: t^lam_{k,k+d}(g) at index nmax + d, for d = -nmax..nmax.

    t^lam_{kn}(g) = i^{n-k} e^{-i(n phi + (k-n) psi)} J_{n-k}(lam r) (Graf's theorem, DLMF 10.23(ii)), i^d exact from
    a table of four and every J from one :func:`specfun.bessel_j_seq` run to order nmax, with J_{-m} = (-1)^m J_m.
    """
    d = np.arange(-nmax, nmax + 1)
    js = bessel_j_seq(nmax, label.lam * g.r)[np.abs(d)] * np.where(d < 0, (-1.0) ** d, 1.0)
    return np.array([1, 1j, -1, -1j])[d % 4] * np.exp(-1j * ((label.k + d) * g.phi - d * g.psi)) * js
