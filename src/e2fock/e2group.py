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
    "irrep_rows",
]

_TWO_PI = 2.0 * math.pi

# a product of two floats of at least this size is a normal float
_UNDERFLOW_FLOOR = 2.0**-511

# rows of u_factors' root table, and columns of its lower-triangle blocks
_CHUNK = 64


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

    row[m] = e^{i m (psi - phi)}, col[n] = e^{-i n psi} (geometric, as :func:`fock.conjugated_block` needs; ones
    for a rotation) and M[m, m+d] = (-1)^d M[m+d, m] = e^{-r^2/2} S_m(d), where S_m(d) = r^d sqrt(m!/(m+d)!)
    L^{(d)}_m(r^2) runs as a self-scaled recurrence in m: row m is written in place from rows m-1 and m-2 by four
    numpy calls, its roots sqrt(m (m+d)) read from one table per 64 rows, and the entries below the diagonal are
    filled after the loop as signed transposes, 64 columns at a time.  It stops once ``rows`` rows are filled;
    each entry is the same float whatever ``rows`` is.  Entries below 2^-511 read a zero of their sign, so
    products of cores never meet subnormal arithmetic and move by at most about dim * 2^-511.  A returned row
    that overflows (at r = 40, dim 512) raises FloatingPointError.
    """
    ms = np.arange(dim)
    if g.r < 1e-12:  # a rotation
        return np.exp(-1j * ms * g.phi), np.ones(dim), np.eye(rows, dim)
    x, log_r, whole = g.r * g.r, math.log(g.r), ms.astype(float)
    M, spare = np.empty((rows, dim)), np.empty(dim)
    M[0] = [math.exp(d * log_r - 0.5 * log_factorial(d)) if d > 0 else 1.0 for d in range(dim)]
    coef = np.arange(2 * dim - 1) - x  # coef[2m+1+d] = 2m+1+d - x
    with np.errstate(over="raise", invalid="raise"):
        for m in range(1, rows):
            if m % _CHUNK == 1:  # sqrt(j n) for the next 64 rows j and the columns n >= m, from exact products
                roots, first = np.sqrt(np.multiply.outer(whole[m:rows][:_CHUNK], whole[m:])), m
            # S_m(d) = ((2m-1+d - x) S_{m-1}(d) - sqrt((m-1)(m-1+d)) S_{m-2}(d)) / sqrt(m (m+d)), at column m+d
            row, root = M[m, m:], roots[m - first, m - first :]
            np.multiply(coef[2 * m - 1 : m - 1 + dim], M[m - 1, m - 1 : -1], out=row)
            if m > 1:
                np.subtract(row, np.multiply(lag, M[m - 2, m - 2 : -2], out=spare[m:]), out=row)
            np.divide(row, root, out=row)
            lag = root[:-1]  # the next row's sqrt((m-1)(m-1+d)), one entry shorter
    # M[m+d, m] = (-1)^d M[m, m+d], 64 columns at a time: the rows below their diagonal block as one signed
    # transpose, then the block's own lower triangle, read only where the loop wrote
    parity = 1.0 - 2 * (ms[:rows] % 2)
    signs, below = np.multiply.outer(parity, parity[:_CHUNK]), np.tri(_CHUNK, k=-1, dtype=bool)
    for c in range(0, rows, _CHUNK):
        e = min(c + _CHUNK, rows)
        np.multiply(M[c:e, e:rows].T, signs[e:, : e - c], out=M[e:, c:e])
        corner = M[c:e, c:e]
        np.multiply(corner.T, signs[c:e, : e - c], out=corner, where=below[: e - c, : e - c])
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
    return irrep_rows([(label, g)], nmax)[0]


def irrep_rows(pairs, nmax: int) -> list[np.ndarray]:
    """:func:`irrep_row` of each (label, g) in ``pairs``, the same floats, from one Bessel run per distinct lam r."""
    d = np.arange(-nmax, nmax + 1)
    units, signs, runs = np.array([1, 1j, -1, -1j])[d % 4], np.where(d < 0, (-1.0) ** d, 1.0), {}
    for label, g in pairs:
        if (x := label.lam * g.r) not in runs:
            runs[x] = bessel_j_seq(nmax, x)[np.abs(d)] * signs
    return [units * np.exp(-1j * ((label.k + d) * g.phi - d * g.psi)) * runs[label.lam * g.r] for label, g in pairs]
