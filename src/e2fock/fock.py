"""Truncated matrix realization of the Heisenberg algebra on Fock space.

Operators are plain complex ndarrays of shape (dim, dim) in the number basis
e_0..e_{dim-1}; states are length-dim complex vectors.  Truncation artifacts
live near the top of the basis, so every quantitative statement is made on a
"safe block" of leading indices; :func:`safe_block` computes its size.
"""

from __future__ import annotations

import bisect
import math

import numpy as np

__all__ = [
    "annihilator",
    "boundary_margin",
    "safe_block",
]


def _check_dim(dim: int) -> None:
    if dim < 2:
        raise ValueError("Fock truncation dimension must be >= 2")


def annihilator(dim: int) -> np.ndarray:
    """Lowering operator: entry (n-1, n) = sqrt(n)."""
    _check_dim(dim)
    a = np.zeros((dim, dim), dtype=complex)
    ns = np.arange(1, dim)
    a[ns - 1, ns] = np.sqrt(ns)
    return a


def conjugated_block(factors, values: np.ndarray, offset: int, n: int) -> np.ndarray:
    """The leading n x n block of U V U* from U's factors (row, col, M) of :func:`e2group.u_factors`.

    V's only nonzero entries are ``values`` on diagonal ``offset``, values[i] at (s + i, s + i + offset) with
    s = max(-offset, 0); the diagonal may stop short of the corner.  U V U* = D_row M (D_col V D_col*) M^T D_row*
    and col is geometric, so D_col V D_col* is V times one phase, joined to the row phases.  The rest is one real
    product (M[:n, c] * part) @ M[:n, c + offset].T per nonzero part of ``values``, on M's first n rows only.  It
    serves the two addition checks; intertwining forms the same real product, and the complex block only to name
    the worst entry of a record that fails.
    """
    row, col, M = factors
    s = max(-offset, 0)
    c, shifted = slice(s, s + len(values)), slice(s + offset, s + offset + len(values))
    unit, values = (1j, values.imag) if values.imag.any() and not values.real.any() else (1, values)
    core = (M[:n, c] * values.real) @ M[:n, shifted].T
    if values.imag.any():
        core = core + 1j * ((M[:n, c] * values.imag) @ M[:n, shifted].T)
    return (row[:n] * (unit * col[s] * col[s + offset].conj()))[:, None] * core * row[:n].conj()


def boundary_margin(level: int, r: float) -> int:
    """Truncation margin needed above an occupied Fock level.

    A displacement of modulus r spreads a level-n state upward by roughly
    r*sqrt(n); the classical edge sits at (sqrt(n)+r)^2 with a super-
    exponential tail beyond.
    """
    return math.ceil(4.0 + 4.0 * r * math.sqrt(level + 1))


def safe_block(dim: int, r: float) -> int:
    """Largest B such that levels < B survive an r-displacement at this dim.

    B satisfies B + ceil(4 + 4 r sqrt(B)) <= dim, found by bisection, as the
    left side increases with B.  On the leading B x B block the truncated
    U(g) is unitary and intertwines to ~1e-13 for dim >= 64.
    """
    _check_dim(dim)
    return bisect.bisect_right(range(1, dim + 1), dim, key=lambda b: b + boundary_margin(b - 1, r))
