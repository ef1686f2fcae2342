"""Truncated matrix realization of the Heisenberg algebra on Fock space.

Operators are plain complex ndarrays of shape (dim, dim) in the number basis
e_0..e_{dim-1}; states are length-dim complex vectors.  Truncation artifacts
live near the top of the basis, so every quantitative statement is made on a
"safe block" of leading indices; :func:`safe_block` computes its size.
"""

from __future__ import annotations

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


def times_diagonal(A: np.ndarray, values: np.ndarray, offset: int) -> np.ndarray:
    """A @ M for the M whose only nonzero entries lie on one diagonal.

    ``values`` are M's leading entries along diagonal ``offset``: M[i, i+offset]
    for offset >= 0, M[i-offset, i] below.  Each column of the product is a
    column of A times one entry of M, the one nonzero term of the dense
    product.  When M's entries are real or purely imaginary that term is one
    rounded float product per part, so the result equals the dense product
    (up to the sign of zeros) at O(dim^2) cost.
    """
    out = np.zeros_like(A)
    size, lag = len(values), abs(offset)
    if offset >= 0:
        out[:, offset : offset + size] = A[:, :size] * values
    else:
        out[:, :size] = A[:, lag : lag + size] * values
    return out


def panel_size(dim: int, n: int) -> int:
    """Leading rows or columns to multiply for the leading n x n block of a product.

    zgemm kernels such as OpenBLAS's fill the output in panels of 4 rows and
    columns and sum the entries of a partial panel in another order.  Keeping
    n rounded up to whole panels (at most dim) gives, on such a BLAS, the bits
    of the full dim x dim product's block; elsewhere it agrees to rounding.
    """
    return min(dim, -(-n // 4) * 4)


def conjugated_block(factors, values: np.ndarray, offset: int, n: int) -> np.ndarray:
    """The leading n x n block of U V U*, V as M of :func:`times_diagonal`, from U's factors (row, col, M).

    As U = D_row M D_col (:func:`e2group.u_factors`), U V U* = D_row M (D_col V D_col*) M^T D_row*, with middle
    diagonal col[i] v conj(col[j]): two real products of M's leading panel_size rows, then the row phases.
    """
    row, col, M = factors
    i = np.arange(len(values)) + max(-offset, 0)  # V's entries sit at (i, i + offset)
    mid = col[i] * values * col[i + offset].conj()
    rows = M[: panel_size(M.shape[1], n)]
    re, im = ((times_diagonal(rows, part, offset) @ rows.T)[:n, :n] for part in (mid.real, mid.imag))
    return row[:n, None] * (re + 1j * im) * row[:n].conj()


def boundary_margin(level: int, r: float) -> int:
    """Truncation margin needed above an occupied Fock level.

    A displacement of modulus r spreads a level-n state upward by roughly
    r*sqrt(n); the classical edge sits at (sqrt(n)+r)^2 with a super-
    exponential tail beyond.
    """
    return math.ceil(4.0 + 4.0 * r * math.sqrt(level + 1))


def safe_block(dim: int, r: float) -> int:
    """Largest B such that levels < B survive an r-displacement at this dim.

    B satisfies B + ceil(4 + 4 r sqrt(B)) <= dim.  On the leading B x B block
    the truncated U(g) is unitary and intertwines to ~1e-13 for dim >= 64.
    """
    _check_dim(dim)
    b = dim
    while b > 0 and b + boundary_margin(b - 1, r) > dim:
        b -= 1
    return b
