"""The Hilbert space of square-integrable functions on the Heisenberg algebra.

Elements are finite sums F = sum_n (f_n(zeta) z^n + z*^n f_{-n}(zeta)) with
radial coefficients f_n supported on the integer spectrum of zeta = z*z.
Storage convention: ``terms[w]`` holds the coefficient sequence of winding w,
meaning f(zeta) z^w for w > 0, z*^{|w|} f(zeta) for w < 0, and the diagonal
part for w = 0.

The scalar product is the operator trace (F, G) = tr(F* G), evaluated in
closed form over the radial coefficients.  The infinitesimal generators of
the group action are realized exactly as difference operators on the
coefficients:

    p(F) = 2[F, z*],   pbar(F) = 2[z, F],   h(F) = [zeta, F],

with the real structure p* = -pbar, h* = h.  Joint eigenfunctions of (p p*, h)
are built from Kummer functions by :func:`basis_d`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .e2group import IrrepLabel
from .specfun import kummer_phi_seq

__all__ = [
    "AlgebraFunction",
    "BasisFunction",
    "algebra_function",
    "inner_product",
    "to_matrix",
    "op_p",
    "op_pbar",
    "op_h",
    "adjoint_p",
    "basis_d",
    "basis_diagonals",
    "eigen_residuals",
    "bracket_residual",
    "adjoint_residual",
]


@dataclass(frozen=True)
class AlgebraFunction:
    """Finite sum of single-winding terms with radial coefficients.

    ``terms`` maps the winding index to a complex array of length zmax+1;
    coefficients beyond zmax are implicitly zero.  Treat instances as
    immutable values.
    """

    terms: Mapping[int, np.ndarray]
    zmax: int

    def windings(self) -> list[int]:
        return sorted(self.terms)

    def coeff(self, w: int) -> np.ndarray:
        c = self.terms.get(w)
        if c is None:
            return np.zeros(self.zmax + 1, dtype=complex)
        return c

    def adjoint(self) -> "AlgebraFunction":
        """F*: windings flip sign, coefficients conjugate."""
        return algebra_function({-w: np.conj(c) for w, c in self.terms.items()}, self.zmax)

    def scaled(self, a: complex) -> "AlgebraFunction":
        return algebra_function({w: a * c for w, c in self.terms.items()}, self.zmax)

    def __add__(self, other: "AlgebraFunction") -> "AlgebraFunction":
        zmax = max(self.zmax, other.zmax)
        out: dict[int, np.ndarray] = {}
        for w in set(self.terms) | set(other.terms):
            c = np.zeros(zmax + 1, dtype=complex)
            for src in (self, other):
                cs = src.terms.get(w)
                if cs is not None:
                    c[: len(cs)] += cs
            out[w] = c
        return AlgebraFunction(out, zmax)


def algebra_function(terms: Mapping[int, "np.ndarray | list"], zmax: int | None = None) -> AlgebraFunction:
    """Build an AlgebraFunction, padding all coefficient arrays to zmax+1."""
    arrays = {int(w): np.asarray(c, dtype=complex) for w, c in terms.items()}
    if zmax is None:
        zmax = max((len(c) - 1 for c in arrays.values()), default=0)
    out = {}
    for w, c in arrays.items():
        if len(c) > zmax + 1:
            raise ValueError("coefficient array longer than zmax+1")
        padded = np.zeros(zmax + 1, dtype=complex)
        padded[: len(c)] = c
        out[w] = padded
    return AlgebraFunction(out, zmax)


@dataclass(frozen=True)
class BasisFunction:
    """Joint eigenfunction D_k of the radial Casimir and the winding grading.

    Stored as a single-winding AlgebraFunction (winding -k, so k >= 0 terms
    are z*^k f(zeta)); the k-phase convention is (i*lam)^|k| / (2^|k| |k|!).
    """

    label: IrrepLabel
    coefficients: AlgebraFunction

    @property
    def radial(self) -> np.ndarray:
        return self.coefficients.terms[-self.label.k]

    @property
    def diagonal(self) -> np.ndarray:
        """D_k's entries on its one nonzero Fock diagonal, offset -k, as :func:`to_matrix` places them."""
        return self.radial * _winding_roots(abs(self.label.k), self.coefficients.zmax)


def _winding_roots(a: int, zmax: int) -> np.ndarray:
    """sqrt((zeta+a)!/zeta!) for zeta = 0..zmax, the root of winding +-a's trace weight, as exp(sum of logs / 2)."""
    z = np.arange(zmax + 1, dtype=float)
    return np.exp(0.5 * np.sum(np.log(z[:, None] + np.arange(1, a + 1)), axis=1))


def inner_product(F: AlgebraFunction, G: AlgebraFunction) -> complex:
    """Trace scalar product (F, G) = tr(F* G) in closed form.

    Only matching windings contribute; winding w contributes
    sum_zeta conj(f_w) g_w (zeta+|w|)!/zeta!, summed as conj(f_w root) (g_w root), in range where the weight is not.
    """
    total = 0.0 + 0.0j
    for w in F.terms:
        if w not in G.terms:
            continue
        cf, cg = F.terms[w], G.terms[w]
        m = min(len(cf), len(cg))
        root = _winding_roots(abs(w), m - 1)
        total += np.sum(np.conj(cf[:m] * root) * (cg[:m] * root))
    return complex(total)


def to_matrix(F: AlgebraFunction, dim: int) -> np.ndarray:
    """Realize F as a truncated Fock operator.

    Winding w > 0 places c(zeta) sqrt((zeta+w)!/zeta!) at (zeta, zeta+w);
    winding w < 0 mirrors below the diagonal; w = 0 is the diagonal.
    """
    wmax = max((abs(w) for w in F.terms), default=0)
    if dim < F.zmax + wmax + 2:
        raise ValueError(f"dim={dim} too small: need >= zmax + max winding + 2 = {F.zmax + wmax + 2}")
    M = np.zeros((dim, dim), dtype=complex)
    for w, c in F.terms.items():
        a = abs(w)
        zs = np.arange(min(len(c), dim - a))
        vals = c[: len(zs)] * _winding_roots(a, len(zs) - 1)
        if w >= 0:
            M[zs, zs + a] += vals
        else:
            M[zs + a, zs] += vals
    return M


def _apply_stencils(F: AlgebraFunction, lowering: bool) -> AlgebraFunction:
    # p (lowering=True) maps winding w -> w-1; pbar maps w -> w+1.  On the
    # side where the ladder acts against the z-power, the exact commutator
    # gives 2(w_like c(zeta) + zeta (c(zeta) - c(zeta-1))); on the other side
    # it is the plain forward difference 2(c(zeta+1) - c(zeta)).
    out: dict[int, np.ndarray] = {}
    zin = F.zmax
    for w, c in F.terms.items():
        new = np.zeros(zin + 2, dtype=complex)
        against = (w >= 1) if lowering else (w <= -1)
        if against:
            mult = w if lowering else -w
            c_pad = np.concatenate((c, [0.0]))
            c_prev = np.concatenate(([0.0], c))
            zeta = np.arange(zin + 2, dtype=float)
            new[:] = 2.0 * (mult * c_pad + zeta * (c_pad - c_prev))
        else:
            new[:zin] = 2.0 * (c[1:] - c[:-1])
            new[zin] = -2.0 * c[zin]
        w_out = w - 1 if lowering else w + 1
        if w_out in out:
            out[w_out] = out[w_out] + new
        else:
            out[w_out] = new
    return AlgebraFunction(out, zin + 1)


def op_p(F: AlgebraFunction) -> AlgebraFunction:
    """p(F) = 2[F, z*], exact on radial coefficients; winding drops by one."""
    return _apply_stencils(F, lowering=True)


def op_pbar(F: AlgebraFunction) -> AlgebraFunction:
    """pbar(F) = 2[z, F], exact on radial coefficients; winding rises by one."""
    return _apply_stencils(F, lowering=False)


def op_h(F: AlgebraFunction) -> AlgebraFunction:
    """h(F) = [zeta, F]: winding-w terms are scaled by -w (z*^k terms by +k)."""
    return algebra_function({w: -w * np.asarray(c) for w, c in F.terms.items()}, F.zmax)


def adjoint_p(F: AlgebraFunction) -> AlgebraFunction:
    """p* = -pbar, the trace-adjoint of p."""
    return op_pbar(F).scaled(-1.0)


def _radial(lam: float, k: int, zmax: int, kummer) -> np.ndarray:
    # f_k(zeta) for zeta = 0..zmax, reading Phi(-zeta, 1+|k|; lam^2/4) from kummer(zmax, 1+|k|, lam^2/4), or the
    # ValueError basis_d raises
    if zmax < 1:
        raise ValueError("basis_d requires zmax >= 1")
    a = abs(k)
    try:
        power = (0.5 * lam) ** a
    except OverflowError:
        raise ValueError(f"basis_d at lam={lam!r}, k={k}: (lam/2)^{a} overflows") from None
    # a! / 2^shift is a float, and ldexp restores the scale; shift = 0, so every float is as before, up to a = 170
    shift = max(0, (factorial := math.factorial(a)).bit_length() - 1023)
    pref = math.ldexp(power / (factorial / (1 << shift)) * (damping := math.exp(-lam * lam / 8.0)), -shift)
    with np.errstate(over="ignore", invalid="ignore"):
        # i^a exact from a table of four, times the real (lam/2)^a/a! e^{-lam^2/8} Phi
        radial = np.array([1, 1j, -1, -1j])[a % 4] * (pref * kummer(zmax, 1 + a, lam * lam / 4.0))
    if pref == 0 or not np.all(np.isfinite(radial)):
        why = f"not finite up to zeta = {zmax}"
        if pref == 0:
            why = "e^(-lam^2/8) underflows to 0" if damping == 0 else f"(lam/2)^{a}/{a}! underflows to 0"
        raise ValueError(f"basis_d at lam={lam!r}, k={k}: the radial part is lost, {why}")
    return radial


def basis_d(label: IrrepLabel, zmax: int) -> BasisFunction:
    """Eigenbasis element D_k with radial part a Kummer polynomial sequence.

    f_k(zeta) = ((i lam)^a / (2^a a!)) e^{-lam^2/8} Phi(-zeta, 1+a; lam^2/4)
    with a = |k|; stored at winding -k (z*^k f for k >= 0, f z^|k| for k < 0).
    The true eigenfunction has infinite radial support; zmax is a truncation,
    so statements at the boundary point must be excluded.  Raises ValueError
    where e^{-lam^2/8} underflows to 0 (lam > 77.2), where the prefactor
    underflows to 0 so that f_k vanishes identically (lam = 1e-300, k = 5),
    where (lam/2)^a overflows, or where f_k is not finite.
    """
    radial = _radial(label.lam, label.k, zmax, kummer_phi_seq)
    return BasisFunction(label, algebra_function({-label.k: radial}, zmax))


def basis_diagonals(windings: Mapping[float, set], dim: int) -> dict:
    """D_n's Fock diagonal ``basis_d(IrrepLabel(lam, n), dim - |n| - 2).diagonal``, the same floats, by (lam, n).

    ``windings`` maps each lam to the n wanted; an entry that basis_d refuses is its ValueError instead.  Per lam,
    one kummer_phi_seq call runs a lane b = 1 + |n| per distinct |n| to the top degree, and D_n reads its lane's
    prefix to its own zmax = dim - |n| - 2, tested for finiteness there only; D_n and D_-n share their entries.
    The winding roots of each |n| are one table for every lam.  Entries too large for floats are inf, silently.
    """
    out, roots = {}, {}
    for lam, ns in windings.items():
        lanes, built = sorted({abs(n) for n in ns if abs(n) <= dim - 3}), {}  # the |n| with zmax >= 1
        if lanes:
            runs = dict(zip(lanes, kummer_phi_seq(dim - 2 - lanes[0], 1.0 + np.array(lanes), lam * lam / 4.0)))
        for n, a in ((n, abs(n)) for n in ns):
            try:
                if a not in built:
                    radial = _radial(lam, n, dim - a - 2, lambda zmax, b, x: runs[a][: zmax + 1])
                    with np.errstate(over="ignore", invalid="ignore"):
                        root = roots[a] if a in roots else roots.setdefault(a, _winding_roots(a, dim - a - 2))
                        built[a] = radial * root
                out[lam, n] = built[a]
            except ValueError as exc:
                out[lam, n] = exc
    return out


def eigen_residuals(label: IrrepLabel, zmax: int) -> tuple[float, float]:
    """Residuals of the two eigen-equations for D_k.

    Returns ``(c1, c2)``: c1 is the max pointwise relative residual of
    p p* D = lam^2 D over the interior zeta <= zmax-2 (the boundary is
    excluded because the truncated radial part feigns finite support);
    c2 is the residual of h D = k D, which is exactly zero.

    p p* and p* p coincide here (the translation generators commute, so
    [p, pbar] = 0); both orderings are evaluated and the larger residual is
    reported.
    """
    if zmax < 2:
        raise ValueError(f"eigen_residuals requires zmax >= 2, got {zmax}")
    basis = basis_d(label, zmax)
    D, f = basis.coefficients, basis.radial
    lam, k = label.lam, label.k

    z = np.arange(zmax - 1, dtype=float)
    a = abs(k)
    scale = 4.0 * (
        (a + 1 + z) * np.abs(f[1:zmax])
        + (a + 1 + 2 * z + lam * lam / 4.0) * np.abs(f[: zmax - 1])
        + z * np.abs(np.concatenate(([0.0], f[: zmax - 2])))
    )
    # np.max, not max, so a NaN ratio is the residual rather than skipped
    casimirs = (op_p(adjoint_p(D)), adjoint_p(op_p(D)))
    c1 = np.max([np.abs(op.coeff(-k)[: zmax - 1] - lam * lam * f[: zmax - 1]) / scale for op in casimirs])
    c2 = np.max([np.max(np.abs(c - k * D.coeff(w)[: len(c)])) for w, c in op_h(D).terms.items()])
    return float(c1), float(c2)


def bracket_residual(F: AlgebraFunction) -> float:
    """Largest |coefficient| of [h, p]F - pF and [h, pbar]F + pbar F: 0, exactly so on integer coefficients."""
    comm_p = op_h(op_p(F)) + op_p(op_h(F)).scaled(-1.0) + op_p(F).scaled(-1.0)
    comm_pb = op_h(op_pbar(F)) + op_pbar(op_h(F)).scaled(-1.0) + op_pbar(F)
    return max((float(np.max(np.abs(c))) for comm in (comm_p, comm_pb) for c in comm.terms.values()), default=0.0)


def adjoint_residual(F: AlgebraFunction, G: AlgebraFunction) -> float:
    """Defect of the real structure (pF, G) = (F, p*G), (hF, G) = (F, hG), relative to the largest product.

    Raises ArithmeticError where that product is below the normal float range, where a zero against a
    subnormal would read as agreement.
    """
    lhs, rhs = inner_product(op_p(F), G), inner_product(F, adjoint_p(G))
    h_lhs, h_rhs = inner_product(op_h(F), G), inner_product(F, op_h(G))
    if (scale := max(abs(lhs), abs(rhs), abs(h_lhs), abs(h_rhs))) < sys.float_info.min:
        products = "|(pF, G)|, |(F, p*G)|, |(hF, G)|, |(F, hG)|"
        raise ArithmeticError(f"adjoint pairing: the largest of {products} is {float(scale)!r}, below normal floats")
    return max(abs(lhs - rhs), abs(h_lhs - h_rhs)) / scale
