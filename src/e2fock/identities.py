"""Machine-checkable verification of the global identities of the theory.

Each check returns a :class:`CheckReport` carrying the parameters, a scale-free
residual, the tolerance, and the pass verdict.  Residuals are measured against
max(|lhs|, |rhs|, largest term magnitude): both sandwich identities have
parameter points where the two sides vanish identically, so a plain relative
error would be 0/0 there.

The orthogonality relation and the two limit statements are distributional /
asymptotic and cannot be a single numeric equality at finite truncation; they
are exposed as profile and error-ladder computations whose qualitative
behavior (growth, boundedness, monotone decay) is asserted instead.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np

from .e2group import GroupElement, IrrepLabel, irrep_element, u_factors
from .fock import conjugated_block, safe_block
from .repk import _log_winding_weights, _winding_weights, basis_d
from .specfun import (
    bessel_i,
    bessel_i_scaled,
    bessel_j,
    bessel_j_seq,
    hyp2f0_poly,
    kummer_phi,
    kummer_phi_seq,
    kummer_phi_series,
    laguerre_seq,
    log_factorial,
)

__all__ = [
    "CheckReport",
    "identity_a",
    "identity_b",
    "addition_residual",
    "addition_vacuum_crosscheck",
    "hille_hardy_residual",
    "orthogonality_profile_curve",
    "classical_limit_error",
    "classical_limit_errors",
    "kummer_bessel_limit_residual",
    "memo_scope",
]

_TERM_EPS = 1e-18

_ADDITION_NMAX = 60  # the addition theorem's n-sum runs over |n - k| <= this

# most scalar Kummer recurrence steps one limit-check value may run where its
# series is refused, a fraction of a second
_MAX_KUMMER_STEPS = 10**6

# most array bytes the memo holds, the factors of eight dim-512 U(g); past it,
# values are recomputed, not kept (verify all's largest suite memo is 0.36 MB)
_MEMO_BYTES = 16 * 2**20


class _Memo(dict):
    # arrays by (builder, *args), and the bytes they hold
    nbytes = 0


# the memo of the open memo_scope(), None outside one
_memo = None


@contextlib.contextmanager
def memo_scope():
    """Inside the block, compute each U(g), basis diagonal, Bessel J and Laguerre sequence once.

    The identity checks read those arrays through one memo keyed by the
    builder and its arguments; it is emptied when the block exits, however
    it exits.  Arrays are read-only whether memoized or not.
    """
    global _memo
    _memo = _Memo()
    try:
        yield
    finally:
        _memo = None


def _once(build, *args):
    # build(*args), an array or a tuple of arrays, read-only and memoized while a memo_scope() is open
    key = (build, *args)
    if _memo is not None and key in _memo:
        return _memo[key]
    value = build(*args)
    arrays = value if isinstance(value, tuple) else (value,)
    for array in arrays:
        array.flags.writeable = False
    nbytes = sum(array.nbytes for array in arrays)
    if _memo is not None and _memo.nbytes + nbytes <= _MEMO_BYTES:
        _memo[key] = value
        _memo.nbytes += nbytes
    return value


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one named verification: pass iff residual <= tolerance."""

    name: str
    equation: str
    params: dict
    residual: float
    tolerance: float
    passed: bool
    detail: str | None = None

    @classmethod
    def from_residual(cls, name, equation, params, residual, tolerance, detail=None):
        residual = float(residual)
        return cls(name, equation, dict(params), residual, float(tolerance), residual <= tolerance, detail)


def _vacuum_terms(k: int, x: float, r: float) -> np.ndarray:
    # terms (r^{2n}/n!) Phi(-n, 1+k; x^2) of identity-a's left side, truncated
    # once the weight r^{2n}/n! drops below 1e-18 relative to e^{r^2}
    r2 = r * r
    nmax, t = 10, r2**10 / math.factorial(10)
    while t > _TERM_EPS * math.exp(r2) and nmax < 400:
        nmax += 1
        t *= r2 / nmax
    phis = kummer_phi_seq(nmax, 1 + k, x * x)
    weights = np.exp(2 * np.arange(nmax + 1) * math.log(r) - np.array([log_factorial(n) for n in range(nmax + 1)]))
    return weights * phis


def identity_a(k: int, x: float, r: float, tolerance: float = 1e-10) -> CheckReport:
    """Vacuum sandwich of the addition theorem:

        sum_{n>=0} (r^{2n}/n!) Phi(-n, 1+k; x^2) = k! (xr)^{-k} e^{r^2} J_k(2xr).

    The sum is truncated once the term weight r^{2n}/n! drops below 1e-18
    relative to e^{r^2}; the right side is composed in log space.
    """
    if k < 0 or not (0 < x) or not (0 < r):
        raise ValueError("identity_a requires k >= 0, x > 0, r > 0")
    terms = _vacuum_terms(k, x, r)
    lhs = float(np.sum(terms))
    rhs = math.exp(log_factorial(k) - k * math.log(x * r) + r * r) * bessel_j(k, 2 * x * r)
    scale = max(abs(lhs), abs(rhs), float(np.max(np.abs(terms))))
    return CheckReport.from_residual(
        "identity-a",
        "sandwich-identity-a",
        {"k": k, "x": x, "r": r},
        abs(lhs - rhs) / scale,
        tolerance,
    )


def identity_b(m: int, k: int, x: float, r: float, tolerance: float = 1e-9, nterms: int = 80) -> CheckReport:
    """Shifted sandwich of the addition theorem:

        ((m+k)!/(m! k!)) (x/r)^k Phi(-m, 1+k; x^2)
            = sum_{n>=0} ((-xr)^n/n!) 2F0(-m-k, -n; -1/r^2) J_{k-n}(2xr).
    """
    if m < 0 or k < 0 or not (0 < x) or not (0 < r):
        raise ValueError("identity_b requires m, k >= 0, x > 0, r > 0")
    lhs = (
        math.exp(log_factorial(m + k) - log_factorial(m) - log_factorial(k) + k * math.log(x / r))
        * kummer_phi(m, 1 + k, x * x)
    )
    js = _once(bessel_j_seq, nterms + abs(k), 2 * x * r)

    def j_signed(order: int) -> float:
        return js[order] if order >= 0 else (-1.0) ** (-order) * js[-order]

    rhs, term_max = 0.0, 0.0
    c = 1.0  # (-xr)^n / n!
    tail = 0.0
    for n in range(nterms + 1):
        term = c * hyp2f0_poly(m + k, n, -1.0 / (r * r)) * j_signed(k - n)
        rhs += term
        term_max = max(term_max, abs(term))
        tail = abs(term)
        c *= -(x * r) / (n + 1)
        if n > 10 and tail < _TERM_EPS * term_max:
            break
    scale = max(abs(lhs), abs(rhs), term_max)
    detail = None
    residual = abs(lhs - rhs) / scale
    if tail > 1e-12 * scale:
        detail = f"non-convergent tail: last term {tail:.3e} vs scale {scale:.3e}"
        residual = max(residual, tail / scale)
    return CheckReport.from_residual(
        "identity-b",
        "sandwich-identity-b",
        {"m": m, "k": k, "x": x, "r": r},
        residual,
        tolerance,
        detail,
    )


def _basis_diagonal(lam: float, n: int, dim: int) -> np.ndarray:
    # D_n as a truncated Fock matrix has one nonzero diagonal, offset -n; these
    # are its leading entries there, as to_matrix places them
    radial = basis_d(IrrepLabel(lam, n), dim - abs(n) - 2).radial
    return radial * np.sqrt(_winding_weights(abs(n), len(radial) - 1))


def addition_residual(
    g: GroupElement, label: IrrepLabel, k: int, dim: int = 96, tolerance: float = 1e-7
) -> CheckReport:
    """Operator addition theorem U(g) D_k U(g)* = sum_n t_{kn}(g) D_n.

    Both sides are compared as truncated Fock matrices on the safe block;
    the n-sum runs over |n - k| <= 60 where |J_{n-k}(lam r)| >= 1e-16.  The
    residual is the Frobenius norm of the difference relative to that of
    D_k's block.  Each D_n occupies the single diagonal -n, so the right side
    is written diagonal by diagonal.
    """
    lam = label.lam
    if lam * g.r > 6.0:
        raise ValueError("addition_residual requires lam * r <= 6")
    b = safe_block(dim, g.r)
    dk = _once(_basis_diagonal, lam, k, dim)
    lhs = conjugated_block(_once(u_factors, g, dim, dim), dk, -k, b)

    jmag = _once(bessel_j_seq, _ADDITION_NMAX, lam * g.r)
    rhs = np.zeros((dim, dim), dtype=complex)
    terms = {}  # n -> (t_{kn}(g), diagonal of D_n)
    for n in range(k - _ADDITION_NMAX, k + _ADDITION_NMAX + 1):
        if abs(jmag[abs(n - k)]) < 1e-16:
            continue
        t, dn = terms[n] = irrep_element(label, k, n, g), _once(_basis_diagonal, lam, n, dim)
        i = np.arange(len(dn))
        rhs[(i + n, i) if n >= 0 else (i, i - n)] = t * dn

    num = float(np.linalg.norm(lhs - rhs[:b, :b]))
    den = float(np.linalg.norm(np.diag(dk, -k)[:b, :b]))
    residual = num / den
    detail = None
    if residual > tolerance:
        detail = _addition_phase_diagnostic(lhs, terms)
    return CheckReport.from_residual(
        "addition",
        "addition-theorem",
        {"lam": lam, "k": k, "r": g.r, "psi": g.psi, "phi": g.phi, "dim": dim},
        residual,
        tolerance,
        detail,
    )


def _addition_phase_diagnostic(block, terms) -> str:
    # On failure, project the transformed operator's safe block onto each
    # D_n's diagonal -n and report the worst per-n coefficient mismatches
    # against t_{kn}(g); a diagonal with no entry in the block is skipped.
    b = len(block)
    rows = []
    for n, (ref, dn) in terms.items():
        if abs(n) >= b:
            continue
        dn = dn[: b - abs(n)]
        est = np.vdot(dn, np.diagonal(block, -n)) / np.vdot(dn, dn).real
        rows.append((abs(est - ref), n, est, ref))
    rows.sort(reverse=True)
    worst = "; ".join(f"n={n}: fitted {complex(est)!r}, expected {ref!r}" for _, n, est, ref in rows[:3])
    return "per-n coefficient mismatch: " + worst


def addition_vacuum_crosscheck(
    g: GroupElement, label: IrrepLabel, k: int, dim: int = 96, tolerance: float = 1e-9
) -> CheckReport:
    """The <0|.|0> element of the addition theorem collapses to identity-a.

    Checks that (U D_k U*)_{00} equals both t_{k0}(g) f_0(0) and the
    e^{-ik psi} e^{-r^2} r^k (i lam/2)^k/k! e^{-lam^2/8}-weighted left sum of
    identity-a, tying the operator statement to the scalar identity.
    """
    if k < 0:
        raise ValueError("vacuum cross-check uses k >= 0")
    lam, r = label.lam, g.r
    s1 = complex(conjugated_block(_once(u_factors, g, dim, dim), _once(_basis_diagonal, lam, k, dim), -k, 1)[0, 0])
    s3 = irrep_element(label, k, 0, g) * basis_d(IrrepLabel(lam, 0), 4).radial[0]

    lhs_sum = float(np.sum(_vacuum_terms(k, lam / 2.0, r)))
    s2 = (
        np.exp(-1j * k * g.psi)
        * math.exp(-r * r + k * math.log(r) - log_factorial(k) - lam * lam / 8.0)
        * (1j * lam / 2.0) ** k
        * lhs_sum
    )
    scale = max(abs(s1), abs(s3), 1e-300)
    residual = max(abs(s1 - s2), abs(s1 - s3)) / scale
    return CheckReport.from_residual(
        "addition-vacuum",
        "addition-vacuum-element",
        {"lam": lam, "k": k, "r": r, "psi": g.psi, "phi": g.phi, "dim": dim},
        residual,
        tolerance,
    )


def hille_hardy_residual(k: int, x: float, y: float, zq: float, tolerance: float = 1e-8) -> CheckReport:
    """Bilinear Laguerre generating function:

        sum_n (n!/(n+k)!) L^k_n(x) L^k_n(y) z^n
            = (xyz)^{-k/2} (1-z)^{-1} e^{-z(x+y)/(1-z)} I_k(2 sqrt(xyz)/(1-z)).
    """
    if k < 0 or not (0 < x) or not (0 < y) or not (0 < zq < 1):
        raise ValueError("hille_hardy_residual requires k >= 0, x, y > 0, 0 < zq < 1")
    if zq > 0.95:
        raise ValueError("hille_hardy_residual requires zq <= 0.95")
    nmax = min(4000, max(30, int(math.log(_TERM_EPS) / math.log(zq)) + 50))
    lx, ly = _once(laguerre_seq, nmax, k, x), _once(laguerre_seq, nmax, k, y)
    ns = np.arange(nmax + 1)
    logw = np.array([log_factorial(n) - log_factorial(n + k) for n in ns])
    terms = np.exp(logw + ns * math.log(zq)) * lx * ly
    lhs = float(np.sum(terms))

    arg = 2.0 * math.sqrt(x * y * zq) / (1.0 - zq)
    ik = bessel_i_scaled(k, arg)
    log_rhs_mag = (
        -0.5 * k * math.log(x * y * zq)
        - math.log(1.0 - zq)
        - zq * (x + y) / (1.0 - zq)
        + math.log(abs(ik.value))
        + ik.log_scale
    )
    rhs = math.copysign(math.exp(log_rhs_mag), ik.value)

    term_max = float(np.max(np.abs(terms)))
    scale = max(abs(lhs), abs(rhs), term_max)
    residual = abs(lhs - rhs) / scale
    detail = None
    if nmax == 4000 and abs(terms[-1]) > 1e-12 * scale:
        detail = "slow convergence: term cap reached"
        residual = max(residual, abs(terms[-1]) / scale)
    return CheckReport.from_residual(
        "hille-hardy",
        "laguerre-bilinear-sum",
        {"k": k, "x": x, "y": y, "zq": zq},
        residual,
        tolerance,
        detail,
    )


def orthogonality_profile_curve(k: int, lambda1: float, lambda2: float, zmax: int) -> np.ndarray:
    """Running values of the truncated inner product (D^l1_k, D^l2_k).

    Entry z is the sum over zeta <= z.  Different windings are exactly
    orthogonal (the trace grading), so only equal k is of interest; the
    diagonal l1 = l2 grows without bound (delta normalization) while
    off-diagonal values oscillate boundedly.  Raises FloatingPointError
    where a value overflows or turns NaN.
    """
    a = abs(k)
    x1, x2 = lambda1 * lambda1 / 4.0, lambda2 * lambda2 / 4.0
    p1 = kummer_phi_seq(zmax, 1 + a, x1)
    p2 = kummer_phi_seq(zmax, 1 + a, x2)
    half_logw = 0.5 * _log_winding_weights(a, zmax)
    pref = math.exp(
        a * math.log(lambda1 * lambda2 / 4.0) - 2 * log_factorial(a) - (lambda1**2 + lambda2**2) / 8.0
    )
    with np.errstate(over="raise", invalid="raise"):
        summand = (p1 * np.exp(half_logw)) * (p2 * np.exp(half_logw))
        return pref * np.cumsum(summand)


def _limit_kummer(n: int, b: int, x: float, degree: str) -> float:
    # Phi(-n, b; x) from its short series, or where that is refused from n recurrence
    # steps under the cap; ``degree`` names n in the cap's message
    value = kummer_phi_series(n, b, x)
    if value is None:
        if n > _MAX_KUMMER_STEPS:
            raise ValueError(f"{degree} needs {n} Kummer steps, above the cap of {_MAX_KUMMER_STEPS}")
        value = kummer_phi(n, b, x)
    if not math.isfinite(value):
        raise OverflowError(f"Phi(-{n}, {b}; {x!r}) is not finite")
    return value


def classical_limit_error(label: IrrepLabel, r: float, psi: float, sigma: float) -> float:
    """Distance between the rescaled basis element and the plane matrix element.

    After the commutator rescaling by sigma, D_k evaluated at the classical
    point z = r e^{i psi}/sqrt(sigma) (i.e. zeta* = r^2/sigma, nearest
    integer) tends to t_{k0}(g(r, psi, 0)) as sigma -> 0.  The unit-modulus
    phases agree identically on both sides, leaving

        | (lam r/2)^a/a! e^{-sigma lam^2/8} Phi(-zeta*, 1+a; sigma lam^2/4)
          - J_a(lam r) |,   a = |k|.

    The Kummer value comes from its series, whose n x = (lam r/2)^2 stays
    small however small sigma is.  Raises ValueError when sigma <= 0, or when
    the series is refused and zeta* exceeds 10**6 recurrence steps.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    zeta_star = round(r * r / sigma)
    lam, a = label.lam, abs(label.k)
    lhs = (
        math.exp(a * math.log(lam * r / 2.0) - log_factorial(a) - sigma * lam * lam / 8.0)
        * _limit_kummer(zeta_star, 1 + a, sigma * lam * lam / 4.0, "r^2/sigma")
        if r > 0
        else (1.0 if a == 0 else 0.0) * math.exp(-sigma * lam * lam / 8.0)
    )
    return abs(lhs - bessel_j(a, lam * r))


def classical_limit_errors(
    label: IrrepLabel, r: float, psi: float, sigmas: tuple[float, ...] = (1e-1, 1e-2, 1e-3, 1e-4)
) -> list[float]:
    """Error ladder along a decreasing sigma sequence."""
    return [classical_limit_error(label, r, psi, s) for s in sigmas]


def kummer_bessel_limit_residual(n: int, b: int, c: float) -> float:
    """Large-degree Kummer-to-Bessel asymptotic.

    Evaluates Phi(-n, b; -c/n) against (b-1)! c^{(1-b)/2} I_{b-1}(2 sqrt(c))
    and returns |ratio - 1|.  The first argument goes to -infinity with a
    negative argument scaling -c/n: that is the sign pattern under which the
    modified-Bessel limit is actually approached.  The Kummer value comes
    from its series (all terms positive, n x = -c); where that is refused,
    degrees above 10**6 raise ValueError, since the recurrence costs n steps.
    """
    if n < 1 or b < 1 or not (0 < c):
        raise ValueError("kummer_bessel_limit_residual requires n >= 1, b >= 1, c > 0")
    lhs = _limit_kummer(n, b, -c / n, "n")
    rhs = math.factorial(b - 1) * c ** (0.5 * (1 - b)) * bessel_i(b - 1, 2.0 * math.sqrt(c))
    return abs(lhs / rhs - 1.0)
