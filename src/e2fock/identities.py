"""Machine-checkable verification of the global identities of the theory.

Every check of ``e2fock verify`` computes here (:mod:`repk` has the Lie
brackets and eigen-equations) and returns a :class:`Residual`: a scale-free
residual and, where the check found more than that number says, a detail.
The verifier only holds the tolerances, decides each pass and files records.
Residuals are measured against max(|lhs|, |rhs|, largest term magnitude):
both sandwich identities have parameter points where the two sides vanish
identically, so a plain relative error would be 0/0 there.

The orthogonality relation and the two limit statements are distributional /
asymptotic and cannot be a single numeric equality at finite truncation; they
are exposed as profile and error-ladder computations whose qualitative
behavior (growth, boundedness, monotone decay) is asserted instead.
"""

from __future__ import annotations

import contextlib
import math
from typing import Callable, NamedTuple

import numpy as np

from .e2group import GroupElement, IrrepLabel, irrep_row, u_factors
from .fock import annihilator, conjugated_block, panel_size, safe_block
from .repk import basis_d, inner_product
from .specfun import (
    bessel_i,
    bessel_i_scaled,
    bessel_j,
    bessel_j_seq,
    hyp2f0_seq,
    kummer_phi,
    kummer_phi_seq,
    kummer_phi_series,
    log_factorial,
)

__all__ = [
    "Residual",
    "unitarity_residual",
    "unitarity_decay_residual",
    "intertwining_residual",
    "kummer_recurrence_residual",
    "identity_a",
    "identity_b",
    "addition_residual",
    "addition_vacuum_crosscheck",
    "hille_hardy_residual",
    "orthogonality_grading_residual",
    "orthogonality_growth_residual",
    "orthogonality_bounded_residual",
    "orthogonality_profile_curve",
    "classical_limit_error",
    "kummer_bessel_limit_residual",
    "worst_rise",
    "memo_scope",
]

_TERM_EPS = 1e-18

_ADDITION_NMAX = 60  # the addition theorem's n-sum runs over |n - k| <= this

_IDENTITY_B_TERMS = 80  # identity-b's n-sum runs over n <= this

# float rounding, which the unitarity defect's decay under dim doubling reaches by dim ~ 64
_DEFECT_FLOOR = 1e-13

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
    """Inside the block, compute each intermediate array of the identity checks once.

    Those are each U(g), D_k diagonal (of ``addition`` and the orthogonality
    profiles), Bessel J sequence, Kummer sequence of ``hille-hardy`` (its
    Laguerre values), 2F0 column (:func:`specfun.hyp2f0_seq`) and
    log-factorial vector.  The checks read them through one memo keyed by
    the builder and its arguments; it is emptied when the block exits,
    however it exits.  Arrays are read-only whether memoized or not.  On
    the default grids, ``verify identity-b`` builds 51 2F0 columns for its
    693 checks, one per distinct (m + k, r), and ``verify hille-hardy`` 42
    Kummer sequences and 14 log-factorial vectors for its 126, one per
    distinct (nmax, k, x or y) and nmax + k.
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


class Residual(NamedTuple):
    """A check's scale-free residual, and what it found beyond that number.

    ``detail`` is None, a note, or a zero-argument callable that builds the
    note (:func:`addition_residual`'s diagnostic, too costly to build for a
    record that passes).
    """

    residual: float
    detail: str | Callable[[], str] | None = None


def worst_rise(values, floor: float) -> float:
    """Largest step b - max(a, floor) from a rung a to the next b of a ladder that should fall; needs two rungs."""
    if len(values) < 2:
        raise ValueError(f"the monotone check needs at least two rungs, got {len(values)}")
    return max(b - max(a, floor) for a, b in zip(values, values[1:]))


def _unitarity_defect(g: GroupElement, dim: int, block: int) -> float:
    # U* U = D_col* M^T M D_col and (M^T M)[i, j] = (-1)^(i+j) (M M^T)[i, j]: M's leading rows give the block
    M = u_factors(g, dim, panel_size(dim, block))[2]
    return np.linalg.norm((M @ M.T)[:block, :block] - np.eye(block))


def _checked_block(dim: int, r: float) -> int:
    # the block the U(g) checks read: the safe block, at least min(dim, 4) rows
    return max(safe_block(dim, r), min(dim, 4))


def unitarity_residual(g: GroupElement, dim: int) -> Residual:
    """||U* U - 1|| (Frobenius) on the safe block, at least min(dim, 4) rows, of the dim-truncated U(g)."""
    return Residual(_unitarity_defect(g, dim, _checked_block(dim, g.r)))


def unitarity_decay_residual(g: GroupElement, block: int) -> Residual:
    """Worst rise of the unitarity defect on a fixed block at dims 32, 64, 128, each from max(last, 1e-13)."""
    defects = [float(_unitarity_defect(g, dim, block)) for dim in (32, 64, 128)]
    detail = "defects " + ", ".join(repr(d) for d in defects) + f" (floor {_DEFECT_FLOOR})"
    return Residual(worst_rise(defects, _DEFECT_FLOOR), detail)


def intertwining_residual(g: GroupElement, dim: int) -> Residual:
    """Largest entry of U a U* - (e^{i phi} a + r e^{i psi}) on the block of :func:`unitarity_residual`."""
    b = _checked_block(dim, g.r)
    UaU = conjugated_block(u_factors(g, dim, panel_size(dim, b)), np.sqrt(np.arange(1.0, dim)), 1, b)
    return Residual(np.max(np.abs(UaU - (np.exp(1j * g.phi) * annihilator(b) + g.w * np.eye(b)))))


def kummer_recurrence_residual(b: int, x: float, zmax: int) -> Residual:
    """Worst row of a Phi(a+1) + (a - b) Phi(a-1) + (b - 2a - x) Phi(a) = 0 at a = -1..-zmax, Phi = Phi(., b; x).

    Rows are relative to their largest term; b = 1 + |k|, x = lam^2/4 gives D_k's radial
    recurrence.  A non-finite value or ratio gives residual inf, its first zeta = -a in the detail.
    """
    if zmax < 1:
        raise ValueError(f"recurrence requires zmax >= 1, got {zmax}")
    phis = kummer_phi_seq(zmax + 1, b, x)
    a = -np.arange(1.0, zmax + 1)  # floats, so any integer x converts
    # an overflowing value or term makes its ratios NaN or inf, reported below
    with np.errstate(over="ignore", invalid="ignore"):
        t1, t2, t3 = a * phis[:-2], (a - b) * phis[2:], (b - 2 * a - x) * phis[1:-1]
        ratios = abs(t1 + t2 + t3) / np.maximum(np.maximum(abs(t1), abs(t2)), abs(t3))
    if (unchecked := np.flatnonzero(~np.isfinite(ratios))).size:
        return Residual(math.inf, f"non-finite Kummer value or ratio at zeta={unchecked[0] + 1}")
    return Residual(np.max(ratios))


def _log_factorials(nmax: int) -> np.ndarray:
    # log_factorial(n) for n = 0..nmax
    return np.array([log_factorial(n) for n in range(nmax + 1)])


def _log_power(n, r: float):
    # n log r for an integer or integer array n, with the limit of r^n at r = 0 (0^0 = 1)
    return n * math.log(r) if r > 0 else np.where(n == 0, 0.0, -math.inf)


def _vacuum_terms(k: int, x: float, r: float) -> np.ndarray:
    # terms (r^{2n}/n!) Phi(-n, 1+k; x^2) of identity-a's left side, truncated
    # once the weight r^{2n}/n! drops below 1e-18 relative to e^{r^2}
    r2 = r * r
    nmax, t = 10, r2**10 / math.factorial(10)
    while t > _TERM_EPS * math.exp(r2) and nmax < 400:
        nmax += 1
        t *= r2 / nmax
    phis = kummer_phi_seq(nmax, 1 + k, x * x)
    weights = np.exp(_log_power(2 * np.arange(nmax + 1), r) - _once(_log_factorials, nmax))
    return weights * phis


def identity_a(k: int, x: float, r: float) -> Residual:
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
    return Residual(abs(lhs - rhs) / scale)


def identity_b(m: int, k: int, x: float, r: float) -> Residual:
    """Shifted sandwich of the addition theorem:

        ((m+k)!/(m! k!)) (x/r)^k Phi(-m, 1+k; x^2)
            = sum_{n>=0} ((-xr)^n/n!) 2F0(-m-k, -n; -1/r^2) J_{k-n}(2xr).

    The sum runs to n = 80 at most; a last term above 1e-12 of the scale is
    a non-convergent tail, named in the detail and counted in the residual.
    """
    if m < 0 or k < 0 or not (0 < x) or not (0 < r):
        raise ValueError("identity_b requires m, k >= 0, x > 0, r > 0")
    lhs = (
        math.exp(log_factorial(m + k) - log_factorial(m) - log_factorial(k) + k * math.log(x / r))
        * kummer_phi(m, 1 + k, x * x)
    )
    js = _once(bessel_j_seq, _IDENTITY_B_TERMS + abs(k), 2 * x * r)
    column = _once(hyp2f0_seq, m + k, _IDENTITY_B_TERMS, -1.0 / (r * r))
    if not np.isfinite(column).all():
        raise OverflowError(f"2F0(-{m + k}, -n; -1/r^2) is not finite at r={r!r}")
    # Python floats, so a term that overflows does so silently
    hyps = column.tolist()

    def j_signed(order: int) -> float:
        return js[order] if order >= 0 else (-1.0) ** (-order) * js[-order]

    rhs, term_max = 0.0, 0.0
    c = 1.0  # (-xr)^n / n!
    tail = 0.0
    for n in range(_IDENTITY_B_TERMS + 1):
        term = c * hyps[n] * j_signed(k - n)
        rhs += term
        term_max = max(term_max, abs(term))
        tail = abs(term)
        c *= -(x * r) / (n + 1)
        if n > 10 and tail < _TERM_EPS * term_max:
            break
    scale = max(abs(lhs), abs(rhs), term_max)
    if scale == 0.0:
        raise ArithmeticError(f"identity-b at m={m}, k={k}, x={x!r}, r={r!r}: both sides and every term are 0")
    detail = None
    residual = abs(lhs - rhs) / scale
    if tail > 1e-12 * scale:
        detail = f"non-convergent tail: last term {tail:.3e} vs scale {scale:.3e}"
        residual = max(residual, tail / scale)
    return Residual(residual, detail)


def _basis_diagonal(lam: float, n: int, zmax: int) -> np.ndarray:
    # D_n's entries on its Fock diagonal -n for zeta = 0..zmax
    return basis_d(IrrepLabel(lam, n), zmax).diagonal


def addition_residual(g: GroupElement, label: IrrepLabel, dim: int = 96) -> Residual:
    """Operator addition theorem U(g) D_k U(g)* = sum_n t_{kn}(g) D_n, k = label.k.

    Both sides are compared as truncated Fock matrices on the safe block; the n-sum runs over |n - k| <= 60
    where |t_{kn}(g)| >= 1e-16, every t_{kn} from one :func:`e2group.irrep_row`.  The residual is the Frobenius
    norm of the difference relative to that of D_k's block.  Each D_n occupies the single diagonal -n, so the
    right side is written diagonal by diagonal into the block.  The detail is a callable that fits each D_n's
    coefficient to the left side and names the worst mismatches against t_{kn}(g).
    """
    lam, k = label.lam, label.k
    if lam * g.r > 6.0:
        raise ValueError("addition_residual requires lam * r <= 6")
    b = safe_block(dim, g.r)
    dk = _once(_basis_diagonal, lam, k, dim - abs(k) - 2)
    lhs = conjugated_block(_once(u_factors, g, dim, dim), dk, -k, b)

    rhs = np.zeros((b, b), dtype=complex)
    terms = {}  # n -> (t_{kn}(g), D_n's entries in the block)
    for n, t in zip(range(k - _ADDITION_NMAX, k + _ADDITION_NMAX + 1), irrep_row(label, g, _ADDITION_NMAX)):
        if abs(t) < 1e-16 or abs(n) >= b:
            continue
        i = np.arange(b - abs(n))
        dn = _once(_basis_diagonal, lam, n, dim - abs(n) - 2)[: len(i)]
        terms[n] = t, dn
        rhs[(i + n, i) if n >= 0 else (i, i - n)] = t * dn

    num = float(np.linalg.norm(lhs - rhs))
    den = float(np.linalg.norm(dk[: max(b - abs(k), 0)]))
    if den == 0.0:
        raise ValueError(f"addition at lam={lam!r}, k={k}: the norm of D_k's block underflows to 0")
    return Residual(num / den, lambda: _addition_phase_diagnostic(lhs, terms))


def _addition_phase_diagnostic(block, terms) -> str:
    # Project the transformed operator's safe block onto each D_n's diagonal
    # -n and report the worst per-n coefficient mismatches against t_{kn}(g).
    rows = []
    for n, (ref, dn) in terms.items():
        est = np.vdot(dn, np.diagonal(block, -n)) / np.vdot(dn, dn).real
        rows.append((abs(est - ref), n, est, ref))
    rows.sort(reverse=True)
    worst = "; ".join(f"n={n}: fitted {complex(est)!r}, expected {complex(ref)!r}" for _, n, est, ref in rows[:3])
    return "per-n coefficient mismatch: " + worst


def addition_vacuum_crosscheck(g: GroupElement, label: IrrepLabel, dim: int = 96) -> Residual:
    """The <0|.|0> element of the addition theorem collapses to identity-a, k = label.k.

    Checks that (U D_k U*)_{00} equals both t_{k0}(g) f_0(0) and the
    e^{-ik psi} e^{-r^2} r^k (i lam/2)^k/k! e^{-lam^2/8}-weighted left sum of
    identity-a, tying the operator statement to the scalar identity.
    """
    lam, k, r = label.lam, label.k, g.r
    if k < 0:
        raise ValueError("vacuum cross-check uses k >= 0")
    dk = _once(_basis_diagonal, lam, k, dim - k - 2)
    s1 = complex(conjugated_block(_once(u_factors, g, dim, dim), dk, -k, 1)[0, 0])
    s3 = irrep_row(label, g, k)[0] * basis_d(IrrepLabel(lam, 0), 4).radial[0]

    lhs_sum = float(np.sum(_vacuum_terms(k, lam / 2.0, r)))
    s2 = (
        np.exp(-1j * k * g.psi)
        * math.exp(-r * r + _log_power(k, r) - log_factorial(k) - lam * lam / 8.0)
        * (1j * lam / 2.0) ** k
        * lhs_sum
    )
    scale = max(abs(s1), abs(s3), 1e-300)
    return Residual(max(abs(s1 - s2), abs(s1 - s3)) / scale)


def hille_hardy_residual(k: int, x: float, y: float, zq: float) -> Residual:
    """Bilinear Laguerre generating function:

        sum_n (n!/(n+k)!) L^k_n(x) L^k_n(y) z^n
            = (xyz)^{-k/2} (1-z)^{-1} e^{-z(x+y)/(1-z)} I_k(2 sqrt(xyz)/(1-z)).
    """
    if k < 0 or not (0 < x) or not (0 < y) or not (0 < zq < 1):
        raise ValueError("hille_hardy_residual requires k >= 0, x, y > 0, 0 < zq < 1")
    if zq > 0.95:
        raise ValueError("hille_hardy_residual requires zq <= 0.95")
    nmax = min(4000, max(30, int(math.log(_TERM_EPS) / math.log(zq)) + 50))
    # L^k_n = C(n+k, n) Phi(-n, 1+k; .), so the weight (n!/(n+k)!) C(n+k, n)^2 is C(n+k, n)/k!
    px, py = _once(kummer_phi_seq, nmax, 1 + k, x), _once(kummer_phi_seq, nmax, 1 + k, y)
    ns = np.arange(nmax + 1)
    logf = _once(_log_factorials, nmax + k)
    logw = logf[k:] - logf[: nmax + 1] - 2 * logf[k]
    terms = np.exp(logw + ns * math.log(zq)) * px * py
    lhs = float(np.sum(terms))

    arg = 2.0 * math.sqrt(x * y * zq) / (1.0 - zq)
    ik, ik_log_scale = bessel_i_scaled(k, arg)
    log_rhs_mag = (
        -0.5 * k * math.log(x * y * zq)
        - math.log(1.0 - zq)
        - zq * (x + y) / (1.0 - zq)
        + math.log(abs(ik))
        + ik_log_scale
    )
    rhs = math.copysign(math.exp(log_rhs_mag), ik)

    term_max = float(np.max(np.abs(terms)))
    scale = max(abs(lhs), abs(rhs), term_max)
    residual = abs(lhs - rhs) / scale
    detail = None
    if nmax == 4000 and abs(terms[-1]) > 1e-12 * scale:
        detail = "slow convergence: term cap reached"
        residual = max(residual, abs(terms[-1]) / scale)
    return Residual(residual, detail)


def orthogonality_profile_curve(k: int, lambda1: float, lambda2: float, zmax: int) -> np.ndarray:
    """Running values of the truncated inner product (D^l1_k, D^l2_k).

    Entry z is the sum over zeta <= z of the products of the two Fock
    diagonals of :func:`repk.basis_d`.  Different windings are exactly
    orthogonal (the trace grading), so only equal k is of interest; the
    diagonal l1 = l2 grows without bound (delta normalization) while
    off-diagonal values oscillate boundedly.  Raises FloatingPointError
    where a diagonal entry, a product or a sum overflows, underflows or
    turns NaN, so a value below the float range is refused, not read as 0.
    """
    with np.errstate(over="raise", under="raise", invalid="raise"):
        d1, d2 = (_once(_basis_diagonal, lam, k, zmax) for lam in (lambda1, lambda2))
        return np.cumsum((d1.conj() * d2).real)


def _profile_to_1000(k: int, lambda1: float, lambda2: float, zmax: int) -> np.ndarray:
    if zmax < 1001:
        raise ValueError(f"zmax {zmax} is below 1001, so the profile does not reach its zeta = 1000 checkpoint")
    return orthogonality_profile_curve(k, lambda1, lambda2, zmax)


def orthogonality_grading_residual(label1: IrrepLabel, label2: IrrepLabel) -> Residual:
    """|(D^l1_k1, D^l2_k2)| over zeta <= 60, exactly 0 for k1 != k2 (the trace grading)."""
    return Residual(abs(inner_product(basis_d(label1, 60).coefficients, basis_d(label2, 60).coefficients)))


def orthogonality_growth_residual(k: int, lam: float, zmax: int) -> Residual:
    """Worst fall of the diagonal profile (D^lam_k, D^lam_k), unbounded in zeta, across zeta = 100, 400, 1000."""
    values = _profile_to_1000(k, lam, lam, zmax)
    checkpoints = [values[100], values[400], values[1000]]
    detail = "diagonal profile " + ", ".join(repr(float(c)) for c in checkpoints)
    return Residual(worst_rise([-c for c in checkpoints], -math.inf), detail)


def orthogonality_bounded_residual(k: int, lambda1: float, lambda2: float, zmax: int) -> Residual:
    """Relative excess of an off-diagonal profile's largest |value| beyond zeta = 100 over its largest up to 100."""
    values = _profile_to_1000(k, lambda1, lambda2, zmax)
    head, tail = float(np.max(np.abs(values[:101]))), float(np.max(np.abs(values[101:])))
    return Residual((tail - head) / head, f"running max to 100: {head!r}; max beyond: {tail!r}")


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


def classical_limit_error(label: IrrepLabel, r: float, sigma: float) -> float:
    """Distance between the rescaled basis element and the plane matrix element.

    After the commutator rescaling by sigma, D_k evaluated at the classical
    point z = r e^{i psi}/sqrt(sigma) (i.e. zeta* = r^2/sigma, nearest
    integer) tends to t_{k0}(g(r, psi, 0)) as sigma -> 0.  The unit-modulus
    phases agree identically on both sides, whatever psi, leaving

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
    if not math.isfinite(rhs) or rhs == 0.0:
        raise ArithmeticError(f"(b-1)! c^((1-b)/2) I_(b-1)(2 sqrt(c)) is {rhs!r} at b={b}, c={c!r}")
    return abs(lhs / rhs - 1.0)
