"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
complete.  Tolerances are pinned here, not configurable.
"""

import cmath
import io
import math
import time

import numpy as np
import pytest
from scipy.linalg import expm

from e2fock.cli import main as cli_main
from e2fock.e2group import (
    GroupElement,
    IrrepLabel,
    act_on_generator,
    u_matrix,
)
from e2fock.fock import annihilator, safe_block
from e2fock.identities import (
    addition_residual,
    addition_vacuum_crosscheck,
    classical_limit_error,
    hille_hardy_residual,
    identity_a,
    identity_b,
    kummer_bessel_limit_residual,
    orthogonality_profile_curve,
)
from e2fock.repk import basis_d, eigen_residuals, inner_product
from e2fock.specfun import kummer_phi_seq, log_factorial

from conftest import hyp2f0_per_entry


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:2d} [{status}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num}: {name} {detail}"


def test_criterion_1_kummer_recurrence():
    t0 = time.perf_counter()
    worst = 0.0
    for k in range(0, 21):
        b = 1 + k
        for c in (0.25, 1.0, 4.0, 16.0):
            phis = kummer_phi_seq(201, b, c)
            for zeta in range(1, 201):
                a = -zeta
                t1 = a * phis[zeta - 1]
                t2 = (a - b) * phis[zeta + 1]
                t3 = (b - 2 * a - c) * phis[zeta]
                scale = max(abs(t1), abs(t2), abs(t3))
                worst = max(worst, abs(t1 + t2 + t3) / scale)
    dt = time.perf_counter() - t0
    report(1, "Kummer recurrence residual <= 1e-10 (zeta<=200, k<=20)", worst <= 1e-10, f"worst {worst:.2e}, {dt:.2f}s")


def test_criterion_2_matrix_element_consistency():
    # 2F0 route vs the production (Kummer/Laguerre) route; residual measured
    # against the conditioning scale of the terminating sum, which is the
    # attainable float64 agreement (see notes: plain relative fails at r=4,
    # m=n=25 where the sum cancels 10 digits)
    worst = 0.0
    for r in (0.25, 0.5, 1.0, 2.0, 4.0):
        g = GroupElement(r, 0.7, 0.3)
        U = u_matrix(g, 26)
        for m in (0, 1, 5, 12, 25):
            for n in (0, 2, 9, 25):
                pref = math.exp(
                    (n + m) * math.log(r) - r * r / 2 - 0.5 * (log_factorial(n) + log_factorial(m))
                )
                direct = (
                    (-1.0) ** m
                    * cmath.exp(1j * ((m - n) * g.psi - m * g.phi))
                    * pref
                    * hyp2f0_per_entry(m, n, -1.0 / (r * r))
                )
                got = U[m, n]
                terms = [
                    math.exp(
                        log_factorial(m) - log_factorial(m - j)
                        + log_factorial(n) - log_factorial(n - j)
                        - log_factorial(j) - 2 * j * math.log(r)
                    )
                    for j in range(min(m, n) + 1)
                ]
                scale = max(abs(got), abs(direct), pref * max(terms))
                worst = max(worst, abs(got - direct) / scale)
    report(2, "matrix elements: 2F0 route agrees with Kummer route (1e-10)", worst <= 1e-10, f"worst {worst:.2e}")


def test_criterion_3_unitarity_intertwining():
    dim = 64
    worst_u = worst_i = 0.0
    for r in (0.5, 1.0, 1.5, 2.0):
        g = GroupElement(r, 0.7, 0.3)
        U = u_matrix(g, dim)
        a = annihilator(dim)
        alpha, beta = act_on_generator(g)
        b = safe_block(dim, r)
        worst_u = max(worst_u, float(np.linalg.norm((U.conj().T @ U - np.eye(dim))[:b, :b])))
        worst_i = max(
            worst_i,
            float(np.max(np.abs((U @ a @ U.conj().T - alpha * a - beta * np.eye(dim))[:b, :b]))),
        )
    # defect under dim doubling at fixed comparison block: strictly decreasing
    # until the float floor (1e-13), non-increasing after
    r = 1.5
    block = safe_block(32, r)
    defects = []
    for d in (32, 64, 128):
        U = u_matrix(GroupElement(r, 0.7, 0.3), d)
        defects.append(float(np.linalg.norm((U.conj().T @ U - np.eye(d))[:block, :block])))
    mono = defects[1] < defects[0] and all(b2 <= max(b1, 1e-13) for b1, b2 in zip(defects, defects[1:]))
    ok = worst_u <= 1e-8 and worst_i <= 1e-8 and mono
    report(3, "unitarity + intertwining <= 1e-8, defect monotone 32->64->128", ok,
           f"unit {worst_u:.2e}, intw {worst_i:.2e}, defects {['%.1e' % d for d in defects]}")


def test_criterion_4_matrix_exponential_oracle():
    dim = 64
    worst = 0.0
    for r in (0.5, 1.0, 1.5):
        g = GroupElement(r, 0.7, 0.3)
        a = annihilator(dim)
        beta = -r * cmath.exp(1j * (g.psi - g.phi))
        oracle = expm(beta * a.conj().T - np.conj(beta) * a) @ expm(-1j * g.phi * (a.conj().T @ a))
        U = u_matrix(g, dim)
        phase = oracle[0, 0] / U[0, 0]
        b = safe_block(dim, r)
        worst = max(worst, float(np.max(np.abs((phase * U - oracle)[:b, :b]))))
    report(4, "matrix-exponential oracle matches up to one global phase (1e-8)", worst <= 1e-8, f"worst {worst:.2e}")


def test_criterion_5_eigen_equations():
    t0 = time.perf_counter()
    worst_c1 = worst_c2 = 0.0
    for lam in (1.0, 2.0, 4.0, 8.0):
        for k in (-20, -10, -3, 0, 3, 10, 20):
            c1, c2 = eigen_residuals(IrrepLabel(lam, k), 200)
            worst_c1, worst_c2 = max(worst_c1, c1), max(worst_c2, c2)
    dt = time.perf_counter() - t0
    ok = worst_c1 <= 1e-10 and worst_c2 == 0.0
    report(5, "eigen-equations: grading exact, radial Casimir <= 1e-10", ok,
           f"c1 {worst_c1:.2e}, c2 {worst_c2}, {dt:.2f}s (p p* = p* p, both orderings checked)")


def test_criterion_6_sandwich_identities():
    t0 = time.perf_counter()
    worst_a = 0.0
    for k in range(0, 11):
        for x in (0.25, 0.5, 1.0, 2.0):
            for r in (0.5, 1.0, 2.0):
                worst_a = max(worst_a, identity_a(k, x, r).residual)
    worst_b = 0.0
    for m in range(0, 11):
        for k in range(0, 7):
            for x in (0.5, 1.0, 2.0):
                for r in (0.5, 1.0, 1.5):
                    worst_b = max(worst_b, identity_b(m, k, x, r).residual)
    dt = time.perf_counter() - t0
    ok = worst_a <= 1e-10 and worst_b <= 1e-9
    report(6, "sandwich identities A (1e-10) and B (1e-9) over the stated grids", ok,
           f"A {worst_a:.2e}, B {worst_b:.2e}, {dt:.1f}s")


def test_criterion_7_hille_hardy():
    t0 = time.perf_counter()
    worst = 0.0
    for k in range(0, 7):
        for x in (0.5, 2.0, 4.0):
            for y in (0.5, 2.0, 4.0):
                for zq in (0.3, 0.6, 0.9):
                    worst = max(worst, hille_hardy_residual(k, x, y, zq).residual)
    dt = time.perf_counter() - t0
    report(7, "bilinear Laguerre sum residual <= 1e-8 for zq <= 0.9", worst <= 1e-8, f"worst {worst:.2e}, {dt:.1f}s")


def test_criterion_8_addition_theorem():
    t0 = time.perf_counter()
    dim = 96
    worst = 0.0
    for lam, r in ((2.0, 2.0), (4.0, 1.0), (2.0, 1.0), (1.0, 2.0)):
        g = GroupElement(r, 0.7, 0.3)
        for k in (-4, -2, -1, 0, 1, 3, 4):
            worst = max(worst, addition_residual(g, IrrepLabel(lam, k), dim=dim).residual)
    worst_vac = 0.0
    for k in (0, 2, 4):
        g = GroupElement(1.5, 0.7, 0.3)
        worst_vac = max(worst_vac, addition_vacuum_crosscheck(g, IrrepLabel(2.0, k), dim=dim).residual)
    dt = time.perf_counter() - t0
    ok = worst <= 1e-7 and worst_vac <= 1e-9
    report(8, "addition theorem <= 1e-7 (|k|<=4, lam r<=4, dim 96) + vacuum element = identity A (1e-9)",
           ok, f"matrix {worst:.2e}, vacuum {worst_vac:.2e}, {dt:.1f}s")


def test_criterion_9_limits():
    t0 = time.perf_counter()
    ok_mono = True
    worst_final = 0.0
    for lam in (1.0, 2.0, 4.0):
        for k in (0, 2, 5, 8):
            for r in (0.8, 1.0, 2.0):
                errs = [classical_limit_error(IrrepLabel(lam, k), r, s) for s in (1e-1, 1e-2, 1e-3, 1e-4)]
                ok_mono = ok_mono and all(b < a for a, b in zip(errs, errs[1:]))
                worst_final = max(worst_final, errs[-1])
    ok_kb = True
    worst_kb = 0.0
    for b in (1, 2, 3, 10):
        for c in (0.5, 4.0, 9.0):
            resids = [kummer_bessel_limit_residual(n, b, c) for n in (100, 1000, 10_000)]
            ok_kb = ok_kb and resids[0] > resids[1] > resids[2]
            worst_kb = max(worst_kb, resids[-1])
    dt = time.perf_counter() - t0
    ok = ok_mono and worst_final <= 1e-2 and ok_kb and worst_kb <= 1e-2
    report(9, "classical limit monotone, <= 1e-2 at sigma=1e-4; Kummer->Bessel limit <= 1e-2 at n=1e4",
           ok, f"classical {worst_final:.2e}, bessel-limit {worst_kb:.2e}, {dt:.1f}s")


def test_criterion_10_orthogonality():
    zero_ok = True
    for k1, k2 in [(-2, 0), (0, 1), (1, 3), (-1, 2)]:
        d1 = basis_d(IrrepLabel(2.0, k1), 50).coefficients
        d2 = basis_d(IrrepLabel(3.0, k2), 50).coefficients
        zero_ok = zero_ok and inner_product(d1, d2) == 0.0
    growth_ok = True
    for lam in (1.0, 2.0, 4.0):
        curve = orthogonality_profile_curve(0, lam, lam, 1000)
        growth_ok = growth_ok and curve[100] < curve[400] < curve[999]
    bounded_ok = True
    for k, l1, l2 in [(0, 1.0, 3.0), (2, 1.0, 2.5), (3, 2.5, 5.0), (0, 2.0, 4.5)]:
        curve = orthogonality_profile_curve(k, l1, l2, 1000)
        bounded_ok = bounded_ok and np.max(np.abs(curve[101:])) <= np.max(np.abs(curve[:101]))
    ok = zero_ok and growth_ok and bounded_ok
    report(10, "orthogonality: cross-winding exactly 0, diagonal grows, off-diagonal bounded", ok,
           f"zero {zero_ok}, growth {growth_ok}, bounded {bounded_ok}")


def test_criterion_11_determinism():
    t0 = time.perf_counter()
    outs = []
    for _ in range(2):
        buf = io.StringIO()
        code = cli_main(["verify", "all", "--seed", "1234"], stream=buf)
        outs.append(buf.getvalue().encode())
        assert code == 0, "verify all must pass"
    dt = time.perf_counter() - t0
    report(11, "two runs of `verify all` are byte-identical", outs[0] == outs[1],
           f"{len(outs[0])} bytes each, {dt:.1f}s for both")
