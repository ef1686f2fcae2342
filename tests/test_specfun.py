import math

import mpmath as mp
import numpy as np
import pytest
from scipy.special import eval_genlaguerre

from e2fock.specfun import (
    bessel_i,
    bessel_i_scaled,
    bessel_j,
    bessel_j_seq,
    hyp2f0_poly,
    kummer_phi,
    kummer_phi_seq,
    laguerre,
    laguerre_seq,
    log_factorial,
)

from conftest import hyp2f0_series, kummer_series, laguerre_series


class TestKummerPhi:
    def test_empty_sum(self):
        assert kummer_phi(0, 3, 7.5) == 1.0

    @pytest.mark.parametrize("k,x", [(0, 0.3), (4, 2.0), (9, -1.5)])
    def test_single_term(self, k, x):
        assert kummer_phi(1, 1 + k, x) == pytest.approx(1 - x / (1 + k), rel=1e-15)

    def test_degree_two_frozen(self):
        # series oracle: sum_j (-2)_j / ((2)_j j!) 1^j = 1 - 1 + 1/6
        assert kummer_phi(2, 2, 1.0) == pytest.approx(1.0 / 6.0, rel=1e-14)

    @pytest.mark.parametrize("b", [1, 3, 10])
    @pytest.mark.parametrize("x", [0.25, 1.0, 4.0, 16.0, -2.5])
    def test_against_series_oracle(self, b, x):
        for n in (0, 1, 2, 5, 17, 30, 80, 200):
            ref = float(kummer_series(n, b, x))
            assert kummer_phi(n, b, x) == pytest.approx(ref, rel=1e-11, abs=1e-280)

    def test_seq_matches_scalar(self):
        seq = kummer_phi_seq(40, 5, 3.7)
        for n in (0, 7, 40):
            assert seq[n] == pytest.approx(kummer_phi(n, 5, 3.7), rel=1e-15)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            kummer_phi(-1, 1, 0.5)
        with pytest.raises(ValueError):
            kummer_phi(3, 0, 0.5)

    @pytest.mark.parametrize("c", [0.25, 1.0, 4.0, 16.0])
    @pytest.mark.parametrize("k", [0, 1, 5, 12, 20])
    def test_contiguous_recurrence(self, c, k):
        # a Phi(a+1) + (a-b) Phi(a-1) + (b-2a-c) Phi(a) = 0 at a = -zeta
        b = 1 + k
        phis = kummer_phi_seq(201, b, c)
        for zeta in range(1, 201):
            a = -zeta
            t1 = a * phis[zeta - 1]
            t2 = (a - b) * phis[zeta + 1]
            t3 = (b - 2 * a - c) * phis[zeta]
            scale = max(abs(t1), abs(t2), abs(t3))
            assert abs(t1 + t2 + t3) <= 1e-10 * scale


class TestHyp2F0:
    def test_vanishing_first_index(self):
        assert hyp2f0_poly(0, 5, -3.0) == 1.0

    def test_single_surviving_term(self):
        assert hyp2f0_poly(1, 1, 0.7) == pytest.approx(1.7, rel=1e-15)

    def test_two_two_frozen(self):
        assert hyp2f0_poly(2, 2, 0.5) == pytest.approx(3.5, rel=1e-15)

    def test_exact_symmetry(self, rng):
        for _ in range(50):
            m, n = int(rng.integers(0, 30)), int(rng.integers(0, 30))
            x = float(rng.normal())
            assert hyp2f0_poly(m, n, x) == hyp2f0_poly(n, m, x)

    @pytest.mark.parametrize("r", [0.25, 0.5, 1.0, 2.0, 4.0])
    def test_kummer_bridge(self, r):
        # n >= m: 2F0(-m,-n;-1/r^2) = (n!/(n-m)!) (-1/r^2)^m Phi(-m, 1+n-m; r^2).
        # The Kummer route is well conditioned and must match the exact value
        # at plain relative scale; the literal alternating sum cancels down
        # from terms ~1e7 at r=4, m=n=25, so it is compared at the
        # term-magnitude (backward-error) scale.
        for m, n in [(0, 0), (1, 4), (7, 7), (12, 25), (25, 25), (3, 18)]:
            x = -1.0 / (r * r)
            lhs = hyp2f0_poly(m, n, x)
            rhs = (
                math.exp(log_factorial(n) - log_factorial(n - m))
                * x**m
                * kummer_phi(m, 1 + n - m, r * r)
            )
            ref = float(hyp2f0_series(m, n, x))
            term_scale = max(
                math.exp(
                    log_factorial(m)
                    - log_factorial(m - j)
                    + log_factorial(n)
                    - log_factorial(n - j)
                    - log_factorial(j)
                    + j * math.log(abs(x))
                )
                for j in range(m + 1)
            )
            assert rhs == pytest.approx(ref, rel=1e-11)
            assert abs(lhs - ref) <= 1e-10 * max(abs(ref), term_scale)
            assert abs(lhs - rhs) <= 1e-10 * max(abs(ref), abs(lhs), abs(rhs), term_scale)

    def test_against_series_oracle(self):
        for m, n, x in [(3, 8, -2.0), (10, 10, 0.3), (25, 12, -16.0)]:
            assert hyp2f0_poly(m, n, x) == pytest.approx(float(hyp2f0_series(m, n, x)), rel=1e-12)


class TestLaguerre:
    def test_degree_zero(self):
        assert laguerre(0, 7, 3.3) == 1.0

    def test_degree_one(self):
        assert laguerre(1, 4, 2.5) == pytest.approx(1 + 4 - 2.5, rel=1e-15)

    def test_degree_two_frozen(self):
        # (x^2 - 4x + 2)/2 at x = 1
        assert laguerre(2, 0, 1.0) == pytest.approx(-0.5, rel=1e-14)

    def test_against_scipy(self):
        for n in (0, 3, 11, 40):
            for k in (0, 2, 17):
                for x in (0.1, 4.0, 22.0):
                    assert laguerre(n, k, x) == pytest.approx(
                        float(eval_genlaguerre(n, k, x)), rel=1e-10
                    )

    def test_kummer_cross_check(self):
        # L^k_n(x) = ((k+n)!/(k! n!)) Phi(-n, 1+k; x), relative 1e-12
        for n in (0, 1, 5, 20, 50):
            for k in (0, 1, 10, 50):
                for x in (0.5, 10.0, 25.0, -8.0):
                    bridge = (
                        math.exp(log_factorial(k + n) - log_factorial(k) - log_factorial(n))
                        * kummer_phi(n, 1 + k, x)
                    )
                    ref = float(laguerre_series(n, k, x))
                    assert laguerre(n, k, x) == pytest.approx(bridge, rel=1e-12, abs=1e-250 * abs(ref) + 1e-300)

    def test_seq_consistency(self):
        seq = laguerre_seq(30, 3, 1.7)
        assert seq[30] == pytest.approx(laguerre(30, 3, 1.7), rel=1e-15)


class TestBesselJ:
    def test_at_zero(self):
        assert bessel_j(0, 0.0) == 1.0
        assert bessel_j(3, 0.0) == 0.0

    def test_j0_of_one_frozen(self):
        # 30-term power series oracle
        ref = sum((-1) ** j * 0.25**j / math.factorial(j) ** 2 for j in range(30))
        assert abs(ref - 0.7651976865579666) < 1e-15
        assert bessel_j(0, 1.0) == pytest.approx(ref, rel=1e-14)

    def test_negative_order_reflection(self):
        for nu in (1, 2, 5):
            assert bessel_j(-nu, 3.7) == pytest.approx((-1) ** nu * bessel_j(nu, 3.7), rel=1e-15)

    def test_negative_argument_parity(self):
        for nu in (0, 1, 4):
            assert bessel_j(nu, -2.2) == pytest.approx((-1) ** nu * bessel_j(nu, 2.2), rel=1e-15)

    @pytest.mark.parametrize("x", [0.05, 0.9, 5.0, 10.0, 25.0, 50.0, 120.0, 200.0])
    def test_against_mpmath(self, x):
        seq = bessel_j_seq(60, x)
        for nu in (0, 1, 2, 7, 19, 38, 60):
            ref = float(mp.besselj(nu, x))
            if abs(ref) > 1e-270:
                assert seq[nu] == pytest.approx(ref, rel=1e-12)
                assert bessel_j(nu, x) == pytest.approx(ref, rel=1e-12)

    def test_large_argument(self):
        assert bessel_j(3, 10000.0) == pytest.approx(float(mp.besselj(3, 10000.0)), rel=1e-10)

    def test_sum_rule(self):
        # J_0^2 + 2 sum J_k^2 = 1
        for x in (0.5, 3.0, 6.0):
            seq = bessel_j_seq(80, x)
            total = seq[0] ** 2 + 2 * np.sum(seq[1:] ** 2)
            assert total == pytest.approx(1.0, abs=1e-13)


class TestBesselI:
    def test_at_zero(self):
        assert bessel_i(0, 0.0) == 1.0
        assert bessel_i(2, 0.0) == 0.0

    def test_i0_of_one_frozen(self):
        ref = sum(0.25**j / math.factorial(j) ** 2 for j in range(30))
        assert abs(ref - 1.2660658777520084) < 1e-15
        assert bessel_i(0, 1.0) == pytest.approx(ref, rel=1e-14)

    @pytest.mark.parametrize("x", [0.3, 2.0, 10.0, 50.0, 156.0, 400.0])
    def test_against_mpmath(self, x):
        for nu in (0, 1, 4, 9, 25, 60):
            ref = float(mp.besseli(nu, x) * mp.exp(-x))
            value, log_scale = bessel_i_scaled(nu, x)
            assert value * math.exp(log_scale - x) == pytest.approx(ref, rel=1e-12, abs=1e-290)

    def test_scaled_form_invariants(self):
        plain, plain_log_scale = bessel_i_scaled(2, 10.0)
        assert plain_log_scale == 0.0
        assert plain == pytest.approx(float(mp.besseli(2, 10.0)), rel=1e-12)
        big, big_log_scale = bessel_i_scaled(0, 800.0)
        assert big_log_scale == 800.0
        assert math.isfinite(big)
        assert big == pytest.approx(float(mp.besseli(0, 800.0) * mp.exp(-800)), rel=1e-12)

    def test_rejects_negative_argument(self):
        with pytest.raises(ValueError):
            bessel_i(0, -1.0)

    def test_series_recurrence_seam(self):
        # evaluation switches from series to normalized recurrence at x = 30
        for x in (29.999, 30.0, 30.001):
            ref = float(mp.besseli(7, x) * mp.exp(-x))
            value, log_scale = bessel_i_scaled(7, x)
            assert value * math.exp(log_scale - x) == pytest.approx(ref, rel=1e-13)

    def test_asymptotic_ratio(self):
        # I_nu(x) sqrt(2 pi x) e^{-x} -> 1, deviation shrinking in x; the
        # leading correction is (4 nu^2 - 1)/(8x), so the 0.01 bound at x=50
        # holds for nu <= 1 only.
        xs = [20.0, 50.0, 100.0, 200.0]
        for nu in range(6):
            devs = []
            for x in xs:
                value, log_scale = bessel_i_scaled(nu, x)
                ratio = value * math.exp(log_scale - x) * math.sqrt(2 * math.pi * x)
                devs.append(abs(ratio - 1.0))
            assert all(b < a for a, b in zip(devs, devs[1:])), (nu, devs)
            if nu <= 1:
                assert devs[1] < 0.01


class TestLogFactorial:
    def test_trivial(self):
        assert log_factorial(0) == 0.0
        assert log_factorial(1) == 0.0

    def test_five(self):
        assert log_factorial(5) == pytest.approx(math.log(120.0), abs=1e-15)

    def test_absolute_error_small_n(self):
        # 1e-13 absolute holds while values stay below 512 (ulp 5.7e-14);
        # past that the bound is representability-limited to ~2 ulp
        for n in range(0, 171, 7):
            ref = float(mp.log(mp.factorial(n)))
            bound = 1e-13 if ref < 512 else 2 * math.ulp(ref)
            assert abs(log_factorial(n) - ref) <= bound

    def test_relative_error_large_n(self):
        for n in (500, 10_000, 1_000_000):
            ref = mp.log(mp.factorial(n))
            assert abs(log_factorial(n) / float(ref) - 1) <= 1e-14

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            log_factorial(-1)


def test_specvalue_reconstruction():
    # bessel_i is the scaled pair's value * e^log_scale, bit for bit, on both sides of x = 500
    for nu, x in ((3, 0.5), (2, 10.0), (0, 400.0), (1, 600.0)):
        value, log_scale = bessel_i_scaled(nu, x)
        assert log_scale == (x if x > 500.0 else 0.0)
        assert bessel_i(nu, x) == value * math.exp(log_scale)


def _kummer_loop(nmax, b, x):
    out = [1.0, 1.0 - x / b]
    for n in range(1, nmax):
        out.append(((b + 2 * n - x) * out[n] - n * out[n - 1]) / (n + b))
    return out[: nmax + 1]


def _laguerre_loop(nmax, k, x):
    out = [1.0, 1.0 + k - x]
    for n in range(1, nmax):
        out.append(((2 * n + 1 + k - x) * out[n] - (n + k) * out[n - 1]) / (n + 1))
    return out[: nmax + 1]


def _miller_loop(nmax, x, modified):
    # downward recurrence written out separately for J and for e^{-x} I
    out = [0.0] * (nmax + 1)
    start = max(nmax, math.ceil(x))
    start += 40 + int(10.0 * (start + 1) ** (1.0 / 3.0)) + int(2.0 * math.sqrt(start + 1))
    up, cur, norm = 0.0, 1e-300, 0.0
    for k in range(start, -1, -1):
        if modified:
            up, cur = cur, (2.0 * (k + 1) / x) * cur + up
        else:
            up, cur = cur, (2.0 * (k + 1) / x) * cur - up
        if abs(cur) > 1e250:
            up, cur, norm = up * 1e-250, cur * 1e-250, norm * 1e-250
            out = [v * 1e-250 for v in out]
        if k <= nmax:
            out[k] = cur
        if k > 0 and (modified or k % 2 == 0):
            norm += 2.0 * cur
    return [v / (cur + norm) for v in out]


class TestOneRecurrencePerFamily:
    """Sequence and scalar forms share one recurrence: bit-identical to the plain loops."""

    @pytest.mark.parametrize("b,x", [(1, 0.25), (3, 16.0), (7, -2.5), (2, -4e-4)])
    def test_kummer(self, b, x):
        ref = _kummer_loop(300, b, x)
        assert kummer_phi_seq(300, b, x).tolist() == ref
        assert [kummer_phi(n, b, x) for n in (0, 1, 2, 57, 300)] == [ref[n] for n in (0, 1, 2, 57, 300)]

    @pytest.mark.parametrize("k,x", [(0, 0.5), (3, 4.0), (6, 40.0)])
    def test_laguerre(self, k, x):
        ref = _laguerre_loop(300, k, x)
        assert laguerre_seq(300, k, x).tolist() == ref
        assert [laguerre(n, k, x) for n in (0, 1, 2, 57, 300)] == [ref[n] for n in (0, 1, 2, 57, 300)]

    @pytest.mark.parametrize("nmax,x", [(0, 0.3), (5, 2.0), (60, 7.5), (130, 300.0), (3, 900.0)])
    def test_bessel_j_and_i(self, nmax, x):
        assert bessel_j_seq(nmax, x).tolist() == _miller_loop(nmax, x, modified=False)
        if x > 30.0:
            scaled = _miller_loop(nmax, x, modified=True)[nmax]
            assert bessel_i_scaled(nmax, x)[0] == (scaled if x > 500.0 else scaled * math.exp(x))
