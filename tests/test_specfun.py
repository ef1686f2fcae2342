import math
import sys
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy.special import eval_genlaguerre

from e2fock.specfun import (
    bessel_i_scaled,
    bessel_j,
    bessel_j_seq,
    hyp2f0_seq,
    kummer_phi,
    kummer_phi_seq,
    log_factorial,
)

from conftest import hyp2f0_per_entry, hyp2f0_series, kummer_series, laguerre_series


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


def _hyp2f0(m, n, x):
    # the single value 2F0(-m, -n; x): entry n of the column hyp2f0_seq(m, n, x)
    return float(hyp2f0_seq(m, n, x)[n])


class TestHyp2F0:
    def test_vanishing_first_index(self):
        assert _hyp2f0(0, 5, -3.0) == 1.0

    def test_single_surviving_term(self):
        assert _hyp2f0(1, 1, 0.7) == pytest.approx(1.7, rel=1e-15)

    def test_two_two_frozen(self):
        assert _hyp2f0(2, 2, 0.5) == pytest.approx(3.5, rel=1e-15)

    def test_exact_symmetry(self, rng):
        for _ in range(50):
            m, n = int(rng.integers(0, 30)), int(rng.integers(0, 30))
            x = float(rng.normal())
            assert _hyp2f0(m, n, x) == _hyp2f0(n, m, x)

    @pytest.mark.parametrize("r", [0.25, 0.5, 1.0, 2.0, 4.0])
    def test_kummer_bridge(self, r):
        # n >= m: 2F0(-m,-n;-1/r^2) = (n!/(n-m)!) (-1/r^2)^m Phi(-m, 1+n-m; r^2).
        # the column takes this well-conditioned route, so it matches the exact
        # value at plain relative scale, even where the literal alternating sum
        # cancels down from terms ~1e7 (r = 4, m = n = 25)
        for m, n in [(0, 0), (1, 4), (7, 7), (12, 25), (25, 25), (3, 18)]:
            x = -1.0 / (r * r)
            ref = float(hyp2f0_series(m, n, x))
            assert _hyp2f0(m, n, x) == pytest.approx(ref, rel=1e-11)

    def test_out_of_range_arguments(self):
        # x = 0 leaves the empty-sum 1, and at x = -1e200 the value is out of the float range
        assert _hyp2f0(3, 5, 0.0) == _hyp2f0(0, 0, -1e200) == 1.0
        assert not math.isfinite(_hyp2f0(2, 5, -1e200))
        # tiny |x| (large r): x^16 = 1e-320 is subnormal and Phi(-16, 1; 1e20) ~ 5e306, so
        # only the power carried through the recurrence keeps every digit of the product
        for m, n, x in [(16, 16, -1e-20), (16, 80, -1e-18), (40, 60, -1e-9), (3, 5, -1e-200)]:
            assert _hyp2f0(m, n, x) == pytest.approx(float(hyp2f0_series(m, n, x)), rel=1e-13)

    def test_against_series_oracle(self):
        for m, n, x in [(3, 8, -2.0), (10, 10, 0.3), (25, 12, -16.0)]:
            assert _hyp2f0(m, n, x) == pytest.approx(float(hyp2f0_series(m, n, x)), rel=1e-12)

    @pytest.mark.parametrize("m,nmax,x", [(5, 12, -1e200), (40, 80, 1e-300), (30, 60, 1e160), (0, 3, 0.0)])
    def test_column_out_of_range(self, m, nmax, x):
        # entries beyond the float range are inf or NaN, as the per-entry floats are, and no warning is
        # printed; at x = 0 every entry is the empty sum 1
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            column = hyp2f0_seq(m, nmax, x)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            want = [hyp2f0_per_entry(m, n, x) for n in range(nmax + 1)]
        assert [repr(v) for v in column.tolist()] == [repr(v) for v in want]

    def test_column_factorial_overflow(self):
        # q!/(q-p)! above 1e308, 300!/150! here, raises as the per-entry product does
        with pytest.raises(OverflowError, match="int too large to convert to float"):
            hyp2f0_seq(150, 300, -1.0)


def _laguerre_route(nmax, k, x):
    # L^k_n(x) for n = 0..nmax as hille-hardy reads it: C(n+k, n) Phi(-n, 1+k; x)
    binomials = np.array([math.comb(n + k, n) for n in range(nmax + 1)], dtype=float)
    return binomials * kummer_phi_seq(nmax, 1 + k, x)


class TestLaguerre:
    """Generalized Laguerre values from the one Kummer recurrence."""

    def test_degree_zero(self):
        assert _laguerre_route(0, 7, 3.3)[0] == 1.0

    def test_degree_one(self):
        assert _laguerre_route(1, 4, 2.5)[1] == pytest.approx(1 + 4 - 2.5, rel=1e-15)

    def test_degree_two_frozen(self):
        # (x^2 - 4x + 2)/2 at x = 1
        assert _laguerre_route(2, 0, 1.0)[2] == pytest.approx(-0.5, rel=1e-14)

    def test_against_scipy(self):
        for k in (0, 2, 17):
            for x in (0.1, 4.0, 22.0):
                values = _laguerre_route(40, k, x)
                for n in (0, 3, 11, 40):
                    assert values[n] == pytest.approx(float(eval_genlaguerre(n, k, x)), rel=1e-10)

    def test_kummer_cross_check(self):
        # against the exact series at relative 1e-12, negative x included
        for k in (0, 1, 10, 50):
            for x in (0.5, 10.0, 25.0, -8.0):
                values = _laguerre_route(50, k, x)
                for n in (0, 1, 5, 20, 50):
                    ref = float(laguerre_series(n, k, x))
                    assert values[n] == pytest.approx(ref, rel=1e-12, abs=1e-250 * abs(ref) + 1e-300)

    def test_seq_consistency(self):
        # the sequence's last entry, at degree 300, is the series value
        assert _laguerre_route(300, 3, 1.7)[300] == pytest.approx(float(laguerre_series(300, 3, 1.7)), rel=1e-12)

    @pytest.mark.parametrize("x", [0.5, 4.0, 12.0, 30.0])
    def test_hille_hardy_range(self, x):
        # hille-hardy's degrees and orders: n <= 300, k <= 6.  Near a zero of L^k_n
        # no method does better than absolutely, so the error is measured against
        # the largest |C(n+k, n) Phi| up to n, the size the recurrence's rounding scales with
        for k in (0, 1, 3, 6):
            values = _laguerre_route(300, k, x)
            for n in (0, 1, 9, 60, 150, 300):
                ref = float(laguerre_series(n, k, x))
                assert abs(values[n] - ref) <= 1e-12 * max(abs(ref), *np.abs(values[: n + 1]))


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

    @pytest.mark.parametrize("nmax,x", [(3, 1e-100), (60, 5e-301), (8, 9e-31), (8, 1e-30)])
    def test_tiny_argument(self, nmax, x):
        # one downward step at x = 1e-100 grows by 2k/x >= 1e100, past the recurrence's
        # rescaling: below x = 1e-30 each entry is bessel_j's series float, at 1e-30 the recurrence's
        seq = bessel_j_seq(nmax, x)
        want = [bessel_j(k, x) for k in range(nmax + 1)]
        assert np.all(np.isfinite(seq))
        if x < 1e-30:
            assert seq.tolist() == want
        else:
            assert seq == pytest.approx(want, rel=1e-13)

    def test_smallest_subnormal_argument(self):
        # x / 2 underflows to 0 at x = 5e-324, so the leading term (x/2)^nu/nu! is 1 or 0
        assert bessel_j(0, 5e-324) == 1.0
        assert bessel_j(1, 5e-324) == 0.0
        assert bessel_j_seq(3, 5e-324).tolist() == [1.0, 0.0, 0.0, 0.0]
        # I_1(5e-324) = 2.5e-324 is subnormal, so it comes as the first term's log
        assert bessel_i_scaled(0, 5e-324) == (1.0, 0.0)
        assert bessel_i_scaled(1, 5e-324) == (1.0, pytest.approx(math.log(5e-324) - math.log(2.0), rel=1e-15))

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
        assert bessel_i_scaled(0, 0.0) == (1.0, 0.0)
        assert bessel_i_scaled(2, 0.0) == (0.0, 0.0)

    def test_i0_of_one_frozen(self):
        ref = sum(0.25**j / math.factorial(j) ** 2 for j in range(30))
        assert abs(ref - 1.2660658777520084) < 1e-15
        assert bessel_i_scaled(0, 1.0) == (pytest.approx(ref, rel=1e-14), 0.0)

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
            bessel_i_scaled(0, -1.0)

    @pytest.mark.parametrize("nu,x", [(299, 14.142135623730951), (170, 1.41), (5, 1e-70), (40, 30.0)])
    def test_a_value_below_the_normal_range_is_log_scaled(self, nu, x):
        # I_299(14.1) is about 1e-358: the series over its first term, with that term's log as the scale
        value, log_scale = bessel_i_scaled(nu, x)
        want = mp.log(mp.besseli(nu, mp.mpf(x)))
        if want >= math.log(sys.float_info.min):
            assert log_scale == 0.0 and value == pytest.approx(float(mp.exp(want)), rel=1e-13)
        else:
            assert 1.0 <= value < 2.0 and math.log(value) + log_scale == pytest.approx(float(want), rel=1e-14)

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


def _kummer_loop(nmax, b, x):
    out = [1.0, 1.0 - x / b]
    for n in range(1, nmax):
        out.append(((b + 2 * n - x) * out[n] - n * out[n - 1]) / (n + b))
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
        # Laguerre values have no recurrence of their own: L^k_n = C(n+k, n) Phi(-n, 1+k; x)
        ref = _kummer_loop(300, 1 + k, x)
        assert kummer_phi_seq(300, 1 + k, x).tolist() == ref
        assert _laguerre_route(300, k, x).tolist() == [math.comb(n + k, n) * v for n, v in enumerate(ref)]

    @pytest.mark.parametrize("nmax,x", [(0, 0.3), (5, 2.0), (60, 7.5), (130, 300.0), (3, 900.0)])
    def test_bessel_j_and_i(self, nmax, x):
        assert bessel_j_seq(nmax, x).tolist() == _miller_loop(nmax, x, modified=False)
        if x > 30.0:
            scaled = _miller_loop(nmax, x, modified=True)[nmax]
            assert bessel_i_scaled(nmax, x)[0] == (scaled if x > 500.0 else scaled * math.exp(x))
