import itertools
import math
import random
import re

import mpmath as mp
import numpy as np
import pytest

from e2fock.e2group import GroupElement, IrrepLabel, identity, u_matrix
from e2fock import identities
from e2fock.fock import safe_block
from e2fock.identities import (
    Residual,
    addition_residual,
    addition_vacuum_crosscheck,
    classical_limit_error,
    hille_hardy_residual,
    identity_a,
    identity_b,
    intertwining_residual,
    kummer_bessel_limit_residual,
    kummer_recurrence_residual,
    orthogonality_bounded_residual,
    orthogonality_grading_residual,
    orthogonality_growth_residual,
    orthogonality_profile_curve,
    unitarity_decay_residual,
    unitarity_residual,
    worst_rise,
)
from e2fock.repk import basis_d, inner_product, to_matrix

from conftest import identity_b_termwise, irrep_element_series, laguerre_series, orthogonality_profile_mp


def orthogonality_profile(k, lambda1, lambda2, zmax):
    return float(orthogonality_profile_curve(k, lambda1, lambda2, zmax)[-1])


class TestIdentityA:
    def test_small_x_limit(self):
        # k = 0: both sides converge to e^{r^2}
        rep = identity_a(0, 1e-8, 1.0)
        assert rep.residual <= 1e-12

    def test_frozen_point(self):
        # k=0, x=1, r=1: both sides equal e * J_0(2)
        rep = identity_a(0, 1.0, 1.0)
        assert rep.residual <= 1e-10
        ref = float(mp.e * mp.besselj(0, 2))
        rhs = math.exp(1.0) * float(mp.besselj(0, 2))
        assert abs(rhs - ref) <= 1e-14

    def test_example_point(self):
        rep = identity_a(3, 0.5, 2.0)
        assert rep.residual <= 1e-10

    def test_full_grid(self):
        for k in range(0, 11):
            for x in (0.25, 0.5, 1.0, 2.0):
                for r in (0.5, 1.0, 2.0):
                    rep = identity_a(k, x, r)
                    assert rep.residual <= 1e-10, (k, x, r)

    def test_mpmath_oracle_spot(self):
        # independent high-precision evaluation of both sides
        k, x, r = 4, 1.5, 2.0
        with mp.workdps(60):
            lhs = mp.nsum(
                lambda n: mp.mpf(r) ** (2 * int(n))
                / mp.factorial(int(n))
                * mp.hyp1f1(-int(n), 1 + k, mp.mpf(x) ** 2),
                [0, 120],
            )
            rhs = mp.factorial(k) * (x * r) ** (-k) * mp.exp(r * r) * mp.besselj(k, 2 * x * r)
            assert abs(float(lhs / rhs) - 1.0) <= 1e-30

    @pytest.mark.parametrize("k,x,r", [(20, 4.0, 3.0), (20, 0.25, 3.0), (0, 4.0, 3.0), (20, 4.0, 0.25)])
    def test_contract_corners(self, k, x, r):
        rep = identity_a(k, x, r)
        assert rep.residual <= 1e-10

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            identity_a(-1, 1.0, 1.0)
        with pytest.raises(ValueError):
            identity_a(0, 0.0, 1.0)


def _old_vacuum_degree(r):
    # the scan as it stood before it started at the weights' peak: from n = 10, to 400 at most
    r2 = r * r
    nmax, t = 10, r2**10 / math.factorial(10)
    while t > 1e-18 * math.exp(r2) and nmax < 400:
        nmax += 1
        t *= r2 / nmax
    return nmax


class TestVacuumDegree:
    def test_every_degree_up_to_r_8_2_is_the_scan_from_10(self):
        # below r^2 ~ 68.7 the 1e-18 test first holds past the weights' peak, so starting the scan there moves no
        # degree: the default grids keep their term counts
        rs = [i / 100 for i in range(1, 821)] + [1e-8, 0.125, math.sqrt(68.0)]
        assert [identities._vacuum_degree(r) for r in rs] == [_old_vacuum_degree(r) for r in rs]

    def test_the_scan_no_longer_stops_on_the_rising_side(self):
        # from r ~ 8.29 the old scan stopped at n = 10, before the peak near r^2, and both checks read 1.0
        assert _old_vacuum_degree(9.0) == 10 and identities._vacuum_degree(9.0) == 172
        assert identity_a(0, 0.5, 9.0).residual <= 1e-12

    @pytest.mark.parametrize("r", [17.0, 20.0, 26.7, 1e200])
    def test_a_sum_past_400_terms_is_refused(self, r):
        # r = 17 once summed short and failed at 1.7e-9; past r ~ 26.6 e^(r^2) overflowed with "math range error"
        with pytest.raises(ArithmeticError, match=r"vacuum sum's weights .* past n = 400"):
            identities._vacuum_degree(r)


class TestIdentityB:
    def test_degenerate_zero_point(self):
        # both sides vanish identically at m=1, k=0, x=r=1; the term-aware
        # residual scale keeps the check meaningful
        rep = identity_b(1, 0, 1.0, 1.0)
        assert rep.residual <= 1e-9

    def test_example_point(self):
        rep = identity_b(5, 3, 0.8, 1.5)
        assert rep.residual <= 1e-9

    def test_full_grid(self):
        for m in range(0, 11):
            for k in range(0, 7):
                for x in (0.5, 1.0, 2.0):
                    for r in (0.5, 1.0, 1.5):
                        rep = identity_b(m, k, x, r)
                        assert rep.residual <= 1e-9, (m, k, x, r)

    def test_small_x_trivial(self):
        rep = identity_b(0, 0, 1e-9, 1.0)
        assert rep.residual <= 1e-12

    def test_flags_unconverged_tail(self):
        # at 2xr = 100 the 80-term sum has not converged; the last term enters the residual
        rep = identity_b(5, 3, 10.0, 5.0)
        assert rep.residual > 1e-2
        assert rep.detail.startswith("non-convergent tail: last term")

    @pytest.mark.parametrize(
        "m,k,x,r",
        [(15, 10, 3.0, 0.25), (15, 10, 0.5, 3.0), (15, 0, 3.0, 3.0), (0, 10, 3.0, 0.25), (15, 10, 3.0, 3.0)],
    )
    def test_contract_corners(self, m, k, x, r):
        rep = identity_b(m, k, x, r)
        assert rep.residual <= 1e-9


def _outcome(check, *point):
    # the residual's repr and the detail, or the error's type and message
    try:
        residual, detail = check(*point)
    except (ValueError, ArithmeticError) as exc:
        return type(exc).__name__, str(exc)
    return repr(residual), detail


_DEFAULT_B_GRID = list(itertools.product(range(11), range(7), [0.5, 1.0, 2.0], [0.5, 1.0, 1.5]))

# x and r drawn from the benchmark's span for identity-b, x in [0.5, 2], r in [0.5, 1.5]
_rng = random.Random(19)
_SPAN_B_GRID = list(
    itertools.product(
        range(11), range(7), [round(_rng.uniform(0.5, 2.0), 4) for _ in range(3)], [round(_rng.uniform(0.5, 1.5), 4)]
    )
)

_EDGE_B_POINTS = [
    (5, 3, 10.0, 5.0),  # the sum has not converged by n = 80
    (0, 0, 1e-200, 1.0),  # only term 0 survives
    (3, 2, 1e-200, 1.0),  # both sides and every term are 0, a scale below the normal range: an error
    (2, 1, 1.0, 1e-200),  # -1/r^2 divides by zero: an error
    (0, 0, 1e-200, 1e-200),  # both
    (4, 2, 1.0, 2e5),  # terms near 1e302, an unconverged tail
    (4, 2, 1.0, 3e5),  # the weights overflow to inf, and inf - inf makes the sum NaN
    (0, 0, 0.5, 1e200),  # 2xr is past the Bessel recurrence's step cap: an error
    (0, 150, 0.5, 0.5),  # every term below 1e-98 and the last the largest: the sum still rises at n = 80
    (0, 400, 0.5, 0.5),  # every term 0, the last among them
]


class TestIdentityBArrayPass:
    """The n-sum as one array pass gives the term loop's floats."""

    @pytest.mark.parametrize(
        "points", [_DEFAULT_B_GRID, _SPAN_B_GRID, _EDGE_B_POINTS], ids=["default", "span", "edge"]
    )
    def test_matches_the_term_loop(self, points):
        # an overflow inside the pass would raise here: the suite turns RuntimeWarning into an error
        want = [_outcome(identity_b_termwise, *p) for p in points]
        assert [_outcome(identity_b, *p) for p in points] == want

    def test_edge_points_cover_every_outcome(self):
        outcomes = [_outcome(identity_b, *p) for p in _EDGE_B_POINTS]
        assert outcomes[0][1].startswith("non-convergent tail")
        assert {o[0] for o in outcomes} >= {"ArithmeticError", "ZeroDivisionError", "ValueError", "nan"}
        # a failing record says why: a NaN sum that it overflows, a sum whose last term is its largest that it rises
        assert all(detail for residual, detail in outcomes if residual in ("nan", "1.0"))
        assert outcomes[6][0] == "nan" and outcomes[6][1].startswith("the n-sum overflows")
        assert [detail.split(":")[0] for _, detail in outcomes[-2:]] == ["the n-sum still rises at n = 80"] * 2


class TestAdditionTheorem:
    def test_identity_element(self):
        rep = addition_residual(identity(), IrrepLabel(2.0, 1), dim=48)
        assert rep.residual <= 1e-14

    def test_pure_rotation(self):
        g = GroupElement(0.0, 0.0, 0.9)
        rep = addition_residual(g, IrrepLabel(2.0, 2), dim=48)
        assert rep.residual <= 1e-12

    def test_example_point(self):
        g = GroupElement(1.0, 0.7, 0.3)
        rep = addition_residual(g, IrrepLabel(2.0, 1), dim=96)
        assert rep.residual <= 1e-7

    @pytest.mark.parametrize("k", [-4, -2, 0, 3, 4])
    @pytest.mark.parametrize("lam,r", [(2.0, 2.0), (4.0, 1.0), (1.0, 0.5)])
    def test_acceptance_grid(self, k, lam, r):
        g = GroupElement(r, 0.7, 0.3)
        rep = addition_residual(g, IrrepLabel(lam, k), dim=96)
        assert rep.residual <= 1e-7, (k, lam, r)

    def test_vacuum_crosscheck(self):
        for k in (0, 2, 4):
            g = GroupElement(1.0, 0.7, 0.3)
            rep = addition_vacuum_crosscheck(g, IrrepLabel(2.0, k), dim=96)
            assert rep.residual <= 1e-9, k

    def test_guards_large_lam_r(self):
        with pytest.raises(ValueError):
            addition_residual(GroupElement(4.0, 0, 0), IrrepLabel(2.0, 0), dim=96)

    @pytest.mark.parametrize("k", [-4, 0, 4])
    def test_lam_r_contract_boundary(self, k):
        g = GroupElement(2.0, 0.7, 0.3)
        rep = addition_residual(g, IrrepLabel(3.0, k), dim=96)
        assert rep.residual <= 1e-7


def dense_addition_residual(g, lam, k, dim, nmax=60):
    # reference: both sides of the addition theorem as dense matrix sums
    def basis(n):
        return to_matrix(basis_d(IrrepLabel(lam, n), dim - abs(n) - 2).coefficients, dim)

    U, Mk = u_matrix(g, dim), basis(k)
    lhs = U @ Mk @ U.conj().T
    rhs = np.zeros_like(lhs)
    for n in range(k - nmax, k + nmax + 1):
        if abs(t := irrep_element_series(IrrepLabel(lam, k), n, g)) >= 1e-16:
            rhs += t * basis(n)
    b = safe_block(dim, g.r)
    return float(np.linalg.norm((lhs - rhs)[:b, :b])) / float(np.linalg.norm(Mk[:b, :b]))


class TestAdditionByDiagonals:
    @pytest.mark.parametrize("dim,lam,r", [(32, 1.0, 2.0), (32, 2.0, 1.0), (96, 2.0, 0.5), (96, 3.0, 2.0)])
    def test_residual_equals_dense_sum(self, dim, lam, r):
        # the right side written diagonal by diagonal, the left from U's factors, against both sides as
        # dense complex products: the residual moves by rounding only, the verdict not at all
        g = GroupElement(r, 0.7, 0.3)
        for k in (-4, 0, 1, 3):
            rep = addition_residual(g, IrrepLabel(lam, k), dim=dim)
            dense = dense_addition_residual(g, lam, k, dim)
            assert abs(rep.residual - dense) <= 1e-14 and (rep.residual <= 1e-7) == (dense <= 1e-7), (k, rep.residual)


class TestAdditionVacuumRows:
    @pytest.mark.parametrize("dim", [16, 32, 96, 512])
    def test_matches_the_full_product(self, dim, monkeypatch):
        # (U D_k U*)_00 from U's first core row against the whole dense dim x dim product
        def dense_block(factors, values, offset, n):
            row, col, M = factors
            i = np.arange(len(values))
            V = np.zeros((dim, dim), dtype=complex)
            V[(i, i + offset) if offset >= 0 else (i - offset, i)] = values
            U = row[:, None] * M * col
            return (U @ V @ U.conj().T)[:n, :n]

        g = GroupElement(0.5, 0.7, 0.3)
        cases = [(lam, k) for lam in (1.0, 2.0, 4.0) for k in (0, 1, 3, 6)]
        rows = [addition_vacuum_crosscheck(g, IrrepLabel(lam, k), dim=dim) for lam, k in cases]
        monkeypatch.setattr(identities, "conjugated_block", dense_block)
        full = [addition_vacuum_crosscheck(g, IrrepLabel(lam, k), dim=dim) for lam, k in cases]
        for a, b in zip(rows, full):
            assert a.residual <= 1e-9 and b.residual <= 1e-9 and abs(a.residual - b.residual) <= 1e-14


class TestHilleHardy:
    def test_small_z_limit(self):
        rep = hille_hardy_residual(0, 1.0, 1.0, 1e-6)
        assert rep.residual <= 1e-10

    def test_frozen_point(self):
        rep = hille_hardy_residual(0, 1.0, 1.0, 0.5)
        assert rep.residual <= 1e-10

    def test_example_point(self):
        rep = hille_hardy_residual(4, 2.0, 3.0, 0.9)
        assert rep.residual <= 1e-8

    def test_grid(self):
        for k in range(0, 7):
            for x in (0.5, 2.0, 4.0):
                for y in (0.5, 2.0, 4.0):
                    for zq in (0.5, 0.9):
                        rep = hille_hardy_residual(k, x, y, zq)
                        assert rep.residual <= 1e-8, (k, x, y, zq)

    def test_hard_corner(self):
        rep = hille_hardy_residual(6, 4.0, 4.0, 0.95)
        assert rep.residual <= 1e-8

    def test_a_bessel_side_below_the_normal_range(self):
        # I_4(2 sqrt(xyz)/(1-z)) is about 1.6e-398 here; it once underflowed to 0 and its log refused the point
        rep = hille_hardy_residual(4, 1e-200, 100.0, 0.3)
        assert rep.residual <= 1e-13

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            hille_hardy_residual(0, 1.0, 1.0, 0.99)

    @pytest.mark.parametrize("k,x,y,zq", [(28, 0.5, 0.5, 0.9), (60, 0.5, 0.5, 0.9), (0, 500.0, 500.0, 0.5)])
    def test_a_non_convergent_tail_names_itself(self, k, x, y, zq):
        # the sum stops at n = int(log(1e-18)/log(zq)) + 50 while its weights C(n+k, n) zq^n or its Laguerre values
        # still matter there: the detail names the last term, here against its value in 60 digits, and that term
        # over the scale is at most the residual
        rep = hille_hardy_residual(k, x, y, zq)
        match = re.fullmatch(r"non-convergent tail: last term (\S+) vs scale (\S+)", rep.detail)
        tail, scale = float(match[1]), float(match[2])
        n = int(math.log(1e-18) / math.log(zq)) + 50
        with mp.workdps(60):
            weight = mp.factorial(n) / mp.factorial(n + k) * mp.mpf(zq) ** n
            last = weight * laguerre_series(n, k, x) * laguerre_series(n, k, y)
        assert tail == pytest.approx(float(abs(last)), rel=1e-3)
        assert tail > 1e-12 * scale and rep.residual >= tail / scale * (1 - 1e-3)


class TestOrthogonality:
    def test_cross_winding_exact_zero(self):
        for k1, k2 in [(-2, 0), (0, 1), (1, 3), (-1, 2)]:
            d1 = basis_d(IrrepLabel(2.0, k1), 50).coefficients
            d2 = basis_d(IrrepLabel(3.0, k2), 50).coefficients
            assert inner_product(d1, d2) == 0.0

    def test_diagonal_growth(self):
        for lam in (1.0, 2.0, 4.0):
            for k in (0, 1):
                curve = orthogonality_profile_curve(k, lam, lam, 1000)
                assert curve[100] < curve[400] < curve[999], (lam, k)

    def test_offdiagonal_bounded_spec_pair(self):
        curve = orthogonality_profile_curve(0, 2.0, 3.0, 1000)
        head = np.max(np.abs(curve[:101]))
        assert np.max(np.abs(curve[101:])) <= head

    @pytest.mark.parametrize("k,l1,l2", [(0, 1.0, 3.0), (2, 1.0, 2.5), (3, 2.5, 5.0), (0, 2.0, 4.5)])
    def test_offdiagonal_bounded_robust_pairs(self, k, l1, l2):
        curve = orthogonality_profile_curve(k, l1, l2, 1000)
        head = np.max(np.abs(curve[:101]))
        assert np.max(np.abs(curve[101:])) <= 0.97 * head

    def test_profile_value_matches_curve(self):
        # the value at zmax is the same running sum inside a longer curve
        assert orthogonality_profile(1, 2.0, 3.0, 500) == pytest.approx(
            float(orthogonality_profile_curve(1, 2.0, 3.0, 1000)[500]), rel=1e-15
        )

    @pytest.mark.parametrize("k,l1,l2", [(100, 2.0, 2.0), (50, 0.001, 40.0), (150, 20.0, 20.0)])
    def test_profile_against_mpmath(self, k, l1, l2):
        # the product of the two prefactors is subnormal here (e^-728.5 and about 1.5e-316) and would keep
        # only a few digits; the profile multiplies the two D_k diagonals, whose entries are in range.
        # At k = 150, (zeta+150)!/zeta! overflows, and only its root scales the entries
        ref = orthogonality_profile_mp(k, l1, l2, 1000)
        assert orthogonality_profile(k, l1, l2, 1000) == pytest.approx(float(ref), rel=1e-12)

    def test_profile_deep_truncation(self):
        # zmax = 2000, large winding: the diagonals of D_k stay finite
        for k, l1, l2 in [(6, 5.9, 6.0), (20, 0.5, 6.0)]:
            curve = orthogonality_profile_curve(k, l1, l2, 2000)
            assert np.all(np.isfinite(curve))

    def test_profile_matches_inner_product(self):
        # the vectorized profile agrees with the generic trace inner product
        lam1, lam2, k, zmax = 1.5, 2.5, 2, 60
        d1 = basis_d(IrrepLabel(lam1, k), zmax).coefficients
        d2 = basis_d(IrrepLabel(lam2, k), zmax).coefficients
        ref = inner_product(d1, d2)
        assert orthogonality_profile(k, lam1, lam2, zmax) == pytest.approx(ref.real, rel=1e-11)
        assert abs(ref.imag) <= 1e-12 * abs(ref.real)


def classical_limit_ladder(label, r, sigmas=(1e-1, 1e-2, 1e-3, 1e-4)):
    return [classical_limit_error(label, r, s) for s in sigmas]


class TestClassicalLimit:
    def test_trivial_small_r(self):
        # k = 0, r -> 0: error is |e^{-sigma lam^2/8} - 1| ~ sigma lam^2/8
        errs = classical_limit_ladder(IrrepLabel(1.0, 0), 1e-6)
        assert errs[-1] == pytest.approx(1e-4 / 8, rel=1e-3)
        assert all(b < a for a, b in zip(errs, errs[1:]))

    def test_example_monotone(self):
        errs = classical_limit_ladder(IrrepLabel(1.0, 0), 1.0)
        assert all(b < a for a, b in zip(errs, errs[1:]))

    def test_example_final_error(self):
        errs = classical_limit_ladder(IrrepLabel(2.0, 2), 1.5)
        assert errs[-1] <= 1e-2

    def test_acceptance_grid(self):
        for lam in (1.0, 2.0, 4.0):
            for k in (0, 2, 5, 8):
                for r in (0.8, 1.0, 2.0):
                    errs = classical_limit_ladder(IrrepLabel(lam, k), r)
                    assert all(b < a for a, b in zip(errs, errs[1:])), (lam, k, r, errs)
                    assert errs[-1] <= 1e-2, (lam, k, r, errs)

    def test_rejects_bad_sigma(self):
        with pytest.raises(ValueError):
            classical_limit_error(IrrepLabel(1.0, 0), 1.0, 0.0)


class TestKummerBesselLimit:
    def test_small_c(self):
        assert kummer_bessel_limit_residual(1000, 2, 1e-8) <= 1e-8

    def test_example_points(self):
        assert kummer_bessel_limit_residual(1000, 1, 1.0) <= 0.05
        assert kummer_bessel_limit_residual(10_000, 1, 1.0) < kummer_bessel_limit_residual(1000, 1, 1.0)
        assert kummer_bessel_limit_residual(10_000, 3, 4.0) <= 1e-2

    def test_grid_monotone(self):
        for b in (1, 2, 3, 10):
            for c in (0.5, 4.0, 9.0):
                resids = [kummer_bessel_limit_residual(n, b, c) for n in (100, 1000, 10_000)]
                assert resids[0] > resids[1] > resids[2], (b, c, resids)
                assert resids[-1] <= 1e-2


class TestWorstRise:
    def test_falling_ladder_is_at_most_zero(self):
        assert worst_rise([3.0, 2.0, 1.5], -math.inf) == -0.5
        assert worst_rise([1.0, 2.0, 1.5], -math.inf) == 1.0

    def test_steps_under_the_floor_count_from_it(self):
        assert worst_rise([1e-15, 2e-15], 1e-13) < 0
        assert worst_rise([1e-15, 2e-13], 1e-13) == pytest.approx(1e-13)


class TestOperatorChecks:
    G = GroupElement(1.5, 0.7, 0.3)

    def test_unitarity_and_intertwining_hold_on_the_safe_block(self):
        for dim in (64, 128):
            assert unitarity_residual(self.G, dim).residual <= 1e-12
            assert intertwining_residual(self.G, dim).residual <= 1e-12

    def test_unitarity_decay(self):
        rep = unitarity_decay_residual(self.G, safe_block(32, 1.5))
        assert rep.residual <= 0.0 and rep.detail.startswith("defects ") and rep.detail.endswith("(floor 1e-13)")


class TestKummerRecurrence:
    @pytest.mark.parametrize("b, x", [(1, 0.25), (4, 1.0), (21, 16.0), (1, -5.0)])
    def test_holds(self, b, x):
        assert kummer_recurrence_residual(b, x, 200) == Residual(pytest.approx(0.0, abs=1e-10))


class TestOrthogonalityChecks:
    def test_grading_is_exact(self):
        assert orthogonality_grading_residual(IrrepLabel(2.0, 1), IrrepLabel(3.0, 3)) == Residual(0.0)
        assert orthogonality_grading_residual(IrrepLabel(2.0, 1), IrrepLabel(3.0, 1)).residual > 0

    def test_diagonal_grows_and_offdiagonal_stays_bounded(self):
        growth = orthogonality_growth_residual(0, 2.0, 1001)
        assert growth.residual < 0 and growth.detail.startswith("diagonal profile ")
        bounded = orthogonality_bounded_residual(0, 1.0, 3.0, 1001)
        assert bounded.residual < 0 and bounded.detail.startswith("running max to 100: ")
