import math

import mpmath
import numpy as np
import pytest
from scipy.special import eval_genlaguerre

from e2fock import repk
from e2fock.e2group import GroupElement, IrrepLabel, identity, u_matrix
from e2fock.fock import annihilator, safe_block
from e2fock.identities import kummer_recurrence_residual
from e2fock.repk import (
    adjoint_p,
    adjoint_residual,
    algebra_function,
    basis_d,
    basis_diagonals,
    bracket_residual,
    eigen_residuals,
    inner_product,
    op_h,
    op_p,
    op_pbar,
    to_matrix,
)
from e2fock.specfun import kummer_phi, log_factorial


def hs_norm(F):
    return math.sqrt(inner_product(F, F).real)


def random_af(rng, zmax, windings, integer=False):
    terms = {}
    for w in windings:
        if integer:
            c = rng.integers(-5, 6, size=zmax + 1).astype(complex)
        else:
            c = rng.standard_normal(zmax + 1) + 1j * rng.standard_normal(zmax + 1)
        terms[int(w)] = c
    return algebra_function(terms, zmax)


def trace_inner_oracle(F, G):
    wmax = max(abs(w) for f in (F, G) for w in f.terms)
    dim = max(F.zmax, G.zmax) + wmax + 2
    return complex(np.trace(to_matrix(F, dim).conj().T @ to_matrix(G, dim)))


class TestInnerProduct:
    def test_rank_one_projector(self):
        F = algebra_function({0: [1.0]}, 0)
        assert inner_product(F, F) == 1.0

    def test_mismatched_windings_vanish(self):
        F = algebra_function({1: [1.0, 2.0]}, 1)
        G = algebra_function({-1: [1.0, 2.0]}, 1)
        assert inner_product(F, G) == 0.0

    def test_creator_norm_closed_form(self):
        # F = z*, coefficients 1 on zeta <= Z: (F,F) = sum (zeta+1)
        Z = 11
        F = algebra_function({-1: np.ones(Z + 1)}, Z)
        expected = sum(z + 1 for z in range(Z + 1))
        assert inner_product(F, F).real == pytest.approx(expected, rel=1e-15)
        assert inner_product(F, F) == pytest.approx(trace_inner_oracle(F, F), rel=1e-12)

    def test_matches_trace_oracle(self, rng):
        for _ in range(6):
            F = random_af(rng, 14, [-4, -1, 0, 2])
            G = random_af(rng, 14, [-4, 0, 2, 5])
            assert inner_product(F, G) == pytest.approx(trace_inner_oracle(F, G), rel=1e-10)

    def test_conjugate_symmetry_and_positivity(self, rng):
        F = random_af(rng, 10, [-2, 0, 1])
        G = random_af(rng, 10, [-2, 0, 1])
        assert inner_product(F, G) == pytest.approx(np.conj(inner_product(G, F)), rel=1e-13)
        assert inner_product(F, F).real > 0
        assert abs(inner_product(F, F).imag) <= 1e-12 * inner_product(F, F).real


class TestToMatrix:
    def test_unit_function_is_identity(self):
        F = algebra_function({0: np.ones(8)}, 7)
        assert np.array_equal(to_matrix(F, 10)[:8, :8], np.eye(8, dtype=complex))

    def test_single_lowering_entry(self):
        F = algebra_function({1: [1.0]}, 0)
        M = to_matrix(F, 4)
        assert M[0, 1] == 1.0 and np.count_nonzero(M) == 1

    def test_matches_ladder_matrix(self):
        Z = 9
        F = algebra_function({1: np.ones(Z + 1)}, Z)
        M = to_matrix(F, Z + 3)
        a = annihilator(Z + 3)
        assert np.max(np.abs(M[: Z + 1, : Z + 2] - a[: Z + 1, : Z + 2])) <= 1e-14

    def test_respects_adjoint(self, rng):
        F = random_af(rng, 8, [-3, 0, 2])
        assert np.array_equal(to_matrix(F.adjoint(), 14), to_matrix(F, 14).conj().T)

    def test_too_small_dim_raises(self):
        F = algebra_function({-5: np.ones(10)}, 9)
        with pytest.raises(ValueError):
            to_matrix(F, 10)


def commutator_oracle(F, op, dim):
    # p(F) = 2[F, z*] and pbar(F) = 2[z, F] realized on truncated matrices
    M = to_matrix(F, dim)
    a = annihilator(dim)
    if op == "p":
        return 2.0 * (M @ a.conj().T - a.conj().T @ M)
    return 2.0 * (a @ M - M @ a)


class TestDifferenceOperators:
    def test_p_kills_constants(self):
        F = algebra_function({0: np.ones(6)}, 5)
        out = op_p(F)
        # a nonconstant tail appears only at the truncation edge
        assert np.max(np.abs(out.coeff(-1)[:4])) == 0.0

    def test_p_on_monomial_stencil(self):
        # p(f z^n) = 2(n f(zeta) + zeta (f(zeta) - f(zeta-1))) z^{n-1}
        f = np.array([2.0, -1.0, 3.0, 0.5])
        F = algebra_function({2: f}, 3)
        out = op_p(F).coeff(1)
        fpad = np.concatenate((f, [0.0]))
        fprev = np.concatenate(([0.0], f))
        zeta = np.arange(5.0)
        expected = 2.0 * (2 * fpad + zeta * (fpad - fprev))
        assert np.max(np.abs(out - expected)) == 0.0

    @pytest.mark.parametrize("windings", [[0], [1], [-1], [3], [-4], [-2, 0, 1]])
    def test_matches_matrix_commutator(self, rng, windings):
        F = random_af(rng, 10, windings)
        dim = 24
        interior = dim - 8
        for op_name, op_fn in (("p", op_p), ("pbar", op_pbar)):
            got = to_matrix(op_fn(F), dim)
            ref = commutator_oracle(F, op_name, dim)
            scale = max(1.0, float(np.max(np.abs(ref))))
            assert np.max(np.abs((got - ref)[:interior, :interior])) <= 1e-13 * scale

    def test_h_grading_exact(self, rng):
        F = random_af(rng, 7, [-5, -1, 0, 2, 6])
        out = op_h(F)
        for w, c in F.terms.items():
            assert np.array_equal(out.coeff(w)[: len(c)], -w * c)

    def test_h_on_raising_side_positive(self):
        # z*^k f picks up eigenvalue +k
        F = algebra_function({-3: np.ones(4)}, 3)
        out = op_h(F)
        assert np.array_equal(out.coeff(-3)[:4], 3.0 * np.ones(4))

    def test_lie_brackets_exact_on_integer_monomials(self, rng):
        # [h, p] = p and [h, pbar] = -pbar with integer coefficients: exact
        for w in range(-6, 7):
            F = random_af(rng, 30, [w], integer=True)
            hp = op_h(op_p(F)) + op_p(op_h(F)).scaled(-1.0)
            diff_p = hp + op_p(F).scaled(-1.0)
            hpb = op_h(op_pbar(F)) + op_pbar(op_h(F)).scaled(-1.0)
            diff_pb = hpb + op_pbar(F)
            for d in (diff_p, diff_pb):
                assert all(np.count_nonzero(c) == 0 for c in d.terms.values())

    def test_translations_commute(self, rng):
        # [p, pbar] = 0 exactly on coefficients
        F = random_af(rng, 12, [-3, 0, 2], integer=True)
        lhs = op_p(op_pbar(F))
        rhs = op_pbar(op_p(F))
        diff = lhs + rhs.scaled(-1.0)
        assert all(np.count_nonzero(c) == 0 for c in diff.terms.values())


class TestAdjoints:
    def test_p_adjoint_pairing(self, rng):
        for _ in range(5):
            F = random_af(rng, 20, [-3, 0, 2])
            G = random_af(rng, 20, [-4, -1, 1, 3])
            lhs = inner_product(op_p(F), G)
            rhs = inner_product(F, adjoint_p(G))
            scale = max(abs(lhs), abs(rhs), hs_norm(F) * hs_norm(G))
            assert abs(lhs - rhs) <= 1e-10 * scale

    def test_p_star_kills_constants(self):
        F = algebra_function({0: np.ones(5)}, 4)
        out = adjoint_p(F)
        assert np.max(np.abs(out.coeff(1)[:3])) == 0.0

    def test_h_self_adjoint(self, rng):
        F = random_af(rng, 15, [-2, 1])
        G = random_af(rng, 15, [-2, 1])
        lhs = inner_product(op_h(F), G)
        rhs = inner_product(F, op_h(G))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_adjoint_residual(self, rng, monkeypatch):
        F, G = random_af(rng, 20, [-3, 0, 2]), random_af(rng, 20, [-4, -1, 1])
        assert adjoint_residual(F, G) <= 1e-12
        # p* = +pbar is the wrong real structure
        monkeypatch.setattr(repk, "adjoint_p", op_pbar)
        assert adjoint_residual(F, G) > 0.1

    def test_adjoint_residual_refuses_products_below_the_normal_range(self):
        # coefficients 1e-160 make every product subnormal, about 4e-319 and 2e-318; over a 1e-300 floor their
        # rounding once read as a defect of 5e-24
        F = algebra_function({0: np.full(21, 1e-160 + 0j), 1: np.full(21, 1e-160 + 0j)}, 20)
        with pytest.raises(ArithmeticError, match=r"\|\(F, hG\)\| is 2\.309974e-318, below normal floats"):
            adjoint_residual(F, F)


class TestBracketResidual:
    def test_exact_on_integer_coefficients(self, rng):
        for _ in range(4):
            F = random_af(rng, 20, sorted(rng.choice(np.arange(-6, 7), size=3, replace=False)), integer=True)
            assert bracket_residual(F) == 0.0

    def test_a_wrong_grading_fails(self, rng, monkeypatch):
        # h scaling winding w by +w rather than -w breaks [h, p] = p
        F = random_af(rng, 20, [-2, 1, 3], integer=True)
        monkeypatch.setattr(repk, "op_h", lambda F: algebra_function({w: w * c for w, c in F.terms.items()}, F.zmax))
        assert bracket_residual(F) >= 1.0


class TestBasisFunctions:
    def test_ground_value(self):
        for lam in (0.5, 2.0, 6.0):
            b = basis_d(IrrepLabel(lam, 0), 5)
            assert b.radial[0] == pytest.approx(math.exp(-lam * lam / 8), rel=1e-14)

    def test_kummer_route_values(self):
        lam, k = 2.0, 3
        b = basis_d(IrrepLabel(lam, k), 12)
        pref = (1j * lam) ** k / (2**k * math.factorial(k)) * math.exp(-lam * lam / 8)
        for zeta in (0, 4, 11):
            ref = pref * kummer_phi(zeta, 1 + k, lam * lam / 4)
            assert b.radial[zeta] == pytest.approx(ref, rel=1e-13)

    def test_laguerre_route_matches(self):
        # f_k(zeta) = (i lam)^k zeta!/(2^k (k+zeta)!) e^{-lam^2/8} L^k_zeta(lam^2/4)
        for lam, k in [(1.0, 0), (2.0, 4), (5.0, 9)]:
            b = basis_d(IrrepLabel(lam, k), 40)
            for zeta in (0, 3, 17, 40):
                lag = (
                    (1j * lam) ** k
                    * math.exp(log_factorial(zeta) - log_factorial(k + zeta) - lam * lam / 8)
                    / 2**k
                    * float(eval_genlaguerre(zeta, k, lam * lam / 4))
                )
                assert b.radial[zeta] == pytest.approx(lag, rel=1e-11)

    def test_negative_k_mirror(self):
        bp = basis_d(IrrepLabel(1.7, 4), 9)
        bm = basis_d(IrrepLabel(1.7, -4), 9)
        assert np.array_equal(bp.radial, bm.radial)
        assert list(bp.coefficients.terms) == [-4]
        assert list(bm.coefficients.terms) == [4]

    @pytest.mark.parametrize("lam", [0.5, 2.0, 8.0])
    @pytest.mark.parametrize("k", [0, 3, 20])
    def test_recurrence_residual(self, lam, k):
        # D_k's radial recurrence is Kummer's at b = 1 + k, x = lam^2/4, over zeta <= 200
        assert kummer_recurrence_residual(1 + k, lam * lam / 4.0, 200).residual <= 1e-10

    def test_lost_radial_part_is_refused(self):
        # e^{-lam^2/8} is 0.0 above lam ~ 77.2; just below it the Kummer values overflow first
        with pytest.raises(ValueError, match=r"lam=80, k=3: the radial part is lost, e\^\(-lam\^2/8\) underflows"):
            basis_d(IrrepLabel(80, 3), 10)
        with pytest.raises(ValueError, match="lam=76.0, k=0: the radial part is lost, not finite up to zeta = 1000"):
            basis_d(IrrepLabel(76.0, 0), 1000)
        with pytest.raises(ValueError, match=r"lam=1e\+200, k=3: \(lam/2\)\^3 overflows"):
            basis_d(IrrepLabel(1e200, 3), 2)
        assert np.all(np.isfinite(basis_d(IrrepLabel(76.0, 0), 200).radial))
        # (lam/2)^|k|/|k|! underflows at tiny lam: D_k would vanish identically
        for lam, k in ((1e-300, 5), (1e-300, -2), (1e-30, 20)):
            lost = rf"k={k}: the radial part is lost, \(lam/2\)\^{abs(k)}/{abs(k)}! underflows to 0"
            with pytest.raises(ValueError, match=lost):
                basis_d(IrrepLabel(lam, k), 10)
        assert basis_d(IrrepLabel(1e-300, 1), 10).radial[0] != 0
        # 200! is beyond the float range, but (1/2)^200/200! is what falls below it
        with pytest.raises(ValueError, match=r"k=200: the radial part is lost, \(lam/2\)\^200/200! underflows"):
            basis_d(IrrepLabel(1.0, 200), 10)

    @pytest.mark.parametrize("k", [200, -171])
    def test_winding_past_170_matches_mpmath(self, k):
        # |k|! is beyond the float range while (lam/2)^|k|/|k|! e^{-lam^2/8} is about 1.2e-275 (k = 200)
        lam, a = 60.0, abs(k)
        radial = basis_d(IrrepLabel(lam, k), 100).radial
        with mpmath.workdps(40):
            pref = (mpmath.mpf(lam) / 2) ** a / mpmath.factorial(a) * mpmath.exp(-lam * lam / 8)
            want = [pref * mpmath.hyp1f1(-z, 1 + a, lam * lam / 4) for z in range(101)]
        got = (radial.imag if a % 2 else radial.real) * (-1) ** (a // 2)  # radial = i^a times the real value
        for z, (g, w) in enumerate(zip(got.tolist(), want)):
            assert abs(g - float(w)) <= 1e-13 * abs(float(w)), z

    @pytest.mark.parametrize("lam", [2.0, 2.3])
    @pytest.mark.parametrize("k", [0, 3, -3, 6, 160, -161])
    def test_phase_is_an_exact_power_of_i(self, lam, k):
        # i^|k| from a table: the radial values are purely real for even |k| and purely imaginary
        # for odd |k|, exactly; the complex power (i lam/2)^160 leaves an imaginary part of 1e-14
        radial = basis_d(IrrepLabel(lam, k), 20).radial
        zero, kept = (radial.real, radial.imag) if k % 2 else (radial.imag, radial.real)
        assert np.all(zero == 0) and np.any(kept != 0)

    @pytest.mark.parametrize("lam,k", [(2.0, 0), (1.7, 4), (1.7, -4), (3.0, 11)])
    def test_diagonal_is_the_fock_matrix_diagonal(self, lam, k):
        # D_k's Fock matrix has one nonzero diagonal, offset -k, and .diagonal holds its leading entries bit for bit
        zmax = 30
        basis = basis_d(IrrepLabel(lam, k), zmax)
        diag = np.diagonal(to_matrix(basis.coefficients, zmax + abs(k) + 2), -k)
        assert diag[: zmax + 1].tobytes() == basis.diagonal.tobytes()
        assert not np.any(diag[zmax + 1 :])

    def test_frozen_recurrence_point(self):
        # (k+1+zeta) f(zeta+1) + (lam^2/4 - 2 zeta - k - 1) f(zeta) + zeta f(zeta-1)
        lam, k, zeta = 2.0, 3, 10
        f = basis_d(IrrepLabel(lam, k), 14).radial
        resid = (k + 1 + zeta) * f[zeta + 1] + (lam**2 / 4 - 2 * zeta - k - 1) * f[zeta] + zeta * f[zeta - 1]
        scale = max(abs(f[zeta - 1]), abs(f[zeta]), abs(f[zeta + 1])) * (k + 1 + 2 * zeta)
        assert abs(resid) <= 1e-11 * scale



def _raised(entry):
    if isinstance(entry, Exception):
        raise entry
    return entry


def _entry(build):
    # an array's bytes, or the message of the ValueError refusing it
    try:
        return build().tobytes()
    except ValueError as exc:
        return str(exc)


class TestBasisDiagonals:
    """Every entry of a D_n table is basis_d's diagonal, float for float, or basis_d's refusal, word for word."""

    @pytest.mark.parametrize(
        "windings,dim",
        [
            ({1.0: {-5, 0, 3, 5}, 2.0: {-64, -1, 0, 2}}, 96),
            # (lam/2)^n/n! underflows from small n on at 1e-300; 1e20 loses e^(-lam^2/8), and (lam/2)^n overflows
            ({1e-300: {-3, 0, 1, 5}, 1e20: {0, 7}, 1e200: {-3, 2}}, 32),
            # zmax = dim - |n| - 2 below 1 for |n| >= 6
            ({3.0: {-7, -6, -5, 0, 6, 9}}, 8),
        ],
    )
    def test_each_entry_is_basis_ds(self, windings, dim):
        table = basis_diagonals(windings, dim)
        assert set(table) == {(lam, n) for lam, ns in windings.items() for n in ns}
        for (lam, n), entry in table.items():
            want = _entry(lambda: basis_d(IrrepLabel(lam, n), dim - abs(n) - 2).diagonal)
            assert _entry(lambda: _raised(entry)) == want, (lam, n)

    def test_a_lane_is_tested_only_to_its_own_zmax(self):
        # at lam = 77, D_0's lane overflows from zeta = 311 and D_4's from 341: at dim 346 D_4 runs to the top degree
        # 344 for D_0's sake, past its own zmax 340, and its prefix is finite, as basis_d finds
        table = basis_diagonals({77.0: {0, 4, -4}}, 346)
        assert str(table[77.0, 0]) == "basis_d at lam=77.0, k=0: the radial part is lost, not finite up to zeta = 344"
        for n in (4, -4):
            assert table[77.0, n].tobytes() == basis_d(IrrepLabel(77.0, n), 340).diagonal.tobytes()


class TestEigenEquations:
    @pytest.mark.parametrize("lam", [1.0, 4.0, 8.0])
    @pytest.mark.parametrize("k", [-20, -5, 0, 5, 20])
    def test_casimir_and_grading(self, lam, k):
        c1, c2 = eigen_residuals(IrrepLabel(lam, k), 200)
        assert c1 <= 1e-10
        assert c2 == 0.0

    def test_example_point(self):
        c1, c2 = eigen_residuals(IrrepLabel(1.0, 0), 100)
        assert c1 <= 1e-10 and c2 == 0.0

    def test_nan_ratio_is_the_residual(self, monkeypatch):
        # a D_k that vanished (basis_d refuses one) makes every ratio 0/0, and np.max keeps the NaN
        label = IrrepLabel(1.0, 5)
        vanished = repk.BasisFunction(label, algebra_function({-5: np.zeros(21, dtype=complex)}, 20))
        monkeypatch.setattr(repk, "basis_d", lambda label, zmax: vanished)
        with np.errstate(invalid="ignore"):
            c1, _ = eigen_residuals(label, 20)
        assert math.isnan(c1)

    def test_deep_support_contract_corner(self):
        for lam, k in [(8.0, 20), (8.0, -20), (0.25, 0)]:
            c1, c2 = eigen_residuals(IrrepLabel(lam, k), 400)
            assert c1 <= 1e-10 and c2 == 0.0

    def test_casimir_equals_four_times_recurrence(self):
        # p p* D - lam^2 D reduces algebraically to -4x the radial recurrence
        lam, k, zmax = 2.0, 3, 60
        label = IrrepLabel(lam, k)
        D = basis_d(label, zmax)
        f = D.radial
        casimir = op_p(op_pbar(D.coefficients).scaled(-1.0))
        eig = casimir.coeff(-k)[: zmax - 1] - lam * lam * f[: zmax - 1]
        zeta = np.arange(zmax - 1, dtype=float)
        rec = (
            (k + 1 + zeta) * f[1:zmax]
            + (lam * lam / 4 - 2 * zeta - k - 1) * f[: zmax - 1]
            + zeta * np.concatenate(([0.0], f[: zmax - 2]))
        )
        scale = np.abs(lam * lam * f[: zmax - 1]) + 4 * (k + 1 + 2 * zeta + lam * lam / 4) * np.max(np.abs(f))
        assert np.max(np.abs(eig + 4.0 * rec) / scale) <= 1e-13


def act_T(g, F, dim):
    # the regular action T(g)F = U(g) F U(g)*, as a truncated Fock matrix
    U = u_matrix(g, dim)
    return U @ to_matrix(F, dim) @ U.conj().T


class TestRegularAction:
    def test_identity_returns_representation(self, rng):
        F = random_af(rng, 8, [-2, 0, 1])
        assert np.max(np.abs(act_T(identity(), F, 20) - to_matrix(F, 20))) <= 1e-14

    def test_acts_on_generator(self):
        # T(g) z = e^{i phi} z + r e^{i psi} on the safe block
        g = GroupElement(1.0, 0.7, 0.3)
        dim = 64
        F = algebra_function({1: np.ones(dim - 3)}, dim - 4)
        out = act_T(g, F, dim)
        target = np.exp(1j * g.phi) * annihilator(dim) + g.w * np.eye(dim)
        b = safe_block(dim, g.r)
        assert np.max(np.abs((out - target)[:b, :b])) <= 1e-8

    @pytest.mark.parametrize("r", [0.5, 1.0])
    def test_preserves_hs_norm(self, rng, r):
        g = GroupElement(r, -0.4, 0.9)
        dim = 64
        F = random_af(rng, 16, [-2, 0, 3])
        M = act_T(g, F, dim)
        norm_before = hs_norm(F)
        norm_after = np.linalg.norm(M)
        assert abs(norm_after - norm_before) <= 1e-8 * norm_before

    def test_infinitesimal_generators_first_order(self):
        # (T(g_eps) F - F)/eps converges first-order to the stencil operators
        # along the three one-parameter subgroups
        dim = 48
        F = algebra_function({-2: np.ones(9), 0: np.linspace(1, 2, 9), 1: np.ones(9)}, 8)
        M0 = to_matrix(F, dim)
        p_f = to_matrix(op_p(F), dim)
        pbar_f = to_matrix(op_pbar(F), dim)
        h_f = to_matrix(op_h(F), dim)
        targets = {
            1: 0.5 * (p_f + pbar_f),                  # real translation: p1 = (p + pbar)/2
            2: 0.5j * (p_f - pbar_f),                 # imaginary translation: p2 = i(p - pbar)/2
            3: -1j * h_f,                             # rotation: p3 = -i h
        }
        block = 20
        for which, target in targets.items():
            errs = []
            eps = 1e-2
            while eps >= 1e-4:
                if which == 1:
                    g = GroupElement(eps, 0.0, 0.0)
                elif which == 2:
                    g = GroupElement(eps, math.pi / 2, 0.0)
                else:
                    g = GroupElement(0.0, 0.0, eps)
                diff = (act_T(g, F, dim) - M0) / eps
                errs.append(np.max(np.abs((diff - target)[:block, :block])))
                eps /= 2
            for e1, e2 in zip(errs, errs[1:]):
                assert e2 < 0.75 * e1, (which, errs)
