import cmath
import functools
import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy.linalg import expm

from e2fock import e2group
from e2fock.e2group import (
    GroupElement,
    IrrepLabel,
    act_on_generator,
    compose,
    identity,
    inverse,
    irrep_row,
    irrep_rows,
    u_factors,
    u_matrix,
)
from e2fock.fock import annihilator, safe_block
from e2fock.specfun import bessel_j, bessel_j_seq, log_factorial

from conftest import displaced_basis, displaced_vacuum, group_matrix3, hyp2f0_per_entry

GENERIC = [
    GroupElement(0.9, 0.3, 1.1),
    GroupElement(1.4, -0.8, 0.5),
    GroupElement(0.2, 2.9, -2.7),
    GroupElement(2.0, -3.0, 3.1),
]


def element_from_matrix(M):
    return GroupElement(abs(M[0, 2]), cmath.phase(M[0, 2]) if abs(M[0, 2]) > 1e-15 else 0.0, cmath.phase(M[0, 0]))


class TestGroupElement:
    def test_normalization(self):
        g = GroupElement(1.0, 7.0, -9.0)
        assert -math.pi < g.psi <= math.pi
        assert -math.pi < g.phi <= math.pi

    def test_psi_canonical_at_origin(self):
        g = GroupElement(0.0, 2.0, 0.5)
        assert g.psi == 0.0 and g.r == 0.0

    def test_rejects_negative_radius(self):
        with pytest.raises(ValueError):
            GroupElement(-0.1, 0, 0)

    def test_irrep_label_positive_weight(self):
        with pytest.raises(ValueError):
            IrrepLabel(0.0, 1)


class TestComposition:
    def test_identity_neutral(self):
        for g in GENERIC:
            h = compose(g, identity())
            assert (h.r, h.psi, h.phi) == pytest.approx((g.r, g.psi, g.phi), abs=1e-15)

    def test_inverse_roundtrip(self):
        for g in GENERIC:
            h = compose(g, inverse(g))
            assert h.r <= 1e-14
            assert abs(h.phi) <= 1e-14

    def test_pure_translation_doubling(self):
        h = compose(GroupElement(1, 0, 0), GroupElement(1, 0, 0))
        assert (h.r, h.psi, h.phi) == pytest.approx((2.0, 0.0, 0.0), abs=1e-15)

    def test_translation_inverse_flips_phase(self):
        g = GroupElement(1.3, 0.4, 0.0)
        gi = inverse(g)
        assert (gi.r, gi.psi, gi.phi) == pytest.approx((1.3, 0.4 + math.pi - 2 * math.pi, 0.0), abs=1e-15)

    def test_matches_matrix_product(self):
        for g1 in GENERIC:
            for g2 in GENERIC:
                h = compose(g1, g2)
                ref = element_from_matrix(group_matrix3(g1) @ group_matrix3(g2))
                assert np.max(np.abs(group_matrix3(h) - group_matrix3(ref))) <= 1e-14

    def test_associative(self):
        g1, g2, g3 = GENERIC[:3]
        a = compose(compose(g1, g2), g3)
        b = compose(g1, compose(g2, g3))
        assert np.max(np.abs(group_matrix3(a) - group_matrix3(b))) <= 1e-14

    def test_inverse_matches_matrix_inverse(self):
        g = GroupElement(1, 0, math.pi / 2)
        ref = element_from_matrix(np.linalg.inv(group_matrix3(g)))
        gi = inverse(g)
        assert np.max(np.abs(group_matrix3(gi) - group_matrix3(ref))) <= 1e-14

    def test_inverse_of_identity(self):
        assert inverse(identity()) == identity()


class TestGeneratorAction:
    def test_identity(self):
        assert act_on_generator(identity()) == (1 + 0j, 0j)

    def test_pure_translation(self):
        alpha, beta = act_on_generator(GroupElement(1.5, 0.8, 0))
        assert alpha == pytest.approx(1.0)
        assert beta == pytest.approx(1.5 * cmath.exp(0.8j))

    def test_rotation_unit_modulus(self):
        for g in GENERIC:
            alpha, _ = act_on_generator(g)
            assert abs(alpha) == pytest.approx(1.0, rel=1e-15)


class TestMatrixElement:
    def test_vacuum_element(self):
        for g in GENERIC:
            assert u_matrix(g, 2)[0, 0] == pytest.approx(math.exp(-g.r**2 / 2), rel=1e-13)

    def test_rotation_only_diagonal(self):
        g = GroupElement(0.0, 0.0, 1.2)
        U = u_matrix(g, 4)
        assert U[3, 3] == pytest.approx(cmath.exp(-3.6j), rel=1e-15)
        assert U[2, 3] == 0

    def test_node_at_unit_radius(self):
        assert abs(u_matrix(GroupElement(1, 0, 0), 2)[1, 1]) <= 1e-15

    @pytest.mark.parametrize("r", [0.25, 0.5, 1.0, 2.0, 4.0])
    def test_hyp2f0_route(self, r):
        # direct closed form through the terminating 2F0 sum; residual scale
        # includes the largest 2F0 term to stay meaningful at polynomial nodes
        g = GroupElement(r, 0.7, 0.3)
        U = u_matrix(g, 26)
        for m in (0, 1, 2, 7, 13, 25):
            for n in (0, 3, 11, 25):
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
                # largest term of the 2F0 sum, for the residual scale
                jmax = min(m, n)
                terms = [
                    math.exp(
                        log_factorial(m)
                        - log_factorial(m - j)
                        + log_factorial(n)
                        - log_factorial(n - j)
                        - log_factorial(j)
                        - 2 * j * math.log(r)
                    )
                    for j in range(jmax + 1)
                ]
                scale = max(abs(got), abs(direct), pref * max(terms))
                assert abs(got - direct) <= 1e-10 * scale


class TestUMatrix:
    def test_identity_element(self):
        assert np.array_equal(u_matrix(identity(), 6), np.eye(6, dtype=complex))

    def test_column_zero_is_displaced_vacuum(self):
        for g in GENERIC:
            U = u_matrix(g, 64)
            assert np.max(np.abs(U[:, 0] - displaced_vacuum(g, 64))) <= 1e-10

    def test_columns_match_displaced_basis(self):
        g = GroupElement(1.0, 0.7, 0.3)
        dim = 64
        U = u_matrix(g, dim)
        for n in (1, 5, 12, 20):
            col = displaced_basis(g, dim, n)
            assert np.max(np.abs(U[:, n] - col)) <= 1e-9

    @pytest.mark.parametrize("r", [0.5, 1.0, 1.5, 2.0])
    def test_unitarity_on_safe_block(self, r):
        g = GroupElement(r, 0.7, 0.3)
        dim = 64
        U = u_matrix(g, dim)
        b = safe_block(dim, r)
        defect = np.linalg.norm((U.conj().T @ U - np.eye(dim))[:b, :b])
        assert defect <= 1e-8

    def test_unitarity_defect_monotone_in_dim(self):
        # strictly decreasing until the float rounding floor, never above it after
        floor = 1e-13
        r = 1.5
        block = safe_block(32, r)
        defects = []
        for dim in (32, 64, 128):
            U = u_matrix(GroupElement(r, 0.7, 0.3), dim)
            defects.append(np.linalg.norm((U.conj().T @ U - np.eye(dim))[:block, :block]))
        for d1, d2 in zip(defects, defects[1:]):
            assert d2 <= max(d1, floor), defects
        assert defects[1] < defects[0]

    @pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
    def test_intertwining(self, r):
        g = GroupElement(r, 0.7, 0.3)
        dim = 64
        U = u_matrix(g, dim)
        a = annihilator(dim)
        alpha, beta = act_on_generator(g)
        b = safe_block(dim, r)
        resid = np.max(np.abs((U @ a @ U.conj().T - alpha * a - beta * np.eye(dim))[:b, :b]))
        assert resid <= 1e-8

    @pytest.mark.parametrize("r", [0.5, 1.0, 1.5])
    def test_matrix_exponential_oracle(self, r):
        # exp(beta z* - conj(beta) z) exp(-i phi zeta) with beta forced by the
        # generator action; global phase fixed at the (0,0) entry
        g = GroupElement(r, 0.7, 0.3)
        dim = 64
        a = annihilator(dim)
        beta = -r * cmath.exp(1j * (g.psi - g.phi))
        oracle = expm(beta * a.conj().T - np.conj(beta) * a) @ expm(-1j * g.phi * (a.conj().T @ a))
        U = u_matrix(g, dim)
        phase = oracle[0, 0] / U[0, 0]
        assert abs(abs(phase) - 1.0) <= 1e-10
        b = safe_block(dim, r)
        assert np.max(np.abs((phase * U - oracle)[:b, :b])) <= 1e-8

    def test_matrix_exponential_oracle_random_elements(self, rng):
        dim = 48
        a = annihilator(dim)
        for _ in range(5):
            r = float(rng.uniform(0.1, 1.5))
            g = GroupElement(r, float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3)))
            beta = -r * cmath.exp(1j * (g.psi - g.phi))
            oracle = expm(beta * a.conj().T - np.conj(beta) * a) @ expm(-1j * g.phi * (a.conj().T @ a))
            U = u_matrix(g, dim)
            phase = oracle[0, 0] / U[0, 0]
            b = safe_block(dim, r)
            assert np.max(np.abs((phase * U - oracle)[:b, :b])) <= 1e-8

    def test_entries_exact_near_truncation_edge(self):
        # entries are the infinite-dimensional matrix elements: no truncation
        # error even in the last rows/columns (60-digit reference)
        import mpmath as mp

        g = GroupElement(2.0, 0.7, 0.3)
        U = u_matrix(g, 96)
        with mp.workdps(60):
            for m, n in [(90, 85), (95, 95), (60, 93), (3, 92), (95, 0)]:
                r = mp.mpf(g.r)
                s = mp.mpf(0)
                for j in range(min(m, n) + 1):
                    s += mp.rf(-m, j) * mp.rf(-n, j) / mp.factorial(j) * (-1 / r**2) ** j
                ref = complex(
                    (-1) ** m
                    * mp.e ** (1j * ((m - n) * g.psi - m * g.phi))
                    * r ** (n + m)
                    * mp.e ** (-r * r / 2)
                    / mp.sqrt(mp.factorial(n) * mp.factorial(m))
                    * s
                )
                assert abs(U[m, n] - ref) <= 1e-13 * max(abs(ref), 1e-30)

    def test_largest_supported_truncation(self):
        U = u_matrix(GroupElement(2.0, 0.7, 0.3), 512)
        assert np.all(np.isfinite(U))
        assert np.max(np.abs(U)) <= 1.0 + 1e-12
        b = safe_block(512, 2.0)
        assert np.linalg.norm((U.conj().T @ U - np.eye(512))[:b, :b]) <= 1e-8

    def test_product_rule_with_cocycle(self):
        # U(g1) U(g2) = e^{i Im(w1 e^{i phi2} conj(w2))} U(g2 . g1): the
        # conjugation action composes against the matrix order and the
        # translation part contributes the canonical commutator phase
        dim = 64
        for g1 in GENERIC[:2]:
            for g2 in GENERIC[2:]:
                theta = (g1.w * cmath.exp(1j * g2.phi) * np.conj(g2.w)).imag
                lhs = u_matrix(g1, dim) @ u_matrix(g2, dim)
                rhs = cmath.exp(1j * theta) * u_matrix(compose(g2, g1), dim)
                b = safe_block(dim, max(g1.r + g2.r, 1.0))
                assert np.max(np.abs((lhs - rhs)[:b, :b])) <= 1e-8


@functools.cache
def _scaled_matrix_moduli(r: float, d: int, count: int) -> np.ndarray:
    """|<m|U|m+d>| / e^{-r^2/2} for m = 0..count-1 at diagonal offset d >= 0, read-only.

    S_m = r^d sqrt(m!/(m+d)!) L^{(d)}_m(r^2), run as a self-scaled recurrence
    so intermediates stay O(1) (the matrix elements are bounded by 1).  The
    moduli depend on (r, d, count) alone, not on the phases, so each is
    computed once per test session: the dim-512 tests build U(g) for 8
    distinct r under several (psi, phi).
    """
    x = r * r
    # Python floats: each step rounds as numpy's scalars would, without their per-operation overhead
    s = [math.exp(d * math.log(r) - 0.5 * log_factorial(d)) if d > 0 else 1.0]
    if count > 1:
        s.append((1.0 + d - x) * s[0] / math.sqrt(1.0 + d))
    prev, cur, root = s[0], s[-1], math.sqrt(1 + d)
    for m in range(1, count - 1):
        # sqrt((m + 1)(m + 1 + d)) divides this step and multiplies the next
        next_root = math.sqrt((m + 1) * (m + 1 + d))
        prev, cur, root = cur, ((2 * m + 1 + d - x) * cur - root * prev) / next_root, next_root
        s.append(cur)
    s = np.array(s)
    s.flags.writeable = False
    return s


def u_matrix_by_diagonals(g, dim):
    # reference assembly: one scalar recurrence per diagonal, entry (m, n) the phase e^{i((m - n) psi - m phi)}
    # from one np.exp over the index grids, (-1)^d on the phase below, times the moduli of diagonal d = |n - m|
    U = np.zeros((dim, dim), dtype=complex)
    ms = np.arange(dim)
    if g.r < 1e-12:
        U[ms, ms] = np.exp(-1j * ms * g.phi)
        return U
    damp = math.exp(-0.5 * g.r * g.r)
    moduli = np.zeros(dim * dim)  # entry (m, m + d) at flat index m (dim + 1) + d
    for d in range(dim):
        moduli[d :: dim + 1][: dim - d] = damp * _scaled_matrix_moduli(g.r, d, dim - d)
    moduli = moduli.reshape(dim, dim)
    m, n = np.indices((dim, dim))
    below = m > n
    phases = np.where(below & ((m - n) % 2 == 1), -1.0, 1.0) * np.exp(1j * ((m - n) * g.psi - m * g.phi))
    return phases * np.where(below, moduli.T, moduli)


class TestUMatrixBitIdentity:
    """u_matrix, the real core times its phase vectors, against the per-diagonal assembly.

    The phase vectors round the angles m (psi - phi) and n psi where the
    assembly rounds (m - n) psi - m phi, so entries agree to a few ulps of
    angles up to dim (|psi| + |phi|), not bit for bit.
    """

    @pytest.mark.parametrize("dim", [2, 3, 8, 17, 64, 96, 512])
    def test_matches_per_diagonal_assembly(self, dim):
        # at r = 40 the damping underflows, so every entry is a signed zero
        angles = [(0.0, 0.0), (0.7, 0.3), (-2.9, 3.1), (4.0, -7.5), (-3.5, 9.0), (-1.0, 0.0)]
        rs = [0.0, 1e-13, 1e-6, 0.3, 0.5, 0.9, 1.7, 2.0, 3.9, 6.0] + ([40.0] if dim <= 17 else [])
        for i, r in enumerate(rs):
            g = GroupElement(r, *angles[(i + dim) % len(angles)])
            bound = np.finfo(float).eps * dim * (abs(g.psi) + abs(g.phi) + 1)
            assert np.max(np.abs(u_matrix(g, dim) - u_matrix_by_diagonals(g, dim))) <= bound, (g, dim)


class TestUFactors:
    """The phases and real core from which every product with U(g) is built."""

    # the r set of test_cli's TestBlockProducts
    RS = [1e-13, 0.3, 6.0, 3.9, 0.9, 1.7]

    @pytest.mark.parametrize("dim", [8, 64, 512])
    def test_early_stopped_core_is_the_full_cores_leading_rows(self, dim):
        parity = 1 - 2 * (np.arange(dim) % 2)
        for r in self.RS:
            g = GroupElement(r, 0.7, 0.3)
            full = u_factors(g, dim, dim)[2]
            for rows in sorted({2, 5, max(safe_block(dim, r), min(dim, 4))}):
                assert u_factors(g, dim, rows)[2].tobytes() == full[:rows].tobytes(), (dim, r, rows)
                # the full core's leading columns are those rows, with (-1)^(m+n) below the diagonal
                assert np.array_equal(full[:, :rows], np.outer(parity, parity[:rows]) * full[:rows].T)

    @staticmethod
    def _per_diagonal_core(r, dim):
        # the full core from one scalar recurrence per diagonal, (-1)^d below the diagonal, and no floor
        ref = np.empty((dim, dim))
        for d in range(dim):
            vals = math.exp(-0.5 * r * r) * _scaled_matrix_moduli(r, d, dim - d)
            m = np.arange(dim - d)
            ref[m, m + d], ref[m + d, m] = vals, (-1) ** d * vals
        return ref

    @pytest.mark.parametrize("dim", [17, 512])
    def test_core_zeroes_entries_below_the_floor(self, dim):
        # bit for bit the per-diagonal recurrence, (-1)^d below the diagonal, except that entries below
        # 2^-511 read a zero of their own sign; a product of two kept entries is then a normal float
        floor, negative_flushed = 2.0**-511, False
        for r in (0.3, 2.0, 6.0) + ((40.0,) if dim <= 17 else ()):
            M = u_factors(GroupElement(r, 0.7, 0.3), dim, dim)[2]
            ref = self._per_diagonal_core(r, dim)
            small = np.abs(ref) < floor
            negative_flushed |= np.any(small & np.signbit(ref))
            assert M.tobytes() == np.where(small, np.copysign(0.0, ref), ref).tobytes(), r
            assert np.all(M[M != 0.0] ** 2 >= np.finfo(float).tiny), r
        assert negative_flushed

    @pytest.mark.parametrize("dim", [65, 129, 130, 512])
    def test_cores_of_every_height_are_the_per_diagonal_recurrence(self, dim):
        # heights on both sides of the 64-row root tables and lower-triangle blocks: each core is the leading rows
        # of the per-diagonal recurrence, bit for bit, under the same floor and sign rule, and warns of nothing
        for r in (0.3, 2.0, 6.0):
            ref = self._per_diagonal_core(r, dim)
            ref = np.where(np.abs(ref) < 2.0**-511, np.copysign(0.0, ref), ref)
            for rows in sorted({1, 2, 63, 64, 65, 127, 128, 129, dim} & set(range(1, dim + 1))):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    M = u_factors(GroupElement(r, 0.7, 0.3), dim, rows)[2]
                assert M.shape == (rows, dim) and M.tobytes() == ref[:rows].tobytes(), (dim, r, rows)

    @pytest.mark.parametrize("dim", [8, 64, 512])
    def test_factors_multiply_to_u_matrix(self, dim):
        # the phases round their angles m (psi - phi) and n psi where the per-diagonal
        # assembly rounds (m - n) psi - m phi: a few ulps of angles up to dim (|psi| + |phi|)
        for r in self.RS:
            for psi, phi in [(0.7, 0.3), (-2.9, 3.1), (4.0, -7.5)]:
                g = GroupElement(r, psi, phi)
                row, col, M = u_factors(g, dim, dim)
                product = row[:, None] * M * col
                bound = np.finfo(float).eps * dim * (abs(g.psi) + abs(g.phi) + 1)
                assert np.max(np.abs(product - u_matrix_by_diagonals(g, dim))) <= bound, (dim, g)
                assert product.tobytes() == u_matrix(g, dim).tobytes(), (dim, g)

    @pytest.mark.parametrize("dim", [8, 512])
    def test_column_phases_are_geometric(self, dim):
        # conjugated_block reads D_col V D_col* on one diagonal as V times one phase, so col[n] must be c^n with
        # |c| = 1 (e^{-i psi}, or 1 for a rotation), up to the rounding of each angle n psi
        for r in self.RS:
            for psi, phi in [(0.7, 0.3), (-2.9, 3.1), (4.0, -7.5)]:
                g = GroupElement(r, psi, phi)
                col = u_factors(g, dim, 2)[1]
                bound = 4 * np.finfo(float).eps * (dim * abs(g.psi) + 1)
                assert col[0] == 1 and abs(abs(col[1]) - 1) <= bound, (dim, g)
                assert np.max(np.abs(col[1:] * col[:-1].conj() - col[1])) <= bound, (dim, g)

    @pytest.mark.parametrize("dim", [2, 3, 64, 65, 130, 512])
    def test_cores_built_into_caller_buffers_are_the_allocated_cores(self, dim):
        # a core written into a caller's array, its temporaries in a caller's scratch, is the allocated core byte
        # for byte (signed zeros too), whatever the buffers held before, and is a view of the caller's array
        rng = np.random.default_rng(dim)
        out, scratch = np.empty(dim * dim), np.empty(64 * 2 * dim)
        for r in [0.0, 1e-13, 1e-9, 0.3, 2.0, 6.0, 13.0]:
            g = GroupElement(r, *rng.uniform(-4, 4, 2))
            for rows in sorted({1, 2, 64, 65, dim} & set(range(1, dim + 1))):
                out[:], scratch[:] = rng.choice([np.nan, -0.0, 1e300]), rng.choice([np.nan, -np.inf, 7.0])
                row, col, M = u_factors(g, dim, rows, out=out, scratch=scratch)
                want = u_factors(g, dim, rows)
                assert [f.tobytes() for f in (row, col, M)] == [f.tobytes() for f in want], (dim, r, rows)
                assert M.shape == (rows, dim) and np.shares_memory(M, out)

    @pytest.mark.parametrize("dim", [2, 97, 512])
    def test_row_zero_is_the_scalar_formula(self, dim):
        # r^d / sqrt(d!) as exp(d log r - log(d!) / 2) in Python floats, damped and flushed like every row
        for r in [1e-9, 0.3, 1.0, 2.0, 6.0, 13.0]:
            log_r = math.log(r)
            row = [math.exp(d * log_r - 0.5 * log_factorial(d)) if d > 0 else 1.0 for d in range(dim)]
            row = np.array(row) * math.exp(-0.5 * r * r)
            row[np.abs(row) < 2.0**-511] = 0.0
            assert u_factors(GroupElement(r, 0.7, 0.3), dim, 1)[2][0].tobytes() == row.tobytes(), (dim, r)

    def test_overflowing_rows_raise(self):
        # at r = 40, dim 512, rows past about 150 overflow; the leading ones are finite and returned as they are
        g = GroupElement(40.0, 0.7, 0.3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError, match="overflow"):
                u_matrix(g, 512)
            with pytest.raises(FloatingPointError, match="overflow"):
                u_factors(g, 512, 512)
            rows = u_factors(g, 512, 4)[2]
            assert rows.tobytes() == u_factors(g, 512, 100)[2][:4].tobytes()
        assert np.all(np.isfinite(rows))


class TestIrrepElements:
    def test_identity_is_kronecker(self):
        for k in (-3, 0, 2):
            row = irrep_row(IrrepLabel(1.7, k), identity(), 3)
            assert np.max(np.abs(row - np.eye(7)[3])) <= 1e-15

    def test_translation_diagonal_is_j0(self):
        g = GroupElement(1.1, 0.6, 0.0)
        (t00,) = irrep_row(IrrepLabel(2.3), g, 0)
        assert t00 == pytest.approx(bessel_j(0, 2.3 * 1.1), rel=1e-13)

    def test_bounded_by_one(self):
        for g in GENERIC:
            for k in (-5, 0, 4):
                assert np.all(np.abs(irrep_row(IrrepLabel(3.0, k), g, 11)) <= 1.0 + 1e-15)

    def test_row_sum_rule(self):
        # sum_n |t_{kn}|^2 = sum J_{n-k}^2 = 1, truncated at |n-k| <= 60
        for g in GENERIC:
            for k in (-2, 0, 3):
                assert np.sum(np.abs(irrep_row(IrrepLabel(2.0, k), g, 60)) ** 2) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("x", [1e-10, 0.5, 2.0, 6.0])
    def test_row_matches_mpmath(self, x):
        # each element against i^d e^{-i((k+d) phi - d psi)} J_d(lam r), J_d from mpmath in 40 digits
        nmax, psi, phi = 60, 0.7, 0.3
        g = GroupElement(x / 2.0, psi, phi)
        with mp.workdps(40):
            js = [mp.besselj(d, 2 * mp.mpf(g.r)) for d in range(-nmax, nmax + 1)]
            for k in (-3, 0, 4):
                row = irrep_row(IrrepLabel(2.0, k), g, nmax)
                for d, j, t in zip(range(-nmax, nmax + 1), js, row):
                    if abs(j) > mp.mpf("1e-290"):
                        ref = mp.mpc(0, 1) ** d * mp.expj(-((k + d) * mp.mpf(phi) - d * mp.mpf(psi))) * j
                        assert abs(mp.mpc(t) - ref) <= 1e-13 * abs(ref), (k, d)

    def test_rows_that_share_lam_r_share_one_bessel_run(self, monkeypatch):
        # (2, r) and (1, 2r) share lam r, and with it one Bessel run; each row is the floats of its own call
        runs = []

        def counting(nmax, x):
            runs.append(x)
            return bessel_j_seq(nmax, x)

        pairs = [(IrrepLabel(lam, k), GroupElement(r, psi, 0.3)) for lam, r in ((2.0, 0.5), (1.0, 1.0), (2.0, 2.0))
                 for k in (-3, 0, 4) for psi in (0.7, -1.1)]  # fmt: skip
        want = [irrep_row(label, g, 60).tobytes() for label, g in pairs]
        monkeypatch.setattr(e2group, "bessel_j_seq", counting)
        assert [row.tobytes() for row in irrep_rows(pairs, 60)] == want
        assert runs == [1.0, 4.0]

    def test_homomorphism(self):
        # Graf: t_{kn}(g1 g2) = sum_j t_{kj}(g1) t_{jn}(g2), the sum truncated at |j - k| <= 60
        trunc, ns = 60, (-1, 0, 3)
        js = range(-trunc, trunc + 1)
        for g1, g2 in [(GENERIC[0], GENERIC[1]), (GENERIC[2], GENERIC[3])]:
            g12 = compose(g1, g2)
            for k in (-2, 0, 1):
                first, ref = irrep_row(IrrepLabel(1.3, k), g1, trunc), irrep_row(IrrepLabel(1.3, k), g12, 5)
                # row j of g2 to |n - j| <= trunc + 5, so t_{jn}(g2) sits at index n - j + trunc + 5
                second = [irrep_row(IrrepLabel(1.3, k + j), g2, trunc + 5) for j in js]
                for n in ns:
                    acc = sum(t * row[n - k - j + trunc + 5] for j, t, row in zip(js, first, second))
                    assert abs(acc - ref[n - k + 5]) <= 1e-9
