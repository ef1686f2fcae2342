import math

import numpy as np
import pytest

from e2fock.e2group import GroupElement
from e2fock.fock import annihilator, boundary_margin, conjugated_block, safe_block

from conftest import displaced_basis, displaced_vacuum


def number_op(dim):
    return np.diag(np.arange(dim, dtype=complex))


def creator(dim):
    # the raising operator z*, the conjugate transpose of the annihilator
    return annihilator(dim).conj().T


def commutator_defect(dim):
    # Frobenius norm of [z, z*] - I on the leading (dim-1) x (dim-1) block, off the truncation corner
    a, ad = annihilator(dim), creator(dim)
    defect = a @ ad - ad @ a - np.eye(dim)
    return float(np.linalg.norm(defect[: dim - 1, : dim - 1]))


def gz_matrix(g, dim):
    return np.exp(1j * g.phi) * annihilator(dim) + g.w * np.eye(dim)


class TestLadderOperators:
    def test_annihilator_dim2(self):
        assert np.array_equal(annihilator(2), np.array([[0, 1], [0, 0]], dtype=complex))

    def test_annihilator_entry(self):
        assert annihilator(3)[1, 2] == pytest.approx(math.sqrt(2))

    def test_kills_vacuum(self):
        e0 = np.zeros(16)
        e0[0] = 1.0
        assert np.all(annihilator(16) @ e0 == 0)

    def test_creator_dim2(self):
        assert np.array_equal(creator(2), np.array([[0, 0], [1, 0]], dtype=complex))

    def test_creator_on_vacuum(self):
        e0 = np.zeros(5)
        e0[0] = 1.0
        out = creator(5) @ e0
        assert out[1] == 1.0 and np.count_nonzero(out) == 1

    def test_ladder_relations_exact(self):
        dim = 12
        a, ad = annihilator(dim), creator(dim)
        for n in range(dim):
            en = np.zeros(dim)
            en[n] = 1.0
            down = a @ en
            if n > 0:
                assert down[n - 1] == math.sqrt(n)
            up = ad @ en
            if n < dim - 1:
                assert up[n + 1] == math.sqrt(n + 1)

    def test_number_op(self):
        assert np.array_equal(np.diag(number_op(3)), np.array([0, 1, 2], dtype=complex))
        # sqrt(n)^2 re-rounds, so the product matches to 1 ulp, not bitwise
        prod = creator(6) @ annihilator(6)
        assert np.max(np.abs(number_op(6) - prod)) <= 4e-15

    def test_number_spectrum(self):
        assert np.array_equal(np.sort(np.linalg.eigvalsh(number_op(7).real)), np.arange(7.0))

    def test_rejects_small_dim(self):
        with pytest.raises(ValueError):
            annihilator(1)


class TestCommutator:
    def test_restricted_defect_zero_all_dims(self):
        # cancellation off the boundary is structurally exact; what remains is
        # sqrt(n)^2 rounding on the diagonal, bounded by (2n+1) ulp per entry
        for dim in range(2, 257):
            defect = commutator_defect(dim)
            assert defect <= max(1e-14, 4e-16 * dim**1.5), dim
            if dim <= 16:
                assert defect <= 1e-14

    def test_offdiagonal_exactly_zero(self):
        for dim in (2, 8, 64, 256):
            a, ad = annihilator(dim), creator(dim)
            comm = a @ ad - ad @ a
            off = comm - np.diag(np.diag(comm))
            assert np.count_nonzero(off) == 0

    def test_full_matrix_defect_at_corner(self):
        dim = 8
        a, ad = annihilator(dim), creator(dim)
        comm = a @ ad - ad @ a
        assert comm[dim - 1, dim - 1] == pytest.approx(1 - dim, rel=1e-15)
        assert np.max(np.abs(comm[: dim - 1, : dim - 1] - np.eye(dim - 1))) <= 4e-15


class TestDisplacedVacuum:
    def test_r_zero_is_vacuum(self):
        v = displaced_vacuum(GroupElement(0, 0, 0), 8)
        assert v[0] == 1.0 and np.count_nonzero(v) == 1

    @pytest.mark.parametrize("r,psi,phi", [(0.5, 0.0, 0.0), (1.0, 0.7, 0.3), (2.0, -1.2, 2.5)])
    def test_norm_and_annihilation(self, r, psi, phi):
        g = GroupElement(r, psi, phi)
        dim = 64
        v = displaced_vacuum(g, dim)
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-10
        assert np.linalg.norm(gz_matrix(g, dim) @ v) <= 1e-10

    def test_amplitudes_coherent(self):
        # parameter -r e^{i(psi-phi)}; at psi = phi the amplitudes alternate
        g = GroupElement(1.0, 0.4, 0.4)
        v = displaced_vacuum(g, 40)
        for n in range(10):
            expected = math.exp(-0.5) * (-1.0) ** n / math.sqrt(math.factorial(n))
            assert v[n] == pytest.approx(expected, rel=1e-13)

    def test_tail_guard(self):
        with pytest.raises(ValueError):
            displaced_vacuum(GroupElement(3.0, 0, 0), 12)


class TestDisplacedBasis:
    def test_n_zero_is_vacuum(self):
        g = GroupElement(1.2, 0.9, -0.4)
        assert np.array_equal(displaced_basis(g, 48, 0), displaced_vacuum(g, 48))

    def test_identity_group_element(self):
        v = displaced_basis(GroupElement(0, 0, 0), 16, 5)
        assert v[5] == pytest.approx(1.0, rel=1e-14)
        assert np.linalg.norm(v) == pytest.approx(1.0, rel=1e-13)

    @pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
    def test_ladder_relations(self, r):
        g = GroupElement(r, 0.7, 0.3)
        dim = 64
        gz = gz_matrix(g, dim)
        vecs = [displaced_vacuum(g, dim)]
        n = 1
        while n + boundary_margin(n, r) + 8 <= dim:
            vecs.append(displaced_basis(g, dim, n))
            n += 1
        assert len(vecs) >= 10
        for m in range(1, len(vecs)):
            resid = np.linalg.norm(gz @ vecs[m] - math.sqrt(m) * vecs[m - 1])
            assert resid <= 1e-8, (r, m, resid)

    @pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
    def test_gram_orthonormal(self, r):
        g = GroupElement(r, -0.6, 1.1)
        dim = 64
        levels = []
        n = 0
        while n + boundary_margin(n, r) + 8 <= dim:
            levels.append(n)
            n += 1
        basis = np.column_stack([displaced_basis(g, dim, n) for n in levels])
        gram = basis.conj().T @ basis
        assert np.max(np.abs(gram - np.eye(len(levels)))) <= 1e-8

    def test_rejects_boundary_level(self):
        with pytest.raises(ValueError):
            displaced_basis(GroupElement(2.0, 0, 0), 32, 20)


class TestSafeBlock:
    def test_monotone_in_dim(self):
        sizes = [safe_block(d, 1.5) for d in (32, 64, 128, 256)]
        assert sizes == sorted(sizes)
        assert sizes[0] > 0

    def test_decreasing_in_r(self):
        assert safe_block(64, 0.5) > safe_block(64, 1.5) > safe_block(64, 3.0)

    def test_margin_formula(self):
        b = safe_block(64, 2.0)
        assert b + boundary_margin(b - 1, 2.0) <= 64
        assert (b + 1) + boundary_margin(b, 2.0) > 64

    def test_bisection_is_the_linear_scan(self):
        # the largest B with B + margin(B - 1) <= dim, found by stepping down from dim one level at a time
        def scanned(dim, r):
            b = dim
            while b > 0 and b + boundary_margin(b - 1, r) > dim:
                b -= 1
            return b

        rs = [0.0, 1e-12, 0.3, 0.5, 0.9, 1.7, 2.0, 3.9, 6.0, 13.0, 16.0, 20.0, 25.0, 40.0]
        for dim in range(2, 513):
            assert [safe_block(dim, r) for r in rs] == [scanned(dim, r) for r in rs], dim


class TestConjugatedBlock:
    @pytest.mark.parametrize("offset", [-3, 0, 1])
    @pytest.mark.parametrize("n", [1, 5, 8, 24])
    def test_is_the_leading_block_from_the_leading_panel_rows(self, offset, n):
        # against the dense diag(row) M diag(col) V (...)* for unit-modulus row phases, geometric column
        # phases col[j] = e^{-i j psi} as u_factors writes them, a real core and a diagonal V that is zero,
        # real (a float or a complex array), imaginary or complex, full or stopping short of the corner as
        # D_k's does in addition; core rows from n on are NaN, so reading any of them would show
        rng = np.random.default_rng(4)
        dim = 24
        row = np.exp(1j * rng.uniform(-np.pi, np.pi, dim))
        col = np.exp(-1j * np.arange(dim) * rng.uniform(-np.pi, np.pi))
        M = rng.standard_normal((dim, dim))
        U = row[:, None] * M * col
        M[n:] = np.nan
        for size in (dim - abs(offset), dim - abs(offset) - 2):
            re, im = rng.standard_normal((2, size))
            i = np.arange(size)
            for values in (np.zeros(size), re, re + 0j, 1j * im, re + 1j * im):
                V = np.zeros((dim, dim), dtype=complex)
                V[(i, i + offset) if offset >= 0 else (i - offset, i)] = values
                got = conjugated_block((row, col, M), values, offset, n)
                assert got.shape == (n, n)
                assert np.allclose(got, (U @ V @ U.conj().T)[:n, :n], rtol=1e-13, atol=1e-13), (size, values)
