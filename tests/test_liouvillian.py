import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liouspace.errors import DimensionTooLarge, NonHermitianInput
from liouspace.liouvillian import (
    build_basis_liouvillian,
    build_grid_liouvillian,
    spectral_symmetry_defect,
    spectrum,
)
from liouspace.potential import PolynomialPotential, SuperPotentialKind, super_potential
from liouspace.superspace import SuperGrid, gaussian_super_density, spectral_derivative_matrix


def random_hermitian(rng, n):
    h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (h + h.conj().T)


@pytest.fixture
def grid32():
    return SuperGrid.centered(6.0, 32)


class TestGridLiouvillian:
    def test_harmonic_cl_equals_qm(self, grid32):
        v = PolynomialPotential.harmonic(1.0)
        op_cl = build_grid_liouvillian(v, grid32, SuperPotentialKind.CL)
        op_qm = build_grid_liouvillian(v, grid32, SuperPotentialKind.QM)
        assert np.max(np.abs(op_cl.e_diag)) == 0.0
        rng = np.random.Generator(np.random.Philox(31))
        rho = rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32))
        np.testing.assert_array_equal(op_cl.apply(rho), op_qm.apply(rho))

    def test_free_plane_wave_is_annihilated(self, grid32):
        """rho = exp(i k (Q - q)) with k on the grid: equal kinetic phases
        on the bra and ket axes cancel exactly."""
        v = PolynomialPotential.free()
        op = build_grid_liouvillian(v, grid32, SuperPotentialKind.CL)
        k = 2.0 * np.pi * 3 / (grid32.n * grid32.dq)
        pts = grid32.points
        rho = np.exp(1j * k * np.subtract.outer(pts, pts))
        out = op.apply(rho)
        assert np.max(np.abs(out)) < 1e-12

    def test_cl_diagonal_matches_potential_module(self, grid32):
        v = PolynomialPotential.quartic(0.8)
        op = build_grid_liouvillian(v, grid32, SuperPotentialKind.CL)
        rng = np.random.Generator(np.random.Philox(32))
        idx = rng.integers(0, 32, size=(100, 2))
        pts = grid32.points
        for a, b in idx:
            want = super_potential(v, SuperPotentialKind.CL, pts[a], pts[b])
            got = op.potential_diag[a, b] + op.e_diag[a, b]
            assert got == pytest.approx(want, abs=1e-12 * max(1.0, abs(want)))

    def test_e_diag_antisymmetric(self, grid32):
        op = build_grid_liouvillian(
            PolynomialPotential.quartic(0.5), grid32, SuperPotentialKind.CL
        )
        np.testing.assert_array_equal(op.e_diag, -op.e_diag.T)

    def test_apply_matches_dense(self, grid32):
        op = build_grid_liouvillian(
            PolynomialPotential.quartic(0.5), grid32, SuperPotentialKind.CL,
            mass=1.3, hbar=0.7,
        )
        rng = np.random.Generator(np.random.Philox(33))
        rho = rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32))
        via_dense = (op.dense() @ rho.reshape(-1)).reshape(32, 32)
        np.testing.assert_allclose(op.apply(rho), via_dense, atol=1e-10)

    def test_hermiticity_preservation_structure(self, grid32):
        """For Hermitian rho, (L rho)(Q,q) = -conj((L rho)(q,Q)): the time
        derivative -i L rho / hbar stays Hermitian."""
        op = build_grid_liouvillian(
            PolynomialPotential.quartic(0.4), grid32, SuperPotentialKind.CL
        )
        sd = gaussian_super_density(grid32, 0.5, 0.3, 0.7, 0.7)
        out = op.apply(sd.values)
        assert np.max(np.abs(out + out.conj().T)) < 1e-10 * np.max(np.abs(out))

    def test_dense_too_large(self):
        grid = SuperGrid.centered(6.0, 128)
        op = build_grid_liouvillian(
            PolynomialPotential.free(), grid, SuperPotentialKind.QM
        )
        with pytest.raises(DimensionTooLarge):
            op.dense()

    @pytest.mark.parametrize("order", [1, 2])
    def test_spectral_derivative_matrix_is_symmetric(self, order):
        n, dq = 16, 0.3
        d = spectral_derivative_matrix(n, dq, order)
        k = 2.0 * np.pi * 2 / (n * dq)
        x = dq * np.arange(n)
        if order == 1:
            np.testing.assert_array_equal(d, -d.T)
            # exact on a resolved plane wave
            np.testing.assert_allclose(d @ np.sin(k * x), k * np.cos(k * x), atol=1e-12)
        else:
            np.testing.assert_array_equal(d, d.T)
            np.testing.assert_allclose(d @ np.cos(k * x), -(k**2) * np.cos(k * x), atol=1e-10)
            # the per-column FFT construction this circulant one replaced
            k2 = (2.0 * np.pi * np.fft.fftfreq(n, dq)) ** 2
            old = np.fft.ifft(-k2[:, None] * np.fft.fft(np.eye(n), axis=0), axis=0).real
            assert np.max(np.abs(d - old)) < 1e-12 * np.max(np.abs(old))

    def test_spectral_derivative_order_checked(self):
        with pytest.raises(ValueError):
            spectral_derivative_matrix(16, 0.3, 3)


class TestBasisLiouvillian:
    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(2, 8), seed=st.integers(0, 2**31))
    def test_commutator_identity(self, n, seed):
        rng = np.random.Generator(np.random.Philox(seed))
        h = random_hermitian(rng, n)
        rho = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        liou = build_basis_liouvillian(h)
        np.testing.assert_allclose(
            liou.apply(rho), h @ rho - rho @ h, atol=1e-12 * max(1, np.abs(h).max())
        )

    def test_zero_hamiltonian(self):
        liou = build_basis_liouvillian(np.zeros((3, 3)))
        assert np.max(np.abs(liou.dense())) == 0.0

    def test_two_level_spectrum(self):
        liou = build_basis_liouvillian(np.diag([0.3, 1.7]))
        eig = np.sort_complex(spectrum(liou))
        np.testing.assert_allclose(
            eig, np.sort_complex(np.array([-1.4, 0.0, 0.0, 1.4])), atol=1e-12
        )

    def test_non_hermitian_rejected(self):
        with pytest.raises(NonHermitianInput):
            build_basis_liouvillian(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_dense_matches_apply_with_s_add(self):
        rng = np.random.Generator(np.random.Philox(34))
        h = random_hermitian(rng, 3)
        s = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
        liou = build_basis_liouvillian(h, s_add=s)
        rho = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        via_dense = (liou.dense() @ rho.reshape(-1)).reshape(3, 3)
        np.testing.assert_allclose(liou.apply(rho), via_dense, atol=1e-12)


class TestSpectrum:
    def test_difference_spectrum(self):
        """H with eigenvalues {0, 1, 3}: L eigenvalues are all pairwise
        differences {0,0,0, +-1, +-3, +-2}."""
        rng = np.random.Generator(np.random.Philox(35))
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        h = q @ np.diag([0.0, 1.0, 3.0]).astype(complex) @ q.conj().T
        eig = spectrum(build_basis_liouvillian(h))
        want = np.sort_complex(
            np.array([0, 0, 0, 1, -1, 3, -3, 2, -2], dtype=complex)
        )
        np.testing.assert_allclose(np.sort_complex(eig), want, atol=1e-10)

    def test_cl_grid_spectrum_symmetric(self):
        grid = SuperGrid.centered(4.0, 16)
        op = build_grid_liouvillian(
            PolynomialPotential.quartic(0.5), grid, SuperPotentialKind.CL
        )
        assert spectral_symmetry_defect(spectrum(op)) < 1e-8

    def test_qm_basis_spectrum_symmetric(self):
        rng = np.random.Generator(np.random.Philox(36))
        liou = build_basis_liouvillian(random_hermitian(rng, 6))
        assert spectral_symmetry_defect(spectrum(liou)) < 1e-8

    def test_cl_equals_qm_iff_low_degree(self):
        grid = SuperGrid.centered(4.0, 16)
        for coeffs, equal in [((0.5, 1.0, 0.7), True), ((0.0, 0.0, 0.0, 0.2), False)]:
            v = PolynomialPotential(coeffs)
            d_cl = build_grid_liouvillian(v, grid, SuperPotentialKind.CL).dense()
            d_qm = build_grid_liouvillian(v, grid, SuperPotentialKind.QM).dense()
            assert np.allclose(d_cl, d_qm, atol=1e-12) == equal
