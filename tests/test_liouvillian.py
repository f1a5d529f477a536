import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liouspace import liouvillian
from liouspace.errors import DimensionTooLarge, NonHermitianInput
from liouspace.liouvillian import BasisLiouvillian, grid_liouvillian, spectral_symmetry_defect
from liouspace.potential import (
    PolynomialPotential,
    SuperPotentialKind,
    e_superoperator,
    super_potential,
)
from liouspace.superspace import SuperGrid, gaussian_super_density, spectral_derivative_matrix


def random_hermitian(rng, n):
    h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (h + h.conj().T)


def random_structured(rng, n, e_kind):
    """A random (h, E, U): Hermitian h, an E mask that is absent, real (a
    Hermitian generator) or complex (a non-normal one), orthogonal U."""
    h = random_hermitian(rng, n)
    e = None
    if e_kind != "none":
        e = rng.normal(size=(n, n))
    if e_kind == "complex":
        e = e + 0.05j * rng.normal(size=(n, n))
    u, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return h, e, u


def kron_generator(h, e, u):
    """The generator on the row-major vec: vec(A X B) = kron(A, B^T) vec(X)."""
    eye = np.eye(h.shape[0])
    gen = np.kron(h, eye) - np.kron(eye, h.T)
    if e is not None:
        uu = np.kron(u, u)
        gen = gen + uu @ np.diag(e.ravel()) @ uu.T
    return gen


@pytest.fixture
def grid32():
    return SuperGrid.centered(6.0, 32)


def fft_grid_action(v, grid, kind, rho, mass=1.0, hbar=1.0):
    """(L / hbar) rho on the grid with the kinetic commutator applied in
    the 2-d Fourier dual of (Q, q): the spectral form of the generator."""
    k2 = (2.0 * np.pi * np.fft.fftfreq(grid.n, grid.dq)) ** 2
    kin = (hbar**2 / (2.0 * mass)) * (k2[:, None] - k2[None, :])
    pts = grid.points
    pot = super_potential(v, kind, pts[:, None], pts[None, :])
    return (np.fft.ifft2(kin * np.fft.fft2(rho)) + pot * rho) / hbar


class TestGridGenerator:
    def test_harmonic_cl_equals_qm(self, grid32):
        v = PolynomialPotential.harmonic(1.0)
        op_cl = grid_liouvillian(v, grid32, SuperPotentialKind.CL)
        op_qm = grid_liouvillian(v, grid32, SuperPotentialKind.QM)
        assert op_qm.e is None
        assert np.max(np.abs(op_cl.e)) == 0.0
        rng = np.random.Generator(np.random.Philox(31))
        rho = rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32))
        np.testing.assert_array_equal(op_cl.apply(rho), op_qm.apply(rho))

    def test_free_plane_wave_is_annihilated(self, grid32):
        """rho = exp(i k (Q - q)) with k on the grid: equal kinetic phases
        on the bra and ket axes cancel exactly."""
        v = PolynomialPotential.free()
        op = grid_liouvillian(v, grid32, SuperPotentialKind.CL)
        k = 2.0 * np.pi * 3 / (grid32.n * grid32.dq)
        pts = grid32.points
        rho = np.exp(1j * k * np.subtract.outer(pts, pts))
        out = op.apply(rho)
        assert np.max(np.abs(out)) < 1e-12

    def test_cl_diagonal_matches_potential_module(self, grid32):
        v = PolynomialPotential.quartic(0.8)
        op = grid_liouvillian(v, grid32, SuperPotentialKind.CL)
        rng = np.random.Generator(np.random.Philox(32))
        idx = rng.integers(0, 32, size=(100, 2))
        pts = grid32.points
        for a, b in idx:
            want = super_potential(v, SuperPotentialKind.CL, pts[a], pts[b])
            got = v.value(pts[a]) - v.value(pts[b]) + op.e[a, b]
            assert got == pytest.approx(want, abs=1e-12 * max(1.0, abs(want)))

    @pytest.mark.parametrize("kind", list(SuperPotentialKind))
    def test_grid_super_potential_keeps_the_bits_or_refuses_an_overflow(self, grid32, kind):
        """A finite superpotential comes back bit for bit, and the generator's
        E with it; one that overflows is a ValueError naming the potential
        and the grid, with no numpy warning on the way."""
        v = PolynomialPotential.quartic(0.8)
        pts = grid32.points
        want = super_potential(v, kind, pts[:, None], pts[None, :])
        np.testing.assert_array_equal(liouvillian.grid_super_potential(v, grid32, kind), want)
        if kind is SuperPotentialKind.CL:
            e = e_superoperator(v, pts[:, None], pts[None, :])
            np.testing.assert_array_equal(grid_liouvillian(v, grid32, kind).e, e)
        wide = SuperGrid.centered(1e150, 32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as err:
                liouvillian.grid_super_potential(v, wide, kind)
        assert str(err.value) == (
            "potential poly:0.0,0.0,0.0,0.0,0.8 overflows on the grid [-1e+150, 1e+150): "
            f"V_{kind.name} is not finite there"
        )

    def test_e_antisymmetric(self, grid32):
        """E is formed without symmetrisation, and is exactly antisymmetric."""
        op = grid_liouvillian(
            PolynomialPotential.quartic(0.5), grid32, SuperPotentialKind.CL
        )
        np.testing.assert_array_equal(op.e, -op.e.T)

    @pytest.mark.parametrize("kind", [SuperPotentialKind.CL, SuperPotentialKind.QM])
    def test_apply_matches_dense_and_spectral_form(self, grid32, kind):
        v = PolynomialPotential.quartic(0.5)
        op = grid_liouvillian(v, grid32, kind, mass=1.3, hbar=0.7)
        rng = np.random.Generator(np.random.Philox(33))
        rho = rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32))
        dense = op.dense()
        assert dense.dtype == np.float64  # a real generator stays real
        via_dense = (dense @ rho.reshape(-1)).reshape(32, 32)
        np.testing.assert_allclose(op.apply(rho), via_dense, atol=1e-10)
        spectral = fft_grid_action(v, grid32, kind, rho, mass=1.3, hbar=0.7)
        np.testing.assert_allclose(op.apply(rho), spectral, atol=1e-10)

    def test_hermiticity_preservation_structure(self, grid32):
        """For Hermitian rho, (L rho)(Q,q) = -conj((L rho)(q,Q)): the time
        derivative -i L rho / hbar stays Hermitian."""
        op = grid_liouvillian(
            PolynomialPotential.quartic(0.4), grid32, SuperPotentialKind.CL
        )
        sd = gaussian_super_density(grid32, 0.5, 0.3, 0.7, 0.7)
        out = op.apply(sd.values)
        assert np.max(np.abs(out + out.conj().T)) < 1e-10 * np.max(np.abs(out))

    def test_dense_too_large(self):
        grid = SuperGrid.centered(6.0, 128)
        op = grid_liouvillian(PolynomialPotential.free(), grid, SuperPotentialKind.QM)
        with pytest.raises(DimensionTooLarge):
            op.dense()

    def test_dense_cap_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(liouvillian, "MAX_DENSE_VEC_DIM", 100)
        assert BasisLiouvillian(np.eye(10)).dense().shape == (100, 100)
        with pytest.raises(DimensionTooLarge):
            BasisLiouvillian(np.eye(11)).dense()

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
        liou = BasisLiouvillian(h)
        np.testing.assert_allclose(
            liou.apply(rho), h @ rho - rho @ h, atol=1e-12 * max(1, np.abs(h).max())
        )

    def test_zero_hamiltonian(self):
        liou = BasisLiouvillian(np.zeros((3, 3)))
        assert np.max(np.abs(liou.dense())) == 0.0

    def test_two_level_spectrum(self):
        liou = BasisLiouvillian(np.diag([0.3, 1.7]))
        eig = np.sort_complex(np.linalg.eigvals(liou.dense()))
        np.testing.assert_allclose(
            eig, np.sort_complex(np.array([-1.4, 0.0, 0.0, 1.4])), atol=1e-12
        )

    @pytest.mark.parametrize("h", [
        np.array([[0.0, 1.0], [0.0, 0.0]]),
        np.array([[np.nan, 0.0], [0.0, 1.0]]),
    ], ids=["asymmetric", "nan"])
    def test_non_hermitian_rejected(self, h):
        with pytest.raises(NonHermitianInput):
            BasisLiouvillian(h)

    def test_hermiticity_of_h_is_relative_1e_12(self):
        h = np.diag([4.0, -2.0, 1.0])
        h[0, 1] = 0.5e-12 * 4.0  # passes at half the bound
        BasisLiouvillian(h)
        h[0, 1] = 2e-12 * 4.0
        with pytest.raises(NonHermitianInput):
            BasisLiouvillian(h)

    @pytest.mark.parametrize("u", [
        np.array([[1.0, 0.0], [0.0, 1.0 + 2e-12]]),  # U^T U is 4e-12 off
        np.array([[1.0, 0.1], [0.0, 1.0]]),
        np.array([[1.0, 0.0], [0.0, 1j]]),  # unitary, but not real
        np.array([[1.0, 0.0], [0.0, np.nan]]),
    ], ids=["scaled", "sheared", "complex", "nan"])
    def test_basis_must_be_real_orthogonal(self, u):
        """With a real orthogonal U, a real E gives a Hermitian generator,
        which is what lets ExactEvolver read its route from E."""
        with pytest.raises(ValueError, match="real orthogonal"):
            BasisLiouvillian(np.eye(2), np.ones((2, 2)), u)

    @pytest.mark.parametrize("e_kind", ["none", "real", "complex"])
    @pytest.mark.parametrize("identity", [False, True], ids=["basis", "identity"])
    def test_dense_matches_apply(self, e_kind, identity):
        """The dense form and the matrix-free action are one generator:
        vec(A X B) = kron(A, B^T) vec(X) on the row-major vec."""
        rng = np.random.Generator(np.random.Philox(34))
        h, e, u = random_structured(rng, 3, e_kind)
        liou = BasisLiouvillian(h, e, None if identity else u)
        rho = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        want = kron_generator(h, e, np.eye(3) if identity else u)
        np.testing.assert_allclose(liou.dense(), want, rtol=0, atol=1e-13)
        via_dense = (liou.dense() @ rho.reshape(-1)).reshape(3, 3)
        np.testing.assert_allclose(liou.apply(rho), via_dense, rtol=0, atol=1e-12)

    def test_generator_keeps_a_real_dtype(self):
        """Real h, E and U give a real symmetric generator, so eigh takes the
        real LAPACK driver."""
        rng = np.random.Generator(np.random.Philox(34))
        _, e, u = random_structured(rng, 4, "real")
        h = random_hermitian(rng, 4).real
        for liou in (BasisLiouvillian(h), BasisLiouvillian(h, e, u)):
            gen = liou.dense()
            assert gen.dtype == np.float64
            np.testing.assert_allclose(gen, gen.T, rtol=0, atol=1e-13)

    def test_cap_fires_before_allocation(self, monkeypatch):
        def refuse(*_args, **_kwargs):
            raise AssertionError("dense() built a kron above the cap")

        monkeypatch.setattr(np, "kron", refuse)
        with pytest.raises(DimensionTooLarge):
            BasisLiouvillian(np.zeros((65, 65))).dense()

    @pytest.mark.parametrize("name", ["e", "basis"])
    def test_mask_and_basis_must_match_h(self, name):
        with pytest.raises(ValueError, match="N x N"):
            BasisLiouvillian(np.eye(3), **{name: np.eye(2)})


class TestSpectrum:
    def test_difference_spectrum(self):
        """H with eigenvalues {0, 1, 3}: L eigenvalues are all pairwise
        differences {0,0,0, +-1, +-3, +-2}."""
        rng = np.random.Generator(np.random.Philox(35))
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        h = q @ np.diag([0.0, 1.0, 3.0]).astype(complex) @ q.conj().T
        eig = np.linalg.eigvals(BasisLiouvillian(h).dense())
        want = np.sort_complex(
            np.array([0, 0, 0, 1, -1, 3, -3, 2, -2], dtype=complex)
        )
        np.testing.assert_allclose(np.sort_complex(eig), want, atol=1e-10)

    def test_cl_grid_spectrum_symmetric(self):
        grid = SuperGrid.centered(4.0, 16)
        op = grid_liouvillian(PolynomialPotential.quartic(0.5), grid, SuperPotentialKind.CL)
        assert spectral_symmetry_defect(np.linalg.eigvals(op.dense())) < 1e-8

    def test_qm_basis_spectrum_symmetric(self):
        rng = np.random.Generator(np.random.Philox(36))
        liou = BasisLiouvillian(random_hermitian(rng, 6))
        assert spectral_symmetry_defect(np.linalg.eigvals(liou.dense())) < 1e-8

    def test_cl_equals_qm_iff_low_degree(self):
        grid = SuperGrid.centered(4.0, 16)
        for coeffs, equal in [((0.5, 1.0, 0.7), True), ((0.0, 0.0, 0.0, 0.2), False)]:
            v = PolynomialPotential(coeffs)
            d_cl = grid_liouvillian(v, grid, SuperPotentialKind.CL).dense()
            d_qm = grid_liouvillian(v, grid, SuperPotentialKind.QM).dense()
            assert np.allclose(d_cl, d_qm, atol=1e-12) == equal
