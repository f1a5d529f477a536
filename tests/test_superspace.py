import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liouspace import superspace
from liouspace.errors import HermiticityViolation
from liouspace.evolution import EvolutionConfig, EvolveMethod, evolve_trotter
from liouspace.potential import PolynomialPotential, SuperPotentialKind
from liouspace.superspace import (
    Moments,
    SuperDensity,
    SuperGrid,
    gaussian_super_density,
    moments,
)


@pytest.fixture
def grid64():
    return SuperGrid.centered(7.0, 64)


def p_quadrature_density(grid, x0, p0, sx, sp, hbar):
    """Independent reference: the direct trapezoid sum over p,
    rho(Q, q) = sum_p dp/(2 pi hbar) W((Q+q)/2, p) exp(i p (Q-q)/hbar), with
    W(x, p) = (hbar/(sx sp)) exp(-(x-x0)^2/2sx^2 - (p-p0)^2/2sp^2), on 1201
    points over p0 +- 12 sp.  W is a product of an x and a p factor, so the
    p sum is taken once per lag Q - q = k dq."""
    p, dp = np.linspace(p0 - 12.0 * sp, p0 + 12.0 * sp, 1201, retstep=True)
    trapezoid = np.full(p.size, dp)
    trapezoid[[0, -1]] *= 0.5
    weights = trapezoid / (2.0 * np.pi * hbar) * np.exp(-((p - p0) ** 2) / (2 * sp**2))
    n, pts = grid.n, grid.points
    lags = grid.dq * np.arange(-(n - 1), n)
    p_sum = np.exp(1j * np.outer(lags, p) / hbar) @ weights
    mid = 0.5 * np.add.outer(pts, pts)
    a = np.arange(n)
    return (hbar / (sx * sp)) * np.exp(-((mid - x0) ** 2) / (2 * sx**2)) * p_sum[
        np.subtract.outer(a, a) + n - 1
    ]


def phase_space_moments(grid, x0, p0, sx, sp, hbar):
    """Independent reference on the phase-space side: norm, <x>, <p> and
    <x^2> of W(x, p) = (hbar/(sx sp)) exp(-(x-x0)^2/2sx^2 - (p-p0)^2/2sp^2)
    as sums of W dx dp / (2 pi hbar) over the grid points in x and the
    p points of ``p_quadrature_density``."""
    p, dp = np.linspace(p0 - 12.0 * sp, p0 + 12.0 * sp, 1201, retstep=True)
    trapezoid = np.full(p.size, dp)
    trapezoid[[0, -1]] *= 0.5
    x = grid.points
    w = (hbar / (sx * sp)) * np.exp(
        -((x[:, None] - x0) ** 2) / (2 * sx**2) - ((p[None, :] - p0) ** 2) / (2 * sp**2)
    )
    measure = w * grid.dq * trapezoid / (2.0 * np.pi * hbar)

    def mean(f):
        return float(np.sum(f * measure))

    xx, pp = x[:, None], p[None, :]
    return mean(1.0), mean(xx), mean(pp), mean(xx**2)


class TestGrids:
    def test_odd_sizes_rejected(self):
        with pytest.raises(ValueError):
            SuperGrid(-1.0, 1.0, 15)

    @pytest.mark.parametrize(
        "half_span, message",
        [(1e300, "dq=3.125e+298 is too large"), (1e308, "dq=inf must be finite and > 0")],
    )
    def test_step_whose_square_overflows_rejected(self, half_span, message):
        """moments scales the purity by dq^2; 1e308 makes q_max - q_min infinite."""
        with pytest.raises(ValueError, match=f"grid step {re.escape(message)}"):
            SuperGrid.centered(half_span, 64)


class TestGaussianSuperDensity:
    @pytest.mark.parametrize("x0, p0, sx, sp, hbar", [(0.8, -0.4, 0.6, 0.7, 1.0),
                                                      (0.3, 1.1, 0.5, 0.9, 0.7)])
    def test_matches_p_quadrature(self, grid64, x0, p0, sx, sp, hbar):
        """The closed form is the Fourier transform in p of the phase
        Gaussian, rotated to (Q, q), and it is normalised."""
        sd = gaussian_super_density(grid64, x0, p0, sx, sp, hbar)
        want = p_quadrature_density(grid64, x0, p0, sx, sp, hbar)
        peak = np.max(np.abs(want))
        assert np.max(np.abs(sd.values - want)) < 1e-12 * peak
        assert np.max(np.abs(sd.values - sd.values.conj().T)) < 1e-12 * peak

    @pytest.mark.parametrize("sx, sp", [(0.0, 0.6), (-1.0, 0.6), (0.4, 0.0), (0.4, -1.0),
                                        (np.nan, 0.6)])
    def test_widths_must_be_positive(self, grid64, sx, sp):
        with pytest.raises(ValueError, match="must be finite and > 0"):
            gaussian_super_density(grid64, 1.0, 0.0, sx, sp)

    @pytest.mark.parametrize(
        "x0, p0, sx, sp",
        [(0.0, 0.0, np.inf, 0.6), (0.0, 0.0, 0.4, np.inf), (np.nan, 0.0, 0.4, 0.6),
         (0.0, -np.inf, 0.4, 0.6)],
        ids=["sigma-x-inf", "sigma-p-inf", "x0-nan", "p0-inf"],
    )
    def test_centre_and_widths_must_be_finite(self, grid64, x0, p0, sx, sp):
        """Without the guard an infinite sigma_x gave an all-zero density of
        trace 0, an infinite sigma_p NaN entries, and a NaN x0 or an
        infinite p0 an all-NaN density, none of them an error."""
        with pytest.raises(ValueError, match="must be finite"):
            gaussian_super_density(grid64, x0, p0, sx, sp)

    @pytest.mark.parametrize("hbar", [0.0, -1.0, np.nan, np.inf])
    def test_hbar_must_be_finite_and_positive(self, grid64, hbar):
        with pytest.raises(ValueError, match="must be finite and > 0"):
            gaussian_super_density(grid64, 1.0, 0.0, 0.5, 1.0, hbar)

    @pytest.mark.parametrize(
        "sx, sp, hbar, name",
        [(1e200, 0.6, 1.0, "sigma_x"), (0.4, 1e200, 1.0, "sigma_p"),
         (0.4, 0.6, 1e200, "hbar"), (np.float64(1e200), 0.6, 1.0, "sigma_x")],
        ids=["sigma-x", "sigma-p", "hbar", "sigma-x-float64"],
    )
    def test_square_that_overflows_names_the_parameter(self, grid64, sx, sp, hbar, name):
        """A Python float's square raised OverflowError here; a float64 one
        would pass as inf."""
        with pytest.raises(ValueError, match=f"{name}=1e\\+200 is too large"):
            gaussian_super_density(grid64, 1.0, 0.0, sx, sp, hbar)


def fft_route_moments(sd, hbar=1.0):
    """Independent reference: spectral derivatives by FFT along each axis,
    then the diagonal trace (P rho)(Q, q) = -i hbar d/dQ rho(Q, q)."""
    rho, dq, n = sd.values, sd.grid.dq, sd.grid.n
    q = sd.grid.points[:, None]
    k = 2.0 * np.pi * np.fft.fftfreq(n, dq)
    k[n // 2] = 0.0

    def deriv(vals, axis):
        shape = [1, 1]
        shape[axis] = n
        return np.fft.ifft(np.fft.fft(vals, axis=axis) * (1j * k).reshape(shape), axis=axis)

    def tr(mat):
        return float((np.trace(mat) * dq).real)

    return Moments(
        trace=tr(rho),
        x=tr(q * rho),
        p=tr(-0.5j * hbar * (deriv(rho, 0) - deriv(rho, 1))),
        x2=tr(q**2 * rho),
        purity=float(np.sum(np.abs(rho) ** 2) * dq**2),
        hermiticity_defect=float(np.max(np.abs(rho - rho.conj().T))),
        boundary_mass=max(
            float(np.max(np.abs(rho[0, :]))),
            float(np.max(np.abs(rho[-1, :]))),
            float(np.max(np.abs(rho[:, 0]))),
            float(np.max(np.abs(rho[:, -1]))),
        ) / max(float(np.max(np.abs(rho))), 1e-300),
    )


def random_hermitian_density(n, seed):
    rng = np.random.Generator(np.random.Philox(seed))
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return SuperDensity(SuperGrid.centered(6.0, n), a @ a.conj().T / n)


def evolved_quartic_cl_density():
    grid = SuperGrid.centered(8.0, 64)
    sd = gaussian_super_density(grid, 1.0, 0.3, 0.5, 0.6)
    cfg = EvolutionConfig(t1=0.5, n_steps=50, method=EvolveMethod.TROTTER_STRANG)
    return evolve_trotter(PolynomialPotential.quartic(0.1), grid, SuperPotentialKind.CL, sd, cfg)


class TestMoments:
    @pytest.mark.parametrize(
        "make", [lambda: random_hermitian_density(64, 31), evolved_quartic_cl_density],
        ids=["random_hermitian", "evolved_quartic_cl"],
    )
    @pytest.mark.parametrize("hbar", [1.0, 0.7])
    def test_matches_fft_route(self, make, hbar):
        sd = make()
        got, want = moments(sd, hbar), fft_route_moments(sd, hbar)
        for name in Moments.__dataclass_fields__:
            if name in ("hermiticity_defect", "boundary_mass"):
                assert getattr(got, name) == getattr(want, name), name
            else:
                assert getattr(got, name) == pytest.approx(
                    getattr(want, name), rel=1e-13, abs=0.0
                ), name

    def test_gaussian_moments(self):
        grid = SuperGrid.centered(8.0, 64)
        m = moments(gaussian_super_density(grid, 1.5, -0.5, 0.7, 0.6))
        assert m.x == pytest.approx(1.5, abs=1e-4)
        assert m.p == pytest.approx(-0.5, abs=1e-4)
        assert m.x2 == pytest.approx(1.5**2 + 0.7**2, abs=1e-4)

    def test_moments_match_phase_space_oracle(self):
        grid = SuperGrid.centered(8.0, 64)
        sd = gaussian_super_density(grid, 0.9, 0.7, 0.5, 0.8)
        m = moments(sd)
        _, x, p, x2 = phase_space_moments(grid, 0.9, 0.7, 0.5, 0.8, 1.0)
        assert m.x == pytest.approx(x, abs=1e-6)
        assert m.p == pytest.approx(p, abs=1e-6)
        assert m.x2 == pytest.approx(x2, abs=1e-6)

    def test_symmetric_density_zero_moments(self, grid64):
        m = moments(gaussian_super_density(grid64, 0.0, 0.0, 0.6, 0.6))
        assert m.x == pytest.approx(0.0, abs=1e-10)
        assert m.p == pytest.approx(0.0, abs=1e-10)

    def test_zero_density(self, grid64):
        m = moments(SuperDensity(grid64, np.zeros((64, 64))))
        assert m == Moments(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)

    def test_boundary_mass_of_a_gaussian_on_a_narrow_grid(self):
        wide = gaussian_super_density(SuperGrid.centered(8.0, 64), 0.0, 0.0, 0.6, 0.6)
        narrow = gaussian_super_density(SuperGrid.centered(3.0, 32), 1.5, 0.0, 0.8, 0.3)
        assert moments(wide).boundary_mass < 1e-10
        assert moments(narrow).boundary_mass > 1e-10

    @pytest.mark.parametrize("defect, ok", [(0.5e-6, True), (2e-6, False)])
    def test_hermiticity_tolerance(self, defect, ok):
        # relative defect max|rho - rho^H| / max|rho| == defect exactly
        vals = np.eye(4, dtype=complex)
        vals[0, 1] = defect
        sd = SuperDensity(SuperGrid.centered(2.0, 4), vals)
        if ok:
            assert moments(sd).hermiticity_defect == defect
        else:
            with pytest.raises(HermiticityViolation):
                moments(sd)

    def test_nan_survives_the_block_reduction(self, grid64):
        # on the diagonal past the first row block, so only a later block
        # holds the NaN: Python's max(0.0, nan) would return 0.0
        vals = np.eye(64, dtype=complex)
        vals[50, 50] = np.nan
        assert np.isnan(moments(SuperDensity(grid64, vals)).hermiticity_defect)

    def test_one_pass_over_the_row_blocks(self, grid64, monkeypatch):
        """The Hermiticity defect comes from the same pass over the row
        blocks as the sums, not from a second one."""
        calls = []
        row_blocks = superspace._row_blocks

        def counted(n):
            calls.append(n)
            return row_blocks(n)

        monkeypatch.setattr(superspace, "_row_blocks", counted)
        sd = gaussian_super_density(grid64, 0.3, 0.2, 0.6, 0.7)
        moments(sd)
        assert calls == [64]

    def test_derivative_matrix_built_once_per_grid_and_read_only(self, grid64):
        """moments reads D as rows of one length-2n vector, built once per
        grid and shared read-only."""
        build = superspace.spectral_derivative_matrix
        build.cache_clear()
        sd = gaussian_super_density(grid64, 0.3, 0.2, 0.6, 0.7)
        assert moments(sd) == moments(sd)
        assert (build.cache_info().misses, build.cache_info().currsize) == (1, 1)
        d = build(64, grid64.dq, 1)
        # consecutive rows start one element apart: the rows overlap in one vector
        assert abs(d.strides[0]) == d.itemsize
        with pytest.raises(ValueError, match="read-only"):
            d[0, 1] = 0.0
        # the circulant D[a, c] = col[(a - c) mod n], indexed in full
        a = np.arange(64)
        np.testing.assert_array_equal(d, d[:, 0][np.subtract.outer(a, a) % 64])
        # independent of the construction: D f is the FFT derivative
        f = np.random.Generator(np.random.Philox(4)).normal(size=64)
        ik = 2j * np.pi * np.fft.fftfreq(64, grid64.dq)
        ik[32] = 0.0
        np.testing.assert_allclose(d @ f, np.fft.ifft(ik * np.fft.fft(f)).real, atol=1e-12)

    def test_imaginary_trace_raises(self, grid64):
        # diagonal imaginary parts of 1e-7 max|rho|: the relative Hermiticity
        # defect is 2e-7, inside HERMITICITY_TOL, but the trace is not real
        sd = gaussian_super_density(grid64, 0.3, 0.2, 0.6, 0.7)
        vals = sd.values + 1e-7j * np.max(np.abs(sd.values)) * np.eye(64)
        with pytest.raises(HermiticityViolation, match="imaginary part"):
            moments(SuperDensity(grid64, vals))

    def test_hbar_scaling_of_momentum(self):
        grid = SuperGrid.centered(8.0, 64)
        sd = gaussian_super_density(grid, 0.0, 1.2, 0.6, 0.5, hbar=0.5)
        assert moments(sd, hbar=0.5).p == pytest.approx(1.2, abs=1e-4)


class TestTrace:
    def test_normalized_gaussian(self, grid64):
        sd = gaussian_super_density(grid64, 0.8, -0.4, 0.6, 0.7)
        norm = phase_space_moments(grid64, 0.8, -0.4, 0.6, 0.7, 1.0)[0]
        # quadrature oracle on the phase-space side
        assert moments(sd).trace == pytest.approx(norm, abs=1e-12)
        assert moments(sd).trace == pytest.approx(1.0, abs=1e-6)

    def test_linearity(self, grid64):
        sd = gaussian_super_density(grid64, 0.0, 0.0, 0.5, 0.5)
        assert moments(SuperDensity(grid64, 2.5 * sd.values)).trace == pytest.approx(
            2.5 * moments(sd).trace, rel=1e-12
        )


class TestPurity:
    def test_purity_of_pure_state(self, grid64):
        pts = grid64.points
        psi = np.exp(-0.5 * pts**2)
        psi = psi / np.sqrt(np.sum(np.abs(psi) ** 2) * grid64.dq)
        sd = SuperDensity(grid64, np.outer(psi, psi.conj()))
        assert moments(sd).purity == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("sx, sp", [(0.5, 1.0), (0.7, 0.9), (0.4, 0.6)])
    def test_gaussian_purity_is_inverse_uncertainty_product(self, grid64, sx, sp):
        # Tr rho^2 = hbar / (2 sigma_x sigma_p) for a Gaussian Wigner function
        sd = gaussian_super_density(grid64, 0.3, -0.2, sx, sp)
        assert moments(sd).purity == pytest.approx(1.0 / (2.0 * sx * sp), rel=1e-9)


class TestPositivity:
    """The operator of a Gaussian phase density is positive exactly when
    sigma_x sigma_p >= hbar / 2: sharper classical states are not quantum
    states.  The spectrum of rho is that of the kernel rho(Q, q) dq."""

    @pytest.mark.parametrize(
        "sx, sp, positive",
        [(0.5, 1.0, True), (0.7, 0.9, True), (0.5, 0.6, False), (0.3, 0.3, False)],
    )
    def test_positive_iff_uncertainty_bound_holds(self, grid64, sx, sp, positive):
        sd = gaussian_super_density(grid64, 0.3, -0.2, sx, sp)
        eig = np.linalg.eigvalsh(sd.values * grid64.dq)
        assert eig.sum() == pytest.approx(moments(sd).trace, abs=1e-10)
        if positive:
            assert eig[0] > -1e-12
        else:
            assert eig[0] < -0.1


@settings(max_examples=20, deadline=None)
@given(
    x0=st.floats(-1.0, 1.0),
    p0=st.floats(-1.0, 1.0),
    sx=st.floats(0.45, 0.9),
    sp=st.floats(0.5, 0.8),
    hbar=st.floats(0.7, 1.3),
)
def test_gaussian_family_matches_both_quadratures(x0, p0, sx, sp, hbar):
    # the domain is wide enough that these states are band-limited: the
    # y-content of rho lies inside the grid's spectral band and the x tails
    # are below 1e-16 of the peak at the edges (checked at the strategy corners)
    grid = SuperGrid.centered(10.0, 96)
    sd = gaussian_super_density(grid, x0, p0, sx, sp, hbar)
    peak = np.max(np.abs(sd.values))
    want = p_quadrature_density(grid, x0, p0, sx, sp, hbar)
    assert np.max(np.abs(sd.values - want)) < 1e-12 * peak
    assert np.max(np.abs(sd.values - sd.values.conj().T)) < 1e-12 * peak
    m = moments(sd, hbar)
    norm, x, p, x2 = phase_space_moments(grid, x0, p0, sx, sp, hbar)
    assert m.trace == pytest.approx(norm, abs=1e-10)
    assert m.x == pytest.approx(x, abs=1e-6)
    assert m.p == pytest.approx(p, abs=1e-6)
    assert m.x2 == pytest.approx(x2, abs=1e-6)
