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
    PhaseDensity,
    PhaseGrid,
    SuperDensity,
    SuperGrid,
    gaussian_phase_density,
    gaussian_super_density,
    moments,
    phase_to_super,
    super_to_phase,
)


@pytest.fixture
def grid64():
    return SuperGrid.centered(7.0, 64)


def normalized_gaussian(grid, x0=0.8, p0=-0.4, sx=0.6, sp=0.7):
    return gaussian_phase_density(PhaseGrid(grid, 1.0), x0, p0, sx, sp)


class TestGrids:
    def test_matched_reciprocity(self, grid64):
        pg = PhaseGrid(grid64, 1.0)
        # dy * dp = 2 pi hbar / n with dy = 2 dx
        assert 2 * grid64.dq * pg.dp == pytest.approx(2 * np.pi / pg.n, rel=1e-12)
        assert pg.n == grid64.n
        with pytest.raises(ValueError):
            PhaseGrid(grid64, 0.0)  # the dual p grid needs hbar > 0

    def test_odd_sizes_rejected(self):
        with pytest.raises(ValueError):
            SuperGrid(-1.0, 1.0, 15)

    @pytest.mark.parametrize("sx, sp", [(0.0, 0.6), (-1.0, 0.6), (0.4, 0.0), (0.4, -1.0),
                                        (np.nan, 0.6)])
    def test_gaussian_widths_must_be_positive(self, grid64, sx, sp):
        with pytest.raises(ValueError, match="must be > 0"):
            gaussian_super_density(grid64, 1.0, 0.0, sx, sp)
        with pytest.raises(ValueError, match="must be > 0"):
            gaussian_phase_density(PhaseGrid(grid64, 1.0), 1.0, 0.0, sx, sp)


class TestPhaseToSuper:
    def test_matches_analytic_gaussian(self, grid64):
        """Narrow Gaussian surrogate of 2 pi delta(x-x0) delta(p-p0):
        rho(Q, q) = N exp(i p0 (Q-q)) gauss((Q+q)/2 - x0) gauss_y(Q-q)."""
        pd = normalized_gaussian(grid64)
        sd = phase_to_super(pd)
        sda = gaussian_super_density(grid64, 0.8, -0.4, 0.6, 0.7)
        peak = np.max(np.abs(sda.values))
        np.testing.assert_allclose(sd.values, sda.values, atol=0.01 * peak)
        # the FFT route is actually far closer than the 1% contract
        assert np.max(np.abs(sd.values - sda.values)) < 1e-12 * peak

    def test_round_trip_identity(self, grid64):
        pd = normalized_gaussian(grid64)
        back = super_to_phase(phase_to_super(pd))
        assert np.max(np.abs(back.values - pd.values)) < 1e-8

    def test_uniform_density_concentrates_on_diagonal(self, grid64):
        pg = PhaseGrid(grid64, 1.0)
        pd = PhaseDensity(pg, np.ones((64, 64)))
        sd = phase_to_super(pd)
        peak = np.max(np.abs(np.diag(sd.values)))
        # Fourier transform of a p-constant is a discrete delta at y = 0:
        # exact zeros on the dual y lattice (even Q - q offsets), Dirichlet
        # interpolation ringing below the peak in between.
        a = np.arange(64)
        offset = np.subtract.outer(a, a)
        even_off = (offset % 2 == 0) & (offset != 0)
        assert np.max(np.abs(sd.values[even_off])) < 1e-10 * peak
        assert np.max(np.abs(sd.values[offset != 0])) < peak
        np.testing.assert_allclose(np.diag(sd.values).imag, 0.0, atol=1e-12 * peak)

    def test_hermiticity_for_random_real_input(self, grid64):
        rng = np.random.Generator(np.random.Philox(21))
        pd = PhaseDensity(PhaseGrid(grid64, 1.0), rng.normal(size=(64, 64)))
        sd = phase_to_super(pd)
        assert sd.hermiticity_defect() < 1e-10 * np.max(np.abs(sd.values))


class TestSuperToPhase:
    def test_pure_state_gaussian_wigner(self):
        """rho(Q,q) = exp(-(Q^2+q^2)/2) maps to 2 sqrt(pi) exp(-x^2 - p^2)."""
        grid = SuperGrid.centered(8.0, 64)
        pts = grid.points
        vals = np.exp(-0.5 * (pts[:, None] ** 2 + pts[None, :] ** 2)).astype(complex)
        pd = super_to_phase(SuperDensity(grid, vals))
        xx, pp = np.meshgrid(pd.grid.x, pd.grid.p, indexing="ij")
        want = 2.0 * np.sqrt(np.pi) * np.exp(-(xx**2) - pp**2)
        interior = np.abs(xx) < 5.0
        np.testing.assert_allclose(
            pd.values[interior], want[interior], atol=1e-6 * want.max()
        )

    def test_output_is_real_for_hermitian_input(self, grid64):
        sd = gaussian_super_density(grid64, 0.3, 1.0, 0.5, 0.8)
        pd = super_to_phase(sd)
        assert pd.values.dtype == np.float64

    def test_non_hermitian_raises(self, grid64):
        vals = gaussian_super_density(grid64, 0.0, 0.0, 0.6, 0.6).values.copy()
        vals[3, 5] += 0.5
        with pytest.raises(HermiticityViolation):
            super_to_phase(SuperDensity(grid64, vals))

    @pytest.mark.parametrize("defect, ok", [(0.5e-6, True), (2e-6, False), (np.nan, False)])
    def test_hermiticity_tolerance(self, defect, ok):
        """The rule of ``moments``: max|rho - rho^H| within HERMITICITY_TOL
        of max|rho|; a NaN density is refused.  The defect sits at an
        entry of odd index sum, which the inverse transform never reads,
        so only the Hermiticity guard can refuse it."""
        vals = np.eye(4, dtype=complex)
        vals[0, 1] = defect
        sd = SuperDensity(SuperGrid.centered(2.0, 4), vals)
        if ok:
            assert super_to_phase(sd).values.dtype == np.float64
        else:
            with pytest.raises(HermiticityViolation, match="hermiticity defect"):
                super_to_phase(sd)


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

    d_bra = deriv(rho, 0)
    return Moments(
        trace=tr(rho),
        x=tr(q * rho),
        p=tr(-0.5j * hbar * (d_bra - deriv(rho, 1))),
        x2=tr(q**2 * rho),
        xp_weyl=0.5 * (tr(-1j * hbar * q * d_bra) + tr(-1j * hbar * deriv(q * rho, 0))),
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
        assert m.xp_weyl == pytest.approx(1.5 * -0.5, abs=1e-4)
        assert m.x2 == pytest.approx(1.5**2 + 0.7**2, abs=1e-4)

    def test_moments_match_phase_space_oracle(self):
        grid = SuperGrid.centered(8.0, 64)
        sd = gaussian_super_density(grid, 0.9, 0.7, 0.5, 0.8)
        pd = super_to_phase(sd)
        m = moments(sd)
        assert m.x == pytest.approx(pd.moment(lambda x, p: x), abs=1e-6)
        assert m.p == pytest.approx(pd.moment(lambda x, p: p), abs=1e-6)
        assert m.xp_weyl == pytest.approx(pd.moment(lambda x, p: x * p), abs=1e-6)

    def test_symmetric_density_zero_moments(self, grid64):
        m = moments(gaussian_super_density(grid64, 0.0, 0.0, 0.6, 0.6))
        assert m.x == pytest.approx(0.0, abs=1e-10)
        assert m.p == pytest.approx(0.0, abs=1e-10)

    def test_zero_density(self, grid64):
        m = moments(SuperDensity(grid64, np.zeros((64, 64))))
        assert m == Moments(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)

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
        sd = SuperDensity(grid64, vals)
        assert np.isnan(sd.hermiticity_defect())
        assert np.isnan(moments(sd).hermiticity_defect)

    def test_one_hermiticity_test_per_call(self, grid64, monkeypatch):
        calls = []
        defect = SuperDensity.hermiticity_defect

        def counted(self):
            calls.append(self)
            return defect(self)

        monkeypatch.setattr(SuperDensity, "hermiticity_defect", counted)
        sd = gaussian_super_density(grid64, 0.3, 0.2, 0.6, 0.7)
        moments(sd)
        assert len(calls) == 1
        super_to_phase(sd)
        assert len(calls) == 2

    def test_derivative_matrix_built_once_per_grid_and_read_only(self, grid64, monkeypatch):
        builds = []
        build = superspace.spectral_derivative_matrix

        def counted(n, dq, order):
            builds.append((n, dq, order))
            return build(n, dq, order)

        monkeypatch.setattr(superspace, "spectral_derivative_matrix", counted)
        superspace._first_derivative_matrix.cache_clear()
        sd = gaussian_super_density(grid64, 0.3, 0.2, 0.6, 0.7)
        assert moments(sd) == moments(sd)
        assert builds == [(64, grid64.dq, 1)]
        d = superspace._first_derivative_matrix(64, grid64.dq)
        np.testing.assert_array_equal(d, build(64, grid64.dq, 1))
        with pytest.raises(ValueError, match="read-only"):
            d[0, 1] = 0.0

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
        pd = normalized_gaussian(grid64)
        sd = phase_to_super(pd)
        # quadrature oracle on the phase-space side
        assert moments(sd).trace == pytest.approx(pd.norm(), abs=1e-12)
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
)
def test_transform_properties_hold_for_gaussian_family(x0, p0, sx, sp):
    # the domain is wide enough that these states are band-limited in the
    # required sense: y-content inside the rotated (Q, q) square, p-content
    # well inside the matched p range (verified over the strategy corners)
    grid = SuperGrid.centered(10.0, 96)
    pd = gaussian_phase_density(PhaseGrid(grid, 1.0), x0, p0, sx, sp)
    sd = phase_to_super(pd)
    assert sd.hermiticity_defect() < 1e-10
    assert moments(sd).trace == pytest.approx(pd.norm(), abs=1e-10)
    back = super_to_phase(sd)
    assert np.max(np.abs(back.values - pd.values)) < 1e-8
