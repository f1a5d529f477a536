from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg

from liouspace.errors import EnergyDriftExceeded
from liouspace.evolution import (
    CharacteristicsEnsemble,
    EvolutionConfig,
    EvolveMethod,
    ExactEvolver,
    boundary_mass,
    evolve_characteristics,
    evolve_commutator,
    evolve_exact,
    evolve_ordered,
    evolve_trotter,
    evolve_uniform_grid,
    gaussian_ensemble,
)
from liouspace.liouvillian import build_basis_liouvillian, build_grid_liouvillian
from liouspace.potential import PolynomialPotential, SuperPotentialKind
from liouspace.superspace import SuperGrid, gaussian_super_density, moments


def random_hermitian(rng, n):
    h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (h + h.conj().T)


def two_level_density():
    return np.array([[0.7, 0.2 + 0.1j], [0.2 - 0.1j, 0.3]], dtype=complex)


class TestEvolveExact:
    def test_time_zero_is_identity(self):
        rng = np.random.Generator(np.random.Philox(41))
        liou = build_basis_liouvillian(random_hermitian(rng, 4))
        rho0 = random_hermitian(rng, 4)
        np.testing.assert_allclose(evolve_exact(liou, rho0, 0.0), rho0, atol=1e-14)

    def test_two_level_phase(self):
        # H = diag(0, w): rho_eg(t) = exp(-i w t) rho_eg(0)
        omega = 1.3
        liou = build_basis_liouvillian(np.diag([0.0, omega]))
        rho0 = two_level_density()
        for t in (0.3, 1.7):
            rho = evolve_exact(liou, rho0, t)
            assert rho[1, 0] == pytest.approx(
                np.exp(-1j * omega * t) * rho0[1, 0], abs=1e-12
            )

    def test_semigroup(self):
        rng = np.random.Generator(np.random.Philox(42))
        liou = build_basis_liouvillian(random_hermitian(rng, 4))
        rho0 = random_hermitian(rng, 4)
        one = evolve_exact(liou, evolve_exact(liou, rho0, 0.7), 0.5)
        two = evolve_exact(liou, rho0, 1.2)
        np.testing.assert_allclose(one, two, atol=1e-10)

    def test_trace_and_hermiticity_preserved(self):
        grid = SuperGrid.centered(5.0, 16)
        op = build_grid_liouvillian(
            PolynomialPotential.quartic(0.3), grid, SuperPotentialKind.CL
        )
        sd = gaussian_super_density(grid, 0.3, 0.0, 0.8, 0.8)
        rho = evolve_exact(op, sd.values, 2.0)
        assert np.trace(rho).real * grid.dq == pytest.approx(moments(sd).trace, abs=1e-8)
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-8

    @pytest.mark.parametrize("defect, hermitian", [(0.5e-12, True), (2e-12, False)])
    def test_hermiticity_tolerance_selects_path(self, defect, hermitian):
        # relative defect max|L - L^H| / max|L| == defect exactly
        dense = np.diag([1.0, -0.5, 0.25]).astype(complex)
        dense[0, 1] = defect
        ev = ExactEvolver(SimpleNamespace(dense=lambda: dense, hbar=1.0))
        assert ev._hermitian is hermitian  # eigh route, else expm per call

    def test_hbar_enters_evolution(self):
        liou = build_basis_liouvillian(np.diag([0.0, 1.0]), hbar=2.0)
        rho = evolve_exact(liou, two_level_density(), 1.0)
        assert rho[1, 0] == pytest.approx(
            np.exp(-0.5j) * two_level_density()[1, 0], abs=1e-12
        )


def random_generator(rng, n, hermitian):
    """A Hermitian generator, or one with a non-normal non-Hermitian part."""
    gen = random_hermitian(rng, n)
    if not hermitian:
        gen = gen + 0.05 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return gen


def uniform_grid_args(gen, vec0, t_grid):
    return (lambda v: gen @ v, lambda v: gen.conj().T @ v, np.trace(gen), vec0, t_grid)


class TestEvolveUniformGrid:
    @pytest.mark.parametrize("hermitian", [True, False], ids=["hermitian", "non-hermitian"])
    @pytest.mark.parametrize(
        "t_grid",
        [
            np.linspace(0.0, 3.0, 13),
            np.linspace(10.0, 10.2, 3),  # late start: shorter than its offset
            np.linspace(0.0, -1.0, 5),  # backwards in time
            np.linspace(5.0, 1.0, 9),
            [3.0],
            [0.0],
        ],
        ids=["forward", "late-start", "backward", "offset-backward", "one-time", "zero"],
    )
    def test_matches_dense_exponential(self, t_grid, hermitian):
        rng = np.random.Generator(np.random.Philox(31))
        gen = random_generator(rng, 9, hermitian)
        vec0 = rng.normal(size=9) + 1j * rng.normal(size=9)
        hbar = 0.7
        out = evolve_uniform_grid(*uniform_grid_args(gen, vec0, t_grid), hbar)
        assert out.shape == (len(t_grid), 9)
        for t, vec in zip(t_grid, out):
            want = scipy.linalg.expm(-1j * gen * t / hbar) @ vec0
            # rounding of either route grows with the phase ||L|| t / hbar,
            # and with the norm for a non-unitary evolution
            tol = 1e-13 * max(1.0, np.linalg.norm(gen, 2) * abs(t) / hbar)
            tol *= np.linalg.norm(want) / np.linalg.norm(vec0)
            np.testing.assert_allclose(vec, want, rtol=0, atol=tol)

    def test_global_random_state_untouched_and_irrelevant(self):
        rng = np.random.Generator(np.random.Philox(33))
        gen = random_generator(rng, 40, False)
        vec0 = rng.normal(size=40) + 1j * rng.normal(size=40)
        outs = []
        for seed in (1, 2):
            np.random.seed(seed)
            before = np.random.get_state()
            outs.append(evolve_uniform_grid(*uniform_grid_args(gen, vec0, np.linspace(0, 3, 7))))
            after = np.random.get_state()
            assert before[0] == after[0] and before[2:] == after[2:]
            np.testing.assert_array_equal(before[1], after[1])
        np.testing.assert_array_equal(outs[0], outs[1])

    @pytest.mark.parametrize("t_grid", [[0.0, 0.5, 2.0], []])
    def test_uneven_or_empty_grid_rejected(self, t_grid):
        with pytest.raises(ValueError):
            evolve_uniform_grid(lambda v: v, lambda v: v, 1.0, np.ones(1), t_grid)


class TestEvolutionConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [dict(t1=0.0), dict(t1=1.0, t0=2.0), dict(t1=1.0, n_steps=0)],
        ids=["empty-interval", "reversed-interval", "no-steps"],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            EvolutionConfig(**kwargs)


class TestEvolveCommutator:
    def test_matches_dense_exact_evolution(self):
        rng = np.random.Generator(np.random.Philox(51))
        h = random_hermitian(rng, 4)
        rho0 = random_hermitian(rng, 4)
        hbar = 0.6
        ev = ExactEvolver(build_basis_liouvillian(h, hbar=hbar))
        times = np.array([0.0, 0.4, 1.3, -0.7])
        states = evolve_commutator(h, rho0, times, hbar)
        assert states.shape == (4, 4, 4)
        for t, rho in zip(times, states):
            np.testing.assert_allclose(rho, ev.propagate(rho0, t), rtol=0, atol=1e-12)

    def test_keeps_spectrum_of_the_state(self):
        # a unitary conjugation: the eigenvalues of rho are invariant
        rng = np.random.Generator(np.random.Philox(52))
        h = random_hermitian(rng, 5)
        rho0 = random_hermitian(rng, 5)
        for rho in evolve_commutator(h, rho0, np.linspace(0.0, 4.0, 5), 1.0):
            np.testing.assert_allclose(
                np.linalg.eigvalsh(rho), np.linalg.eigvalsh(rho0), rtol=0, atol=1e-12
            )


class TestEvolveOrdered:
    @pytest.mark.parametrize("method", [EvolveMethod.TROTTER_STRANG, EvolveMethod.TROTTER_LIE])
    def test_rejects_non_rk4_method(self, method):
        liou = build_basis_liouvillian(np.diag([0.0, 1.0]).astype(complex))
        cfg = EvolutionConfig(t1=1.0, method=method)
        with pytest.raises(ValueError):
            evolve_ordered(lambda t: liou.dense(), two_level_density(), cfg)

    def test_time_independent_matches_exact(self):
        rng = np.random.Generator(np.random.Philox(43))
        h = random_hermitian(rng, 3)
        liou = build_basis_liouvillian(h)
        rho0 = random_hermitian(rng, 3)
        cfg = EvolutionConfig(t1=1.5, n_steps=256, method=EvolveMethod.RK4)
        got = evolve_ordered(lambda t: liou.dense(), rho0, cfg)
        want = evolve_exact(liou, rho0, 1.5)
        assert np.max(np.abs(got - want)) < 1e-7

    def test_commuting_family_matches_scalar_quadrature(self):
        """L(t) = f(t) L0: the ordered exponential is exp(-i (int f) L0),
        with the integral from an independent adaptive quadrature."""
        from scipy.integrate import quad

        rng = np.random.Generator(np.random.Philox(44))
        h = random_hermitian(rng, 3)
        liou = build_basis_liouvillian(h)
        dense = liou.dense()
        f = lambda t: 1.0 + 0.5 * np.sin(3.0 * t)
        rho0 = random_hermitian(rng, 3)
        cfg = EvolutionConfig(t1=1.0, n_steps=512, method=EvolveMethod.RK4)
        got = evolve_ordered(lambda t: f(t) * dense, rho0, cfg)
        eff_t, _ = quad(f, 0.0, 1.0)
        want = evolve_exact(liou, rho0, eff_t)
        assert np.max(np.abs(got - want)) < 1e-9

    def test_nonzero_start_composes(self):
        # U(2, 0) = U(2, 1) U(1, 0) for a driven, non-commuting family
        l0 = build_basis_liouvillian(np.diag([0.0, 1.0]).astype(complex)).dense()
        l1 = build_basis_liouvillian(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)).dense()
        family = lambda t: l0 + np.sin(2.0 * t) * l1
        rho0 = two_level_density()
        rk4 = EvolveMethod.RK4
        first = evolve_ordered(family, rho0, EvolutionConfig(t1=1.0, n_steps=256, method=rk4))
        second = evolve_ordered(
            family, first, EvolutionConfig(t1=2.0, t0=1.0, n_steps=256, method=rk4)
        )
        whole = evolve_ordered(family, rho0, EvolutionConfig(t1=2.0, n_steps=512, method=rk4))
        np.testing.assert_allclose(second, whole, rtol=0, atol=1e-12)

    def test_sparse_family_matches_dense(self):
        import scipy.sparse

        rng = np.random.Generator(np.random.Philox(47))
        dense = build_basis_liouvillian(random_hermitian(rng, 3)).dense()
        sparse = scipy.sparse.csr_matrix(dense)
        rho0 = random_hermitian(rng, 3)
        cfg = EvolutionConfig(t1=0.8, n_steps=64, method=EvolveMethod.RK4)
        got = evolve_ordered(lambda t: (1.0 + t) * sparse, rho0, cfg)
        want = evolve_ordered(lambda t: (1.0 + t) * dense, rho0, cfg)
        assert got.shape == rho0.shape
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)

    def test_hbar_rescales_time(self):
        # i hbar d/dt rho = L rho: hbar = 2 over time t is hbar = 1 over t / 2
        rng = np.random.Generator(np.random.Philox(48))
        dense = build_basis_liouvillian(random_hermitian(rng, 3)).dense()
        rho0 = random_hermitian(rng, 3)
        rk4 = EvolveMethod.RK4
        slow = evolve_ordered(
            lambda t: dense, rho0, EvolutionConfig(t1=2.0, n_steps=64, method=rk4, hbar=2.0)
        )
        fast = evolve_ordered(
            lambda t: dense, rho0, EvolutionConfig(t1=1.0, n_steps=64, method=rk4)
        )
        np.testing.assert_allclose(slow, fast, rtol=0, atol=1e-13)

    def test_fourth_order_convergence_on_driven_two_level(self):
        h0 = np.diag([0.0, 1.0]).astype(complex)
        h1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        l0 = build_basis_liouvillian(h0).dense()
        l1 = build_basis_liouvillian(h1).dense()
        family = lambda t: l0 + np.sin(2.0 * t) * l1
        rho0 = two_level_density()

        def run(n):
            cfg = EvolutionConfig(t1=2.0, n_steps=n, method=EvolveMethod.RK4)
            return evolve_ordered(family, rho0, cfg)

        ref = run(4096)
        errs = [np.max(np.abs(run(n) - ref)) for n in (16, 32, 64)]
        ratios = [errs[0] / errs[1], errs[1] / errs[2]]
        assert all(13.0 < r < 20.0 for r in ratios)

    def test_rk4_variant(self):
        rng = np.random.Generator(np.random.Philox(46))
        h = random_hermitian(rng, 3)
        liou = build_basis_liouvillian(h)
        rho0 = random_hermitian(rng, 3)
        cfg = EvolutionConfig(t1=1.0, n_steps=200, method=EvolveMethod.RK4)
        got = evolve_ordered(lambda t: liou.dense(), rho0, cfg)
        np.testing.assert_allclose(got, evolve_exact(liou, rho0, 1.0), atol=1e-7)


class TestTrotter:
    def test_free_particle_single_step_ballistic(self):
        grid = SuperGrid.centered(8.0, 64)
        sd = gaussian_super_density(grid, -1.0, 1.2, 0.5, 0.6)
        cfg = EvolutionConfig(t1=1.0, n_steps=1, method=EvolveMethod.TROTTER_STRANG)
        out = evolve_trotter(PolynomialPotential.free(), grid, SuperPotentialKind.CL, sd, cfg)
        m = moments(out)
        assert m.x == pytest.approx(-1.0 + 1.2, abs=1e-4)
        assert m.p == pytest.approx(1.2, abs=1e-6)

    def test_free_mass_changes_transport(self):
        grid = SuperGrid.centered(8.0, 64)
        sd = gaussian_super_density(grid, 0.0, 1.0, 0.5, 0.6)
        cfg = EvolutionConfig(
            t1=1.0, n_steps=1, method=EvolveMethod.TROTTER_STRANG, mass=2.0
        )
        out = evolve_trotter(PolynomialPotential.free(), grid, SuperPotentialKind.QM, sd, cfg)
        assert moments(out).x == pytest.approx(0.5, abs=1e-4)

    def test_harmonic_cl_equals_qm(self):
        grid = SuperGrid.centered(8.0, 64)
        sd = gaussian_super_density(grid, 0.8, 0.0, 0.6, 0.8)
        v = PolynomialPotential.harmonic(1.0)
        cfg = EvolutionConfig(t1=1.5, n_steps=96, method=EvolveMethod.TROTTER_STRANG)
        out_cl = evolve_trotter(v, grid, SuperPotentialKind.CL, sd, cfg)
        out_qm = evolve_trotter(v, grid, SuperPotentialKind.QM, sd, cfg)
        assert np.max(np.abs(out_cl.values - out_qm.values)) < 1e-10

    # the reference is the same discrete generator, so the mild boundary
    # mass on this coarse 16-point grid cancels in the comparison
    @pytest.mark.filterwarnings("ignore:initial density")
    def test_strang_second_order_vs_exact(self):
        grid = SuperGrid.centered(5.0, 16)
        v = PolynomialPotential.quartic(0.5)
        sd = gaussian_super_density(grid, 0.5, 0.0, 0.55, 0.8)
        op = build_grid_liouvillian(v, grid, SuperPotentialKind.CL)
        ref = evolve_exact(op, sd.values, 0.4)
        errs = []
        for n in (16, 32, 64):
            cfg = EvolutionConfig(t1=0.4, n_steps=n, method=EvolveMethod.TROTTER_STRANG)
            out = evolve_trotter(v, grid, SuperPotentialKind.CL, sd, cfg)
            errs.append(np.max(np.abs(out.values - ref)))
        ratios = [errs[0] / errs[1], errs[1] / errs[2]]
        assert all(3.2 < r < 4.8 for r in ratios)

    @pytest.mark.filterwarnings("ignore:initial density")
    def test_lie_first_order_vs_exact(self):
        grid = SuperGrid.centered(5.0, 16)
        v = PolynomialPotential.quartic(0.5)
        sd = gaussian_super_density(grid, 0.5, 0.0, 0.55, 0.8)
        op = build_grid_liouvillian(v, grid, SuperPotentialKind.CL)
        ref = evolve_exact(op, sd.values, 0.4)
        errs = []
        for n in (32, 64, 128):
            cfg = EvolutionConfig(t1=0.4, n_steps=n, method=EvolveMethod.TROTTER_LIE)
            out = evolve_trotter(v, grid, SuperPotentialKind.CL, sd, cfg)
            errs.append(np.max(np.abs(out.values - ref)))
        ratios = [errs[0] / errs[1], errs[1] / errs[2]]
        assert all(1.6 < r < 2.4 for r in ratios)

    def test_conservation_laws(self):
        grid = SuperGrid.centered(8.0, 64)
        v = PolynomialPotential.quartic(0.1)
        sd = gaussian_super_density(grid, 1.0, 0.0, 0.5, 0.6)
        cfg = EvolutionConfig(t1=3.0, n_steps=300, method=EvolveMethod.TROTTER_STRANG)
        out = evolve_trotter(v, grid, SuperPotentialKind.CL, sd, cfg)
        m = moments(out)
        assert abs(m.trace - moments(sd).trace) < 1e-8
        assert m.hermiticity_defect < 1e-8

    @pytest.mark.parametrize("method", [EvolveMethod.TROTTER_STRANG, EvolveMethod.TROTTER_LIE])
    def test_observed_states_equal_separate_runs(self, method):
        grid = SuperGrid.centered(8.0, 64)
        v = PolynomialPotential.quartic(0.1)
        sd = gaussian_super_density(grid, 1.0, 0.0, 0.5, 0.6)
        dt = 0.0625  # a power of 2, so k dt / k == dt exactly
        seen = {}
        cfg = EvolutionConfig(t1=8 * dt, n_steps=8, method=method)
        final = evolve_trotter(
            v, grid, SuperPotentialKind.CL, sd, cfg,
            observe=lambda k, state: seen.setdefault(k, state.values.copy()),
        )
        assert list(seen) == list(range(1, 9))
        assert np.array_equal(seen[8], final.values)
        for k in (1, 3, 8):
            cfg_k = EvolutionConfig(t1=k * dt, n_steps=k, method=method)
            alone = evolve_trotter(v, grid, SuperPotentialKind.CL, sd, cfg_k)
            assert np.array_equal(seen[k], alone.values)

    def test_rejects_rk4_method(self):
        grid = SuperGrid.centered(8.0, 32)
        sd = gaussian_super_density(grid, 0.0, 0.0, 0.6, 0.6)
        cfg = EvolutionConfig(t1=0.1, n_steps=2, method=EvolveMethod.RK4)
        with pytest.raises(ValueError):
            evolve_trotter(PolynomialPotential.free(), grid, SuperPotentialKind.CL, sd, cfg)

    def test_boundary_warning(self):
        grid = SuperGrid.centered(3.0, 32)
        sd = gaussian_super_density(grid, 1.5, 0.0, 0.8, 0.3)
        cfg = EvolutionConfig(t1=0.1, n_steps=2, method=EvolveMethod.TROTTER_LIE)
        with pytest.warns(UserWarning, match="boundary"):
            evolve_trotter(PolynomialPotential.free(), grid, SuperPotentialKind.CL, sd, cfg)
        assert boundary_mass(sd.values) > 1e-10


class TestUnitScaling:
    def test_classical_moments_independent_of_hbar(self):
        """CL evolution is classical mechanics: phase-space moments cannot
        depend on hbar once the representation resolves the state (the
        matched momentum resolution is dp = pi hbar / (2 span), so larger
        hbar needs a larger domain)."""
        v = PolynomialPotential.quartic(0.12)

        def grid_moments(hbar, span, n):
            grid = SuperGrid.centered(span, n)
            sd = gaussian_super_density(grid, 0.9, 0.0, 0.4, 0.6, hbar=hbar)
            cfg = EvolutionConfig(
                t1=0.8, n_steps=160, method=EvolveMethod.TROTTER_STRANG, hbar=hbar
            )
            out = evolve_trotter(v, grid, SuperPotentialKind.CL, sd, cfg)
            m = moments(out, hbar=hbar)
            return np.array([m.x, m.p, m.x2])

        ref = grid_moments(1.0, 8.0, 96)
        np.testing.assert_allclose(grid_moments(0.5, 8.0, 96), ref, atol=1e-6)
        np.testing.assert_allclose(grid_moments(2.0, 16.0, 192), ref, atol=1e-6)

    def test_trotter_matches_exact_at_nonunit_units(self):
        grid = SuperGrid.centered(5.0, 16)
        v = PolynomialPotential.quartic(0.4)
        sd = gaussian_super_density(grid, 0.4, 0.0, 0.55, 0.9, hbar=0.7)
        op = build_grid_liouvillian(
            v, grid, SuperPotentialKind.CL, mass=1.3, hbar=0.7
        )
        ref = evolve_exact(op, sd.values, 0.5)
        cfg = EvolutionConfig(
            t1=0.5, n_steps=512, method=EvolveMethod.TROTTER_STRANG,
            hbar=0.7, mass=1.3,
        )
        with pytest.warns(UserWarning):
            out = evolve_trotter(v, grid, SuperPotentialKind.CL, sd, cfg)
        assert np.max(np.abs(out.values - ref)) < 1e-6


class TestCharacteristics:
    def test_weights_must_normalize(self):
        with pytest.raises(ValueError):
            CharacteristicsEnsemble(
                x=np.zeros(3), p=np.zeros(3), weights=np.ones(3)
            )

    def test_shapes_must_match(self):
        with pytest.raises(ValueError):
            CharacteristicsEnsemble(
                x=np.zeros(3), p=np.zeros(2), weights=np.full(3, 1.0 / 3.0)
            )

    def test_zero_time_returns_ensemble(self):
        ens = gaussian_ensemble(64, 0.2, 0.1, 0.5, 0.5, seed=4)
        assert evolve_characteristics(PolynomialPotential.quartic(0.1), ens, 0.0) is ens

    def test_sobol_rounds_up_to_power_of_two(self):
        ens = gaussian_ensemble(1000, 0.0, 0.0, 1.0, 1.0, seed=6)
        assert ens.x.size == 1024
        assert ens.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_unknown_sampler_rejected(self):
        with pytest.raises(ValueError, match="sampler"):
            gaussian_ensemble(16, 0.0, 0.0, 1.0, 1.0, sampler="halton")

    def test_harmonic_period_returns_to_start(self):
        v = PolynomialPotential.harmonic(1.0)
        ens = gaussian_ensemble(2048, 0.7, -0.2, 0.4, 0.5, seed=1)
        m0 = ens.moments()
        out = evolve_characteristics(v, ens, 2.0 * np.pi, dt=1e-4)
        m1 = out.moments()
        np.testing.assert_allclose(m1, m0, atol=1e-6)

    def test_free_ballistic_exact(self):
        v = PolynomialPotential.free()
        ens = gaussian_ensemble(1024, 0.5, 1.5, 0.3, 0.3, seed=2)
        out = evolve_characteristics(v, ens, 2.0, dt=0.01, mass=2.0)
        mx0, mp0, _ = ens.moments()
        mx1, mp1, _ = out.moments()
        assert mx1 == pytest.approx(mx0 + mp0 * 2.0 / 2.0, abs=1e-12)
        assert mp1 == pytest.approx(mp0, abs=1e-14)

    def test_energy_drift_guard(self):
        v = PolynomialPotential.quartic(1.0)
        ens = gaussian_ensemble(256, 1.5, 0.0, 0.3, 0.3, seed=3)
        with pytest.raises(EnergyDriftExceeded):
            evolve_characteristics(v, ens, 1.0, dt=0.2)

    def test_quartic_matches_grid_cl_evolution(self):
        """The method-of-characteristics ensemble is the independent oracle
        for the grid Liouville dynamics; both routes agree on moments."""
        v = PolynomialPotential.quartic(0.1)
        grid = SuperGrid.centered(8.0, 128)
        sd = gaussian_super_density(grid, 1.0, 0.0, 0.4, 0.6)
        cfg = EvolutionConfig(t1=0.5, n_steps=100, method=EvolveMethod.TROTTER_STRANG)
        out = evolve_trotter(v, grid, SuperPotentialKind.CL, sd, cfg)
        ens = evolve_characteristics(
            v, gaussian_ensemble(2**14, 1.0, 0.0, 0.4, 0.6, seed=5), 0.5, dt=5e-4
        )
        mx, mp, mx2 = ens.moments()
        m = moments(out)
        assert m.x == pytest.approx(mx, abs=2e-3)
        assert m.p == pytest.approx(mp, abs=2e-3)
        assert m.x2 == pytest.approx(mx2, abs=2e-3)

    def test_pseudo_sampler(self):
        ens = gaussian_ensemble(4096, 0.0, 0.0, 1.0, 1.0, seed=9, sampler="pseudo")
        assert ens.x.size == 4096
        assert abs(ens.moments()[0]) < 0.1
