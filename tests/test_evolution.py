import re
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from liouspace.entangle import (
    BipartiteBasis,
    build_bipartite_liouvillian,
    compare_cl_qm_entanglement,
    relative_generator,
)
from liouspace import evolution
from liouspace.errors import EnergyDriftExceeded
from liouspace.evolution import (
    CharacteristicsEnsemble,
    EvolutionConfig,
    EvolveMethod,
    ExactEvolver,
    evolve_characteristics,
    evolve_ordered,
    evolve_trotter,
    gaussian_ensemble,
    grid_series,
)
from liouspace.jaynescummings import (
    JCParams,
    initial_jc_state,
    jc_evolve_first_order,
    jc_liouvillian,
    jc_series,
)
from liouspace.liouvillian import BasisLiouvillian, grid_liouvillian
from liouspace.potential import PolynomialPotential, SuperPotentialKind, super_potential
from liouspace.superprop import PropagatorPoint, dyson_first_order_numeric, free_propagator
from liouspace.superspace import (
    SuperDensity,
    SuperGrid,
    gaussian_super_density,
    moments,
)


def random_hermitian(rng, n):
    h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (h + h.conj().T)


def two_level_density():
    return np.array([[0.7, 0.2 + 0.1j], [0.2 - 0.1j, 0.3]], dtype=complex)


def evolve_exact(liou, rho0, t):
    """rho(t) at the one time t through ``ExactEvolver``."""
    return ExactEvolver(liou).propagate(rho0, [t])[0]


class TestEvolveExact:
    def test_time_zero_is_identity(self):
        rng = np.random.Generator(np.random.Philox(41))
        liou = BasisLiouvillian(random_hermitian(rng, 4))
        rho0 = random_hermitian(rng, 4)
        np.testing.assert_allclose(evolve_exact(liou, rho0, 0.0), rho0, atol=1e-14)

    def test_two_level_phase(self):
        # H = diag(0, w): rho_eg(t) = exp(-i w t) rho_eg(0)
        omega = 1.3
        liou = BasisLiouvillian(np.diag([0.0, omega]))
        rho0 = two_level_density()
        for t in (0.3, 1.7):
            rho = evolve_exact(liou, rho0, t)
            assert rho[1, 0] == pytest.approx(
                np.exp(-1j * omega * t) * rho0[1, 0], abs=1e-12
            )

    def test_semigroup(self):
        rng = np.random.Generator(np.random.Philox(42))
        liou = BasisLiouvillian(random_hermitian(rng, 4))
        rho0 = random_hermitian(rng, 4)
        one = evolve_exact(liou, evolve_exact(liou, rho0, 0.7), 0.5)
        two = evolve_exact(liou, rho0, 1.2)
        np.testing.assert_allclose(one, two, atol=1e-10)

    def test_trace_and_hermiticity_preserved(self):
        grid = SuperGrid.centered(5.0, 16)
        op = grid_liouvillian(PolynomialPotential.quartic(0.3), grid, SuperPotentialKind.CL)
        sd = gaussian_super_density(grid, 0.3, 0.0, 0.8, 0.8)
        rho = evolve_exact(op, sd.values, 2.0)
        assert np.trace(rho).real * grid.dq == pytest.approx(moments(sd).trace, abs=1e-8)
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-8

    @pytest.mark.parametrize("e_kind, eigh_dtypes", [
        ("none", [np.float64]),
        ("real", [np.float64]),
        ("real_in_complex_dtype", [np.complex128]),  # the values decide, not the dtype
        ("tiny_imag", []),  # no tolerance: any imaginary part makes E complex
        ("complex", []),
    ])
    def test_structure_of_e_selects_route(self, monkeypatch, e_kind, eigh_dtypes):
        """E absent or real takes one eigh, of the float64 dense form for
        real h, E and U, and propagate calls no expm; a complex E takes no
        eigh and one expm per output time."""
        rng = np.random.Generator(np.random.Philox(50))
        h = rng.normal(size=(3, 3))
        u, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        e = rng.normal(size=(3, 3))
        e = {"none": None, "real": e, "real_in_complex_dtype": e + 0j,
             "tiny_imag": e + 1e-300j, "complex": e + 0.05j}[e_kind]
        liou = BasisLiouvillian(h + h.T, e, u)
        eighs, expms = [], []
        eigh, expm = np.linalg.eigh, scipy.linalg.expm
        monkeypatch.setattr(np.linalg, "eigh", lambda m: eighs.append(m.dtype) or eigh(m))
        monkeypatch.setattr(scipy.linalg, "expm", lambda m: expms.append(m) or expm(m))
        ExactEvolver(liou).propagate(random_hermitian(rng, 3), [0.3, 1.1])
        assert eighs == eigh_dtypes
        assert len(expms) == (0 if eigh_dtypes else 2)

    @pytest.mark.parametrize("route", ["eigh", "expm"])
    def test_one_call_over_an_uneven_grid_equals_per_time_expm(self, route):
        """One propagate call over an uneven grid that holds t = 0 gives
        scipy's expm of the dense generator at each time: the eigh route of
        a Hermitian generator, and the expm route of the complex-eps
        Jaynes-Cummings one."""
        times = [0.0, 0.3, 1.7, 0.9, -0.4, 2.5]
        if route == "eigh":
            rng = np.random.Generator(np.random.Philox(49))
            liou, rho0 = BasisLiouvillian(random_hermitian(rng, 4)), random_hermitian(rng, 4)
        else:
            p = JCParams(omega_e=1.1, omega=0.9, d_eg=0.08, n_max=3, eps_egeg=0.05 - 0.03j)
            liou, rho0 = jc_liouvillian(p), initial_jc_state("coherent:0.5", p.n_max)
        dense = liou.dense()
        # what selects the route: E absent or real
        assert (liou.e is None or not np.any(np.imag(liou.e))) == (route == "eigh")
        states = ExactEvolver(liou).propagate(rho0, times)
        assert states.shape == (len(times), *rho0.shape)
        for t, rho in zip(times, states):
            want = scipy.linalg.expm(-1j * dense * t) @ rho0.reshape(-1)
            np.testing.assert_allclose(rho.reshape(-1), want, rtol=0, atol=1e-12)


PROGRAM_BUILDERS = {
    "grid_cl": lambda: grid_liouvillian(
        PolynomialPotential.quartic(0.3), SuperGrid.centered(4.0, 8), SuperPotentialKind.CL
    ),
    "grid_qm": lambda: grid_liouvillian(
        PolynomialPotential.quartic(0.3), SuperGrid.centered(4.0, 8), SuperPotentialKind.QM
    ),
    "relative": lambda: relative_generator(BipartiteBasis(n_levels=5), 0.05),
    "bipartite_cl": lambda: build_bipartite_liouvillian(BipartiteBasis(n_levels=3), 0.05, "cl"),
    "bipartite_qm": lambda: build_bipartite_liouvillian(BipartiteBasis(n_levels=3), 0.05, "qm"),
    "jc_real_eps": lambda: jc_liouvillian(
        JCParams(omega_e=1.1, omega=0.9, d_eg=0.08, n_max=3, eps_egeg=0.05)
    ),
    "jc_complex_eps": lambda: jc_liouvillian(
        JCParams(omega_e=1.1, omega=0.9, d_eg=0.08, n_max=3, eps_egeg=0.05 - 0.03j)
    ),
}


@pytest.mark.parametrize("name", PROGRAM_BUILDERS)
def test_structure_of_e_is_hermiticity_of_every_program_generator(name):
    """For each generator the package builds, the structural rule that
    picks ExactEvolver's route (E absent or real) holds exactly when the
    dense form is Hermitian to rounding."""
    liou = PROGRAM_BUILDERS[name]()
    dense = liou.dense()
    defect = np.max(np.abs(dense - dense.conj().T)) / np.max(np.abs(dense))
    structural = liou.e is None or not np.any(np.imag(liou.e))
    assert structural == (name != "jc_complex_eps")
    assert structural == (defect <= 1e-13)


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


def e_over_hbar(e, hbar):
    """E / hbar, or None without E: the basis routes work in hbar = 1, so
    i hbar d/dt rho = L rho takes h / hbar and E / hbar."""
    return None if e is None else e / hbar


def assert_dense_exponential(out, gen, rho0, t_grid, hbar):
    """Each state of ``out`` is exp(-i gen t / hbar) rho0 at its t."""
    for t, rho in zip(t_grid, out):
        want = scipy.linalg.expm(-1j * gen * t / hbar) @ rho0.reshape(-1)
        # rounding of either route grows with the phase ||L|| t / hbar,
        # and with the norm for a non-unitary evolution
        tol = 1e-13 * max(1.0, np.linalg.norm(gen, 2) * abs(t) / hbar)
        tol *= np.linalg.norm(want) / np.linalg.norm(rho0)
        np.testing.assert_allclose(rho.reshape(-1), want, rtol=0, atol=tol)


def propagate(h, rho0, t_grid, e=None, u=None):
    """The states of ``BasisLiouvillian(h, e, u)`` over t_grid."""
    return ExactEvolver(BasisLiouvillian(h, e, u)).propagate(rho0, t_grid)


class TestPropagate:
    @pytest.mark.parametrize("e_kind", ["none", "real"])
    @pytest.mark.parametrize(
        "t_grid",
        [
            np.linspace(0.0, 3.0, 13),
            np.linspace(10.0, 10.2, 3),  # late start: shorter than its offset
            np.linspace(0.0, -1.0, 5),  # backwards in time
            np.linspace(5.0, 1.0, 9),
            [3.0],
            [0.0],
            [0.0, 0.5, 2.0, -1.0],  # uneven
        ],
        ids=["forward", "late-start", "backward", "offset-backward", "one-time", "zero",
             "uneven"],
    )
    def test_matches_dense_exponential(self, t_grid, e_kind):
        rng = np.random.Generator(np.random.Philox(31))
        h, e, u = random_structured(rng, 3, e_kind)
        gen = BasisLiouvillian(h, e, u).dense()  # checked against kron in test_liouvillian
        rho0 = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        hbar = 0.7
        out = propagate(h / hbar, rho0, t_grid, e_over_hbar(e, hbar), u)
        assert out.shape == (len(t_grid), 3, 3)
        assert_dense_exponential(out, gen, rho0, t_grid, hbar)

    def test_zero_state_stays_zero(self):
        rng = np.random.Generator(np.random.Philox(37))
        h, e, u = random_structured(rng, 4, "real")
        out = propagate(h, np.zeros((4, 4)), np.linspace(0.0, 1.0, 3), e, u)
        np.testing.assert_array_equal(out, np.zeros((3, 4, 4)))

    def test_global_random_state_untouched_and_irrelevant(self):
        rng = np.random.Generator(np.random.Philox(33))
        h, e, u = random_structured(rng, 7, "real")
        rho0 = rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
        outs = []
        for seed in (1, 2):
            np.random.seed(seed)
            before = np.random.get_state()
            outs.append(propagate(h, rho0, np.linspace(0, 3, 7), e, u))
            after = np.random.get_state()
            assert before[0] == after[0] and before[2:] == after[2:]
            np.testing.assert_array_equal(before[1], after[1])
        np.testing.assert_array_equal(outs[0], outs[1])

    @pytest.mark.parametrize("e_kind", ["none", "real", "complex"])
    def test_empty_grid_gives_no_states(self, e_kind):
        rng = np.random.Generator(np.random.Philox(39))
        h, e, u = random_structured(rng, 3, e_kind)
        states = propagate(h, np.eye(3), [], e, u)
        assert states.shape == (0, 3, 3)

    def test_keeps_spectrum_of_the_state_without_e(self):
        # a unitary conjugation: the eigenvalues of rho are invariant
        rng = np.random.Generator(np.random.Philox(52))
        h = random_hermitian(rng, 5)
        rho0 = random_hermitian(rng, 5)
        for rho in propagate(h, rho0, np.linspace(0.0, 4.0, 5)):
            np.testing.assert_allclose(
                np.linalg.eigvalsh(rho), np.linalg.eigvalsh(rho0), rtol=0, atol=1e-12
            )


class TestEvolutionConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [dict(t1=0.0), dict(t1=-1.0), dict(t1=1.0, n_steps=0),
         dict(t1=1.0, hbar=0.0), dict(t1=1.0, mass=-1.0)],
        ids=["empty-interval", "negative-end", "no-steps", "zero-hbar", "negative-mass"],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            EvolutionConfig(**kwargs)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["nan", "inf"])
@pytest.mark.parametrize(
    "build",
    [
        lambda bad: EvolutionConfig(t1=bad),
        lambda bad: EvolutionConfig(t1=1.0, hbar=bad),
        lambda bad: EvolutionConfig(t1=1.0, mass=bad),
        lambda bad: BipartiteBasis(n_levels=4, omega=bad),
        lambda bad: PropagatorPoint(0.0, 0.0, 0.0, 0.0, 1.0, mass=bad),
        lambda bad: PropagatorPoint(0.0, 0.0, 0.0, 0.0, 1.0, hbar=bad),
        lambda bad: SuperGrid(0.0, bad, 8),
        lambda bad: gaussian_super_density(
            SuperGrid.centered(1.0, 8), 0.0, 0.0, 0.5, 1.0, hbar=bad
        ),
        lambda bad: free_propagator(0.0, 0.0, bad),
        lambda bad: dyson_first_order_numeric(
            PropagatorPoint(0.0, 0.0, 0.0, 0.0, bad), 0.1, SuperPotentialKind.CL
        ),
        lambda bad: jc_evolve_first_order(
            JCParams(omega_e=1.0, omega=1.0, d_eg=0.1, n_max=2), initial_jc_state("e0", 2), bad
        ),
    ],
    ids=[
        "config-t1", "config-hbar", "config-mass", "basis-omega", "point-mass", "point-hbar",
        "grid-q-max", "gaussian-hbar", "free-propagator-duration", "dyson-duration",
        "jc-first-order-t",
    ],
)
def test_sign_guards_refuse_nan(build, bad):
    with pytest.raises(ValueError):
        build(bad)


class TestOutputTimes:
    SERIES = {
        "jc-real-eps": lambda t_end, steps: jc_series(
            JCParams(omega_e=1.0, omega=1.0, d_eg=0.05, n_max=4, eps_egeg=0.01),
            initial_jc_state("e0", 4), t_end, steps,
        ),
        "jc-complex-eps": lambda t_end, steps: jc_series(
            JCParams(omega_e=1.0, omega=1.0, d_eg=0.05, n_max=4, eps_egeg=0.01 - 0.02j),
            initial_jc_state("e0", 4), t_end, steps,
        ),
        "bipartite": lambda t_end, steps: compare_cl_qm_entanglement(
            BipartiteBasis(n_levels=6), 3e-4, 0.0, 0.0, t_end, steps
        ),
    }

    @pytest.mark.parametrize("series", SERIES)
    @pytest.mark.parametrize(
        "t_end, steps, message",
        [
            (0.0, 4, "t_end=0.0 must be finite and > 0"),
            (-1.0, 4, "t_end=-1.0 must be finite and > 0"),
            (float("nan"), 4, "t_end=nan must be finite and > 0"),
            (float("inf"), 4, "t_end=inf must be finite and > 0"),
            (1.0, 0, "steps=0 must be >= 1"),
            (1.0, -1, "steps=-1 must be >= 1"),
        ],
    )
    def test_series_refuse_bad_output_times(self, series, t_end, steps, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            self.SERIES[series](t_end, steps)

    @pytest.mark.parametrize("series", SERIES)
    def test_series_report_evenly_spaced_times_from_zero(self, series):
        cols, _, _ = self.SERIES[series](1.0, 4)
        np.testing.assert_array_equal(cols["t"], np.linspace(0.0, 1.0, 5))


class TestEvolveOrdered:
    def test_rejects_non_rk4_method(self):
        liou = BasisLiouvillian(np.diag([0.0, 1.0]).astype(complex))
        cfg = EvolutionConfig(t1=1.0, method=EvolveMethod.TROTTER_STRANG)
        with pytest.raises(ValueError):
            evolve_ordered(lambda t: liou.dense(), two_level_density(), cfg)

    def test_time_independent_matches_exact(self):
        rng = np.random.Generator(np.random.Philox(43))
        h = random_hermitian(rng, 3)
        liou = BasisLiouvillian(h)
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
        liou = BasisLiouvillian(h)
        dense = liou.dense()
        f = lambda t: 1.0 + 0.5 * np.sin(3.0 * t)
        rho0 = random_hermitian(rng, 3)
        cfg = EvolutionConfig(t1=1.0, n_steps=512, method=EvolveMethod.RK4)
        got = evolve_ordered(lambda t: f(t) * dense, rho0, cfg)
        eff_t, _ = quad(f, 0.0, 1.0)
        want = evolve_exact(liou, rho0, eff_t)
        assert np.max(np.abs(got - want)) < 1e-9

    def test_sparse_family_matches_dense(self):
        import scipy.sparse

        rng = np.random.Generator(np.random.Philox(47))
        dense = BasisLiouvillian(random_hermitian(rng, 3)).dense()
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
        dense = BasisLiouvillian(random_hermitian(rng, 3)).dense()
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
        l0 = BasisLiouvillian(h0).dense()
        l1 = BasisLiouvillian(h1).dense()
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
        liou = BasisLiouvillian(h)
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
    def test_strang_second_order_vs_exact(self):
        grid = SuperGrid.centered(5.0, 16)
        v = PolynomialPotential.quartic(0.5)
        sd = gaussian_super_density(grid, 0.5, 0.0, 0.55, 0.8)
        op = grid_liouvillian(v, grid, SuperPotentialKind.CL)
        ref = evolve_exact(op, sd.values, 0.4)
        errs = []
        for n in (16, 32, 64):
            cfg = EvolutionConfig(t1=0.4, n_steps=n, method=EvolveMethod.TROTTER_STRANG)
            out = evolve_trotter(v, grid, SuperPotentialKind.CL, sd, cfg)
            errs.append(np.max(np.abs(out.values - ref)))
        ratios = [errs[0] / errs[1], errs[1] / errs[2]]
        assert all(3.2 < r < 4.8 for r in ratios)

    def test_qm_strang_second_order_vs_eigenbasis_at_128_points(self):
        """QM is a unitary conjugation, so h = U diag(w) U' gives the exact
        rho(t) = U ((e^{-iwt} e^{iwt}') o (U' rho0 U)) U' on a grid whose
        dense n^2 x n^2 form is past the cap; Strang at the evolve defaults
        converges to it as dt^2."""
        grid = SuperGrid.centered(8.0, 128)
        v = PolynomialPotential.quartic(0.1)
        kind = SuperPotentialKind.QM
        sd = gaussian_super_density(grid, 1.0, 0.0, 0.4, 0.6)
        t = 0.5
        w, u = np.linalg.eigh(grid_liouvillian(v, grid, kind).h)
        phase = np.exp(-1j * w * t)
        exact = u @ (np.outer(phase, phase.conj()) * (u.T @ sd.values @ u)) @ u.T
        scale = np.max(np.abs(exact))
        errs = []
        for n_steps in (100, 200):
            out = evolve_trotter(v, grid, kind, sd, EvolutionConfig(t1=t, n_steps=n_steps))
            errs.append(np.max(np.abs(out.values - exact)) / scale)
        assert 3.2 <= errs[0] / errs[1] <= 4.8
        assert errs[1] < 2e-6
        assert moments(out).x == pytest.approx(
            moments(SuperDensity(grid, exact)).x, abs=1e-7
        )

    def test_conservation_laws(self):
        grid = SuperGrid.centered(8.0, 64)
        v = PolynomialPotential.quartic(0.1)
        sd = gaussian_super_density(grid, 1.0, 0.0, 0.5, 0.6)
        cfg = EvolutionConfig(t1=3.0, n_steps=300, method=EvolveMethod.TROTTER_STRANG)
        out = evolve_trotter(v, grid, SuperPotentialKind.CL, sd, cfg)
        m = moments(out)
        assert abs(m.trace - moments(sd).trace) < 1e-8
        assert m.hermiticity_defect < 1e-8

    def test_observed_states_equal_separate_runs(self):
        grid = SuperGrid.centered(8.0, 64)
        v = PolynomialPotential.quartic(0.1)
        sd = gaussian_super_density(grid, 1.0, 0.0, 0.5, 0.6)
        dt = 0.0625  # a power of 2, so k dt / k == dt exactly
        seen = {}
        cfg = EvolutionConfig(t1=8 * dt, n_steps=8)
        final = evolve_trotter(
            v, grid, SuperPotentialKind.CL, sd, cfg,
            observe=lambda k, state: seen.setdefault(k, state.values.copy()),
        )
        assert list(seen) == list(range(1, 9))
        assert np.array_equal(seen[8], final.values)
        for k in (1, 3, 8):
            cfg_k = EvolutionConfig(t1=k * dt, n_steps=k)
            alone = evolve_trotter(v, grid, SuperPotentialKind.CL, sd, cfg_k)
            assert np.array_equal(seen[k], alone.values)

    @pytest.mark.parametrize("kind", [SuperPotentialKind.CL, SuperPotentialKind.QM])
    def test_steps_match_textbook_strang(self, kind):
        grid = SuperGrid.centered(8.0, 64)
        v = PolynomialPotential.quartic(0.1)
        sd = gaussian_super_density(grid, 1.0, 0.0, 0.5, 0.6)
        cfg = EvolutionConfig(t1=0.5, n_steps=20)
        seen = {}
        evolve_trotter(
            v, grid, kind, sd, cfg,
            observe=lambda k, state: seen.setdefault(k, state.values.copy()),
        )
        # reference: each step as half * ifft2(kin * fft2(half * rho))
        dt = cfg.t1 / cfg.n_steps
        k2 = (2.0 * np.pi * np.fft.fftfreq(grid.n, grid.dq)) ** 2
        kin = np.exp(-0.5j * dt * (k2[:, None] - k2[None, :]))
        pts = grid.points
        half = np.exp(-0.5j * dt * super_potential(v, kind, pts[:, None], pts[None, :]))
        rho = sd.values
        for k in range(1, cfg.n_steps + 1):
            rho = half * np.fft.ifft2(kin * np.fft.fft2(half * rho))
            assert np.max(np.abs(seen[k] - rho)) <= 1e-13 * np.max(np.abs(rho))

    def test_observed_state_is_read_only(self):
        grid = SuperGrid.centered(8.0, 32)
        sd = gaussian_super_density(grid, 1.0, 0.0, 0.5, 0.6)
        seen = []

        def observe(k, state):
            with pytest.raises(ValueError):
                state.values[0, 0] = 0.0
            seen.append(k)

        evolve_trotter(
            PolynomialPotential.quartic(0.1), grid, SuperPotentialKind.CL, sd,
            EvolutionConfig(t1=0.1, n_steps=2), observe=observe,
        )
        assert seen == [1, 2]

    @pytest.mark.parametrize("kind", [SuperPotentialKind.CL, SuperPotentialKind.QM])
    def test_observed_run_holds_four_arrays_at_most(self, kind):
        """Phases, state and the observer's moments together peak at four
        n x n complex arrays above entry, the returned state included."""
        n = 128
        grid = SuperGrid.centered(8.0, n)
        sd = gaussian_super_density(grid, 1.0, 0.0, 0.5, 0.6)
        moments(sd)  # the derivative matrix it caches is not part of a run
        tracemalloc.start()
        try:
            evolve_trotter(
                PolynomialPotential.quartic(0.1), grid, kind, sd,
                EvolutionConfig(t1=0.1, n_steps=4), observe=lambda k, state: moments(state),
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * n * n * np.dtype(complex).itemsize

    def test_observe_every_observes_multiples_only(self):
        grid = SuperGrid.centered(8.0, 64)
        v = PolynomialPotential.quartic(0.1)
        sd = gaussian_super_density(grid, 1.0, 0.0, 0.5, 0.6)
        dt = 0.0625  # a power of 2, so k dt / k == dt exactly
        seen = {}
        evolve_trotter(
            v, grid, SuperPotentialKind.CL, sd, EvolutionConfig(t1=9 * dt, n_steps=9),
            observe=lambda k, state: seen.setdefault(k, state.values.copy()),
            observe_every=3,
        )
        assert list(seen) == [3, 6, 9]
        for k, state in seen.items():
            alone = evolve_trotter(
                v, grid, SuperPotentialKind.CL, sd, EvolutionConfig(t1=k * dt, n_steps=k)
            )
            assert np.array_equal(state, alone.values)

    @pytest.mark.parametrize("every", [0, -3])
    def test_rejects_observe_every_below_one(self, every):
        grid = SuperGrid.centered(8.0, 32)
        sd = gaussian_super_density(grid, 0.0, 0.0, 0.6, 0.6)
        cfg = EvolutionConfig(t1=0.1, n_steps=2)
        with pytest.raises(ValueError, match="observe_every"):
            evolve_trotter(
                PolynomialPotential.free(), grid, SuperPotentialKind.CL, sd, cfg,
                observe=lambda k, state: None, observe_every=every,
            )

    def test_leaves_initial_state_unchanged(self):
        # the FFTs overwrite their input; the caller's array must not be it
        grid = SuperGrid.centered(8.0, 64)
        sd = gaussian_super_density(grid, 1.0, 0.0, 0.5, 0.6)
        before = sd.values.copy()
        cfg = EvolutionConfig(t1=0.5, n_steps=4)
        evolve_trotter(
            PolynomialPotential.quartic(0.1), grid, SuperPotentialKind.CL, sd, cfg,
            observe=lambda k, state: None,
        )
        assert np.array_equal(sd.values, before)

    def test_rejects_rk4_method(self):
        grid = SuperGrid.centered(8.0, 32)
        sd = gaussian_super_density(grid, 0.0, 0.0, 0.6, 0.6)
        cfg = EvolutionConfig(t1=0.1, n_steps=2, method=EvolveMethod.RK4)
        with pytest.raises(ValueError):
            evolve_trotter(PolynomialPotential.free(), grid, SuperPotentialKind.CL, sd, cfg)

    def test_boundary_mass_is_a_moment(self):
        grid = SuperGrid.centered(3.0, 32)
        sd = gaussian_super_density(grid, 1.5, 0.0, 0.8, 0.3)
        cfg = EvolutionConfig(t1=0.1, n_steps=2, method=EvolveMethod.TROTTER_STRANG)
        out = evolve_trotter(PolynomialPotential.free(), grid, SuperPotentialKind.CL, sd, cfg)
        assert moments(sd).boundary_mass > 1e-10
        assert moments(out).boundary_mass > 1e-10


class TestGridSeries:
    @staticmethod
    def case(kind):
        grid = SuperGrid.centered(8.0, 64)
        sd = gaussian_super_density(grid, 1.0, 0.3, 0.5, 1.0, hbar=0.8)
        cfg = EvolutionConfig(t1=0.6, n_steps=12, hbar=0.8, mass=1.3)
        return PolynomialPotential.quartic(0.1), grid, kind, sd, cfg

    @pytest.mark.parametrize("kind", [SuperPotentialKind.CL, SuperPotentialKind.QM])
    def test_equals_a_hand_rolled_observer(self, kind):
        """The columns are the moments an observer written out by hand reads,
        t = 0 included, and the margins their worst guard values."""
        v, grid, kind, sd, cfg = self.case(kind)
        rows = [(0.0, moments(sd, cfg.hbar))]

        def observe(k, state):
            rows.append((cfg.t1 * k / cfg.n_steps, moments(state, cfg.hbar)))

        final = evolve_trotter(v, grid, kind, sd, cfg, observe=observe, observe_every=3)
        columns, path, margins, state = grid_series(v, grid, kind, sd, cfg, 4)
        assert path == "trotter_strang"
        assert list(columns) == ["t", "trace", "x_mean", "p_mean", "x2_mean", "purity"]
        want = [(t, m.trace, m.x, m.p, m.x2, m.purity) for t, m in rows]
        assert np.array_equal(np.column_stack(list(columns.values())), want)
        assert margins == {
            "max_trace_drift": max(abs(m.trace - 1.0) for _, m in rows),
            "max_hermiticity_defect": max(m.hermiticity_defect for _, m in rows),
            "max_boundary_mass": max(m.boundary_mass for _, m in rows),
        }
        assert all(type(value) is float for value in margins.values())
        assert np.array_equal(state.values, final.values)

    def test_nan_row_reaches_every_margin(self, monkeypatch):
        """A NaN superpotential leaves the t = 0 row finite and every later
        one NaN.  Python's max would return the first row's value; each
        margin keeps the NaN."""
        def nan_potential(v, kind, q_bra, q_ket):
            return np.full(np.broadcast(q_bra, q_ket).shape, np.nan)

        monkeypatch.setattr(evolution, "super_potential", nan_potential)
        columns, _, margins, _ = grid_series(*self.case(SuperPotentialKind.CL), 4)
        assert np.isfinite(columns["trace"][0]) and np.all(np.isnan(columns["trace"][1:]))
        assert len(margins) == 3 and all(np.isnan(value) for value in margins.values())

    @pytest.mark.parametrize("n_out", [0, -4, 5, 13, 24])
    def test_refuses_n_out_that_does_not_divide_the_steps(self, n_out):
        with pytest.raises(ValueError) as err:
            grid_series(*self.case(SuperPotentialKind.CL), n_out)
        assert str(err.value) == f"n_out={n_out} must lie in 1..steps and divide steps=12"


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
        op = grid_liouvillian(v, grid, SuperPotentialKind.CL, mass=1.3, hbar=0.7)
        ref = evolve_exact(op, sd.values, 0.5)
        cfg = EvolutionConfig(
            t1=0.5, n_steps=512, method=EvolveMethod.TROTTER_STRANG,
            hbar=0.7, mass=1.3,
        )
        out = evolve_trotter(v, grid, SuperPotentialKind.CL, sd, cfg)
        assert np.max(np.abs(out.values - ref)) < 1e-6


class TestCharacteristics:
    def test_shapes_must_match(self):
        with pytest.raises(ValueError):
            CharacteristicsEnsemble(x=np.zeros(3), p=np.zeros(2))

    def test_zero_time_returns_ensemble(self):
        ens = gaussian_ensemble(64, 0.2, 0.1, 0.5, 0.5, seed=4)
        assert evolve_characteristics(PolynomialPotential.quartic(0.1), ens, 0.0, dt=0.01) is ens

    @pytest.mark.parametrize(
        "sigma_x, sigma_p",
        [(-0.4, 0.6), (0.0, 0.6), (np.inf, 0.6), (np.nan, 0.6), (0.4, -0.6), (0.4, 0.0),
         (0.4, np.inf)],
    )
    def test_widths_must_be_finite_and_positive(self, sigma_x, sigma_p):
        with pytest.raises(ValueError, match="must be finite and > 0"):
            gaussian_ensemble(64, 1.0, 0.0, sigma_x, sigma_p)

    @pytest.mark.parametrize(
        "t, dt, message",
        [
            (-1.0, 0.01, "t=-1.0 must be finite and >= 0"),
            (np.nan, 0.01, "t=nan must be finite and >= 0"),
            (np.inf, 0.01, "t=inf must be finite and >= 0"),
            (1.0, 0.0, "dt=0.0 must be finite and > 0"),
            (1.0, -0.01, "dt=-0.01 must be finite and > 0"),
            (1.0, np.nan, "dt=nan must be finite and > 0"),
            (1.0, np.inf, "dt=inf must be finite and > 0"),
            (0.0, 0.0, "dt=0.0 must be finite and > 0"),
        ],
    )
    def test_time_and_step_must_be_finite(self, t, dt, message):
        ens = gaussian_ensemble(64, 1.0, 0.0, 0.4, 0.6, seed=4)
        with pytest.raises(ValueError, match=re.escape(message)):
            evolve_characteristics(PolynomialPotential.quartic(0.1), ens, t, dt)

    def test_sobol_rounds_up_to_power_of_two(self):
        ens = gaussian_ensemble(1000, 0.0, 0.0, 1.0, 1.0, seed=6)
        assert ens.x.size == ens.p.size == 1024

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
        out = evolve_characteristics(v, ens, 2.0, dt=0.01)
        mx0, mp0, _ = ens.moments()
        mx1, mp1, _ = out.moments()
        assert mx1 == pytest.approx(mx0 + mp0 * 2.0, abs=1e-12)
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
