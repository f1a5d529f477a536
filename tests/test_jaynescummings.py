import numpy as np
import pytest
from scipy.integrate import quad

from liouspace.errors import NotConverged, NotFactorized, TruncationLeak
from liouspace.jaynescummings import (
    ATOM_E,
    ATOM_G,
    HydrogenState,
    JCParams,
    _radial,
    atom_field_factors,
    build_jc_hamiltonian,
    check_fock_truncation,
    coherent_field_density,
    coulomb_superop_element,
    excited_population,
    hydrogen_psi,
    evolve_jc,
    initial_jc_state,
    jc_evolve_first_order,
    jc_element_table,
    jc_liouvillian,
)
from liouspace.evolution import ExactEvolver
from liouspace.liouvillian import build_basis_liouvillian

S1 = HydrogenState(1, 0, 0)
S2 = HydrogenState(2, 0, 0)
P2 = HydrogenState(2, 1, 0)


def s_state_quadrature_oracle(na, nb, nc, nd, e2=1.0, r_max=60.0):
    """Deterministic reduction of the 6-d Coulomb superoperator element for
    s orbitals: the angular integral of 4 e2 (Q^2-q^2)/|Q+q|^3 collapses to
    the kernel 4 e2 (s [r>s] - r [r<s]); the potential terms factorize."""
    f_bra = lambda r: _radial(na, 0, np.atleast_1d(r))[0] * _radial(nc, 0, np.atleast_1d(r))[0]
    f_ket = lambda s: _radial(nb, 0, np.atleast_1d(s))[0] * _radial(nd, 0, np.atleast_1d(s))[0]
    inner_lo = lambda r: quad(lambda s: s**2 * f_ket(s), 0, r, limit=200)[0]
    inner_hi = lambda r: quad(lambda s: s * f_ket(s), r, r_max, limit=200)[0]
    t1 = quad(lambda r: r * f_bra(r) * inner_lo(r), 0, r_max, limit=200)[0]
    t2 = quad(lambda r: r**2 * f_bra(r) * inner_hi(r), 0, r_max, limit=200)[0]
    ov_bra = quad(lambda r: r**2 * f_bra(r), 0, r_max)[0]
    ov_ket = quad(lambda s: s**2 * f_ket(s), 0, r_max)[0]
    inv_bra = quad(lambda r: r * f_bra(r), 0, r_max)[0]
    inv_ket = quad(lambda s: s * f_ket(s), 0, r_max)[0]
    return 4 * e2 * (t1 - t2) + e2 * inv_bra * ov_ket - e2 * ov_bra * inv_ket


class TestHamiltonian:
    def test_uncoupled_is_diagonal(self):
        p = JCParams(omega_e=1.3, omega=0.9, d_eg=0.0, n_max=3)
        h = build_jc_hamiltonian(p)
        want = np.diag(
            [0.9 * (n + 0.5) for n in range(4)]
            + [1.3 + 0.9 * (n + 0.5) for n in range(4)]
        )
        np.testing.assert_allclose(h, want, atol=1e-14)

    def test_coupling_matrix_element(self):
        # <e,n| H |g,n+1> = i d sqrt(n+1), standard Fock ladder algebra
        p = JCParams(omega_e=1.0, omega=1.0, d_eg=0.07, n_max=3)
        blocks = build_jc_hamiltonian(p).reshape(2, 4, 2, 4)
        for n in range(3):
            assert blocks[ATOM_E, n, ATOM_G, n + 1] == pytest.approx(
                1j * 0.07 * np.sqrt(n + 1), abs=1e-14
            )

    def test_empty_fock_space_rejected(self):
        with pytest.raises(ValueError):
            JCParams(omega_e=1.0, omega=1.0, d_eg=0.1, n_max=0)

    @pytest.mark.parametrize("eps_egeg", [0.3, 0.01 - 0.02j, 0.05 + 0.05j])
    def test_element_table_keeps_trace_and_hermiticity(self, eps_egeg):
        table = jc_element_table(
            JCParams(omega_e=1.0, omega=1.0, d_eg=0.1, n_max=2, eps_egeg=eps_egeg)
        )
        # trace sum rule sum_a E_{aa,cd} = 0, from E(Q, Q) = 0
        np.testing.assert_array_equal(np.einsum("aacd->cd", table), 0.0)
        # E_{ab,cd} = -conj(E_{ba,dc}) keeps rho Hermitian
        np.testing.assert_array_equal(table, -table.transpose(1, 0, 3, 2).conj())

    def test_hermitian_exactly(self):
        p = JCParams(omega_e=1.2, omega=0.8, d_eg=0.3, n_max=5)
        h = build_jc_hamiltonian(p)
        assert np.max(np.abs(h - h.conj().T)) == 0.0


class TestExactEvolution:
    def test_vacuum_rabi_oscillation(self):
        # resonant doublet {|e,0>, |g,1>}: P_e(t) = cos^2(d t)
        p = JCParams(omega_e=1.0, omega=1.0, d_eg=0.05, n_max=4)
        rho0 = initial_jc_state("e0", p.n_max)
        times = np.linspace(0.0, np.pi / 0.05, 13)
        for t, rho in zip(times, evolve_jc(p, rho0, times)):
            assert excited_population(rho, p.n_max) == pytest.approx(
                np.cos(0.05 * t) ** 2, abs=1e-6
            )

    def test_superoperator_acts_as_coherence_modifier(self):
        # d = 0, E_egeg = i kappa: i d/dt rho_eg = (w_e + i kappa) rho_eg,
        # so |rho_eg(t)| = exp(kappa t) |rho_eg(0)|
        kappa = -0.3
        p = JCParams(omega_e=1.0, omega=0.8, d_eg=0.0, n_max=2, eps_egeg=1j * kappa)
        atom = np.array([[0.5, 0.3], [0.3, 0.5]], dtype=complex)
        rho0 = np.kron(atom, np.diag([1.0, 0.0, 0.0]).astype(complex))
        for t in (0.5, 1.5):
            rho = evolve_jc(p, rho0, [t])[0]
            got = abs(rho.reshape(2, 3, 2, 3)[ATOM_E, 0, ATOM_G, 0])
            assert got == pytest.approx(0.3 * np.exp(kappa * t), abs=1e-10)

    def test_trace_conserved_over_long_run(self):
        p = JCParams(
            omega_e=1.1, omega=0.9, d_eg=0.08, n_max=4, eps_egeg=0.05 * (1 + 1j)
        )
        rho0 = initial_jc_state("e1", p.n_max)
        for rho in evolve_jc(p, rho0, np.linspace(0.0, 10.0, 11)):
            assert abs(np.trace(rho).real - 1.0) < 1e-8
            assert np.max(np.abs(rho - rho.conj().T)) < 1e-8

    def test_superoperator_leaves_diagonal_blocks_alone(self):
        # with d = 0 the atom-diagonal blocks are identical with and
        # without the superoperator
        base = dict(omega_e=1.2, omega=0.7, d_eg=0.0, n_max=3)
        atom = np.array([[0.55, 0.2 - 0.3j], [0.2 + 0.3j, 0.45]])
        rho0 = np.kron(atom, coherent_field_density(0.5, 3))
        rho_plain = evolve_jc(JCParams(**base), rho0, [2.0])[0]
        rho_eps = evolve_jc(JCParams(**base, eps_egeg=0.4 + 0.2j), rho0, [2.0])[0]
        f = 4
        for a in (ATOM_G, ATOM_E):
            block_plain = rho_plain.reshape(2, f, 2, f)[a, :, a, :]
            block_eps = rho_eps.reshape(2, f, 2, f)[a, :, a, :]
            np.testing.assert_allclose(block_plain, block_eps, atol=1e-12)

    def test_liouvillian_hermitian_iff_no_superoperator(self):
        p0 = JCParams(omega_e=1.0, omega=1.0, d_eg=0.1, n_max=2)
        assert jc_liouvillian(p0).s_add is None
        p1 = JCParams(omega_e=1.0, omega=1.0, d_eg=0.1, n_max=2, eps_egeg=0.1j)
        assert jc_liouvillian(p1).s_add is not None

    @pytest.mark.parametrize("eps_egeg", [0.0, 0.01, 0.3, 0.01 - 0.02j, 0.05 + 0.05j])
    @pytest.mark.parametrize("n_max", [3, 6])
    def test_structured_route_matches_dense(self, n_max, eps_egeg):
        p = JCParams(omega_e=1.1, omega=0.9, d_eg=0.08, n_max=n_max, eps_egeg=eps_egeg)
        atom = np.array([[0.4, 0.2 - 0.3j], [0.2 + 0.3j, 0.6]])
        rho0 = np.kron(atom, coherent_field_density(0.5, n_max))
        ev = ExactEvolver(jc_liouvillian(p))
        times = np.linspace(0.0, 5.0, 11)
        states = evolve_jc(p, rho0, times)
        assert states.shape == (11, p.dim, p.dim)
        for t, rho in zip(times, states):
            np.testing.assert_allclose(rho, ev.propagate(rho0, float(t)), rtol=0, atol=1e-12)

    def test_non_hermitian_route_needs_even_grid(self):
        p = JCParams(omega_e=1.0, omega=1.0, d_eg=0.1, n_max=2, eps_egeg=0.1j)
        with pytest.raises(ValueError, match="evenly"):
            evolve_jc(p, initial_jc_state("e0", 2), [0.0, 0.5, 2.0])

    @pytest.mark.parametrize("eps", [0.0, 0.01, -0.3])
    def test_real_eps_is_an_omega_e_shift(self, eps):
        p = JCParams(omega_e=1.1, omega=0.9, d_eg=0.08, n_max=3, eps_egeg=eps)
        proj_e = np.kron(np.diag([0.0, 1.0]), np.eye(p.fock_dim))
        shifted = build_basis_liouvillian(build_jc_hamiltonian(p) + eps * proj_e)
        assert p.hermitian
        np.testing.assert_allclose(
            jc_liouvillian(p).dense(), shifted.dense(), rtol=0, atol=1e-14
        )


class TestFirstOrder:
    def test_time_zero_identity(self):
        p = JCParams(omega_e=1.0, omega=0.9, d_eg=0.05, n_max=3, eps_egeg=0.1j)
        rho0 = initial_jc_state("coherent:0.5", p.n_max)
        np.testing.assert_allclose(jc_evolve_first_order(p, rho0, 0.0), rho0, atol=1e-14)

    def test_pure_phase_when_uncoupled(self):
        p = JCParams(omega_e=1.4, omega=0.8, d_eg=0.0, n_max=3)
        atom = np.array([[0.6, 0.3], [0.3, 0.4]], dtype=complex)
        field = coherent_field_density(0.6, 3)
        rho0 = np.kron(atom, field)
        t = 0.7
        out = jc_evolve_first_order(p, rho0, t)
        f = 4
        n = np.arange(f)
        phase = np.exp(-1j * (1.4 + 0.8 * np.subtract.outer(n, n)) * t)
        want_eg = phase * atom[ATOM_E, ATOM_G] * field
        np.testing.assert_allclose(
            out.reshape(2, f, 2, f)[ATOM_E, :, ATOM_G, :], want_eg, atol=1e-12
        )

    def test_deviation_from_exact_scales_as_t_squared_dipole(self):
        """Atom prepared in populations (no coherences), coherent field:
        halving t shrinks the first-order/exact gap by 4."""
        p = JCParams(
            omega_e=1.1, omega=0.9, d_eg=0.02, n_max=4, eps_egeg=0.01 * (0.6 + 0.8j)
        )
        rho0 = np.kron(
            np.diag([0.4, 0.6]).astype(complex), coherent_field_density(0.4, 4)
        )
        devs = [
            np.max(np.abs(jc_evolve_first_order(p, rho0, t) - evolve_jc(p, rho0, [t])[0]))
            for t in (0.4, 0.2, 0.1)
        ]
        assert devs[0] / devs[1] == pytest.approx(4.0, abs=0.8)
        assert devs[1] / devs[2] == pytest.approx(4.0, abs=0.8)

    def test_deviation_from_exact_scales_as_t_squared_superoperator(self):
        # d = 0 with atom coherence: probes the (1 - i t E_egeg) factor
        p = JCParams(
            omega_e=1.1, omega=0.9, d_eg=0.0, n_max=3, eps_egeg=0.02 * (0.5 + 0.5j)
        )
        atom = np.array([[0.6, 0.25 + 0.1j], [0.25 - 0.1j, 0.4]])
        rho0 = np.kron(atom, coherent_field_density(0.3, 3))
        devs = [
            np.max(np.abs(jc_evolve_first_order(p, rho0, t) - evolve_jc(p, rho0, [t])[0]))
            for t in (0.4, 0.2, 0.1)
        ]
        assert devs[0] / devs[1] == pytest.approx(4.0, abs=0.8)
        assert devs[1] / devs[2] == pytest.approx(4.0, abs=0.8)

    def test_deviation_scales_as_coupling_squared_at_resonance(self):
        """At resonance the d_eg t term is the exact first-order dipole term
        and (1 - i t E_egeg) the exact first-order superoperator term, so at
        fixed t the deviation from the exact evolution has log-log slope 2
        in the coupling strength (atom in populations, coherent field)."""
        rho0 = np.kron(
            np.diag([0.4, 0.6]).astype(complex), coherent_field_density(0.4, 4)
        )
        couplings = np.array([0.02, 0.05, 0.1, 0.2])
        errs = []
        for g in couplings:
            p = JCParams(
                omega_e=0.9, omega=0.9, d_eg=g, n_max=4, eps_egeg=g * (0.4 + 0.6j)
            )
            got = jc_evolve_first_order(p, rho0, 1.0)
            errs.append(float(np.max(np.abs(got - evolve_jc(p, rho0, [1.0])[0]))))
        slope = np.polyfit(np.log(couplings), np.log(errs), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.15)

    def test_atom_coherence_with_dipole_rejected(self):
        """The dipole moves the atom-diagonal blocks of an eg coherence at
        first order, which the formula leaves at free phases: refused."""
        atom = np.array([[0.5, 0.3], [0.3, 0.5]], dtype=complex)
        rho0 = np.kron(atom, coherent_field_density(0.4, 4))
        with pytest.raises(ValueError, match="coherence"):
            jc_evolve_first_order(JCParams(0.9, 0.9, d_eg=0.02, n_max=4), rho0, 1.0)
        # without the dipole the same state is allowed
        jc_evolve_first_order(JCParams(0.9, 0.9, d_eg=0.0, n_max=4), rho0, 1.0)

    def test_negative_time_rejected(self):
        p = JCParams(omega_e=1.0, omega=1.0, d_eg=0.01, n_max=2)
        with pytest.raises(ValueError):
            jc_evolve_first_order(p, initial_jc_state("e0", 2), -0.1)

    def test_entangled_initial_state_rejected(self):
        p = JCParams(omega_e=1.0, omega=1.0, d_eg=0.01, n_max=1)
        bell = np.zeros((4, 4), dtype=complex)
        # (|g,1> + |e,0>)/sqrt(2), basis order (g0,g1,e0,e1)
        vec = np.array([0.0, 1.0, 1.0, 0.0]) / np.sqrt(2)
        bell = np.outer(vec, vec)
        with pytest.raises(NotFactorized):
            jc_evolve_first_order(p, bell, 0.1)

    def test_factorization_helper(self):
        atom = np.array([[0.7, 0.1j], [-0.1j, 0.3]])
        field = coherent_field_density(0.8, 3)
        rho_a, rho_f = atom_field_factors(np.kron(atom, field), 3)
        np.testing.assert_allclose(rho_a, atom, atol=1e-14)
        np.testing.assert_allclose(rho_f, field, atol=1e-14)


class TestGuards:
    def test_truncation_leak_raises(self):
        rho0 = initial_jc_state("coherent:2.5", 3)
        with pytest.raises(TruncationLeak):
            check_fock_truncation(rho0, 3)

    def test_truncation_ok_for_contained_state(self):
        check_fock_truncation(initial_jc_state("e0", 4), 4)

    def test_initial_state_specs(self):
        rho = initial_jc_state("g1", 2)
        assert rho[1, 1] == 1.0
        rho = initial_jc_state("e0", 2)
        assert rho[3, 3] == 1.0
        rho = initial_jc_state("coherent:0.5", 5)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(ValueError):
            initial_jc_state("x2", 2)


    def test_photon_number_outside_truncation_rejected(self):
        with pytest.raises(ValueError, match="truncated"):
            initial_jc_state("e3", 2)

    @pytest.mark.parametrize("alpha", [0.0, 0.7, 0.5j])
    def test_coherent_field_is_pure_with_poisson_mean(self, alpha):
        n_max = 20
        rho = coherent_field_density(alpha, n_max)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-14)
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-15
        np.testing.assert_allclose(rho @ rho, rho, rtol=0, atol=1e-14)
        mean_n = float(np.real(np.sum(np.arange(n_max + 1) * np.diag(rho))))
        assert mean_n == pytest.approx(abs(alpha) ** 2, abs=1e-12)


class TestHydrogenStates:
    def test_quantum_number_validation(self):
        with pytest.raises(ValueError):
            HydrogenState(0, 0, 0)
        with pytest.raises(ValueError):
            HydrogenState(2, 2, 0)
        with pytest.raises(ValueError):
            HydrogenState(2, 1, 2)

    def test_parity(self):
        assert S1.parity == 1
        assert P2.parity == -1
        assert HydrogenState(3, 2, 1).parity == 1

    def test_unbundled_radial_function_rejected(self):
        with pytest.raises(ValueError, match="radial"):
            _radial(4, 0, np.ones(3))

    def test_orbitals_normalized_by_mc(self):
        rng = np.random.Generator(np.random.Philox(61))
        pts = rng.normal(scale=4.0, size=(200000, 3))
        dens = np.exp(-0.5 * np.sum(pts**2, axis=-1) / 16.0) / (
            (2 * np.pi * 16.0) ** 1.5
        )
        for state in (S1, S2, P2, HydrogenState(3, 2, 0)):
            psi = hydrogen_psi(state, pts)
            est = np.mean(np.abs(psi) ** 2 / dens)
            err = np.std(np.abs(psi) ** 2 / dens) / np.sqrt(pts.shape[0])
            assert abs(est - 1.0) < max(4 * err, 0.02)


class TestCoulombElements:
    def test_matches_deterministic_quadrature_oracle(self):
        want = s_state_quadrature_oracle(1, 2, 1, 1)
        res = coulomb_superop_element(S1, S2, S1, S1, mc_samples=4 * 10**5, seed=11)
        assert abs(res.value - want) < 3.5 * res.stderr
        assert res.stderr < 0.05 * abs(want)

    def test_parity_forbidden_vanishes(self):
        # P_a P_b P_c P_d = -1 forces an exact zero
        res = coulomb_superop_element(S1, S1, S1, P2, mc_samples=10**5, seed=13)
        assert abs(res.value) < 3.5 * res.stderr

    def test_swap_symmetric_vanishes(self):
        # E_{aa,cc} with real orbitals: the integrand is odd under Q <-> q
        res = coulomb_superop_element(S1, S1, S2, S2, mc_samples=10**5, seed=14)
        assert abs(res.value) < 3.5 * res.stderr

    def test_antisymmetry_relation(self):
        # E_{ab,cd} = -conj(E_{ba,dc})
        one = coulomb_superop_element(S1, S2, S1, S1, mc_samples=2 * 10**5, seed=15)
        two = coulomb_superop_element(S2, S1, S1, S1, mc_samples=2 * 10**5, seed=16)
        combined = np.hypot(one.stderr, two.stderr)
        assert abs(one.value + np.conj(two.value)) < 3.5 * combined

    def test_not_converged_raises(self):
        with pytest.raises(NotConverged):
            coulomb_superop_element(
                S1, S2, S1, S1, mc_samples=10**4, seed=17, tol=1e-9
            )

    def test_minimum_samples_enforced(self):
        with pytest.raises(ValueError):
            coulomb_superop_element(S1, S1, S1, S1, mc_samples=100, seed=0)

    def test_deterministic_given_seed(self):
        a = coulomb_superop_element(S1, S2, S1, S1, mc_samples=10**4 * 2, seed=42)
        b = coulomb_superop_element(S1, S2, S1, S1, mc_samples=10**4 * 2, seed=42)
        assert a.value == b.value and a.stderr == b.stderr
