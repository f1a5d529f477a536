import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from scipy.integrate import quad

from liouspace import jaynescummings as jc_module, liouvillian
from liouspace.errors import DimensionTooLarge, TruncationLeak
from liouspace.jaynescummings import (
    ATOM_E,
    ATOM_G,
    HydrogenState,
    JCParams,
    _expm_stack,
    _radial,
    build_jc_hamiltonian,
    coherent_field_density,
    coulomb_superop_element,
    hydrogen_psi,
    initial_jc_state,
    jc_evolve_first_order,
    jc_liouvillian,
    jc_series,
    truncation_margin,
)
from liouspace.evolution import ExactEvolver
from oracles import partial_trace, phase_series_five_arrays


def dense_states(p, rho0, times):
    """The model's states over times from the dense generator: the oracle."""
    return ExactEvolver(jc_liouvillian(p)).propagate(rho0, times)


def top_fock_population(rho, n_max):
    """Population of the top two Fock levels of a density, through the
    partial trace over the atom."""
    return np.trace(partial_trace(rho, (2, n_max + 1), 1)[-2:, -2:]).real


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

    @pytest.mark.parametrize("n_max", [0, jc_module.FOCK_LEAK_LEVELS - 1])
    def test_fock_space_within_the_leak_guard_rejected(self, n_max):
        """Below FOCK_LEAK_LEVELS the guard's top levels take in the vacuum,
        so even the ground state would read as a leak."""
        with pytest.raises(ValueError, match="FOCK_LEAK_LEVELS"):
            JCParams(omega_e=1.0, omega=1.0, d_eg=0.1, n_max=n_max)
        JCParams(omega_e=1.0, omega=1.0, d_eg=0.1, n_max=jc_module.FOCK_LEAK_LEVELS)

    @pytest.mark.parametrize("eps_egeg", [0.01 - 0.02j, 0.05 + 0.05j, -0.32j])
    def test_superoperator_keeps_trace_and_hermiticity(self, eps_egeg):
        p = JCParams(omega_e=1.0, omega=1.0, d_eg=0.1, n_max=2, eps_egeg=eps_egeg)
        liou = jc_liouvillian(p)
        assert liou.basis is None  # E acts elementwise in the product basis
        blocks = liou.e.reshape(2, 3, 2, 3)
        # trace sum rule sum_a E_{aa,cd} = 0: the atom-diagonal blocks vanish
        np.testing.assert_array_equal(blocks[ATOM_G, :, ATOM_G, :], 0.0)
        np.testing.assert_array_equal(blocks[ATOM_E, :, ATOM_E, :], 0.0)
        # E_{ab,cd} = -conj(E_{ba,dc}) keeps rho Hermitian
        np.testing.assert_array_equal(liou.e, -liou.e.T.conj())
        np.testing.assert_array_equal(blocks[ATOM_E, :, ATOM_G, :], 1j * eps_egeg.imag)

    @pytest.mark.parametrize(
        "eps_egeg", [0.0, 0.01, -0.3, 0.3, 0.01 - 0.02j, 0.05 + 0.05j, -0.32j]
    )
    def test_split_generator_equals_the_whole_superoperator(self, eps_egeg):
        """The paper's generator by hand, E-hat whole: eps on the eg block
        and -conj(eps) on the ge block of kron(H_JC, 1) - kron(1, H_JC^T) +
        diag(mask).  The split form (h = H_JC + Re(eps) P_e (x) 1, E =
        i Im(eps)) acts as it, with no E for real eps: an omega_e shift."""
        p = JCParams(omega_e=1.1, omega=0.9, d_eg=0.08, n_max=3, eps_egeg=eps_egeg)
        h, f = build_jc_hamiltonian(p), p.fock_dim
        mask = np.zeros((2, f, 2, f), dtype=complex)
        mask[ATOM_E, :, ATOM_G, :] = eps_egeg
        mask[ATOM_G, :, ATOM_E, :] = -np.conj(eps_egeg)
        eye = np.eye(p.dim)
        whole = np.kron(h, eye) - np.kron(eye, h.T) + np.diag(mask.reshape(-1))
        liou = jc_liouvillian(p)
        assert (liou.e is None) == (np.imag(eps_egeg) == 0)
        np.testing.assert_allclose(liou.dense(), whole, rtol=0, atol=1e-13)

    def test_hermitian_exactly(self):
        p = JCParams(omega_e=1.2, omega=0.8, d_eg=0.3, n_max=5)
        h = build_jc_hamiltonian(p)
        assert np.max(np.abs(h - h.conj().T)) == 0.0


def per_state_columns(p, rho0, times, states=None):
    """The jc_series columns from the evolved states (the dense oracle's
    unless given), one state at a time."""
    f = p.fock_dim
    return np.array([
        (
            t,
            np.trace(rho.reshape(2, f, 2, f)[ATOM_E, :, ATOM_E, :]).real,
            abs(rho.reshape(2, f, 2, f)[ATOM_E, 0, ATOM_G, 0]),
            np.trace(rho).real,
            np.trace(rho @ rho).real,
        )
        for t, rho in zip(times, dense_states(p, rho0, times) if states is None else states)
    ])


class TestSeries:
    def test_columns_equal_per_state_definitions(self):
        """Complex eps, so the sector_powers route."""
        p = JCParams(omega_e=1.0, omega=1.0, d_eg=0.05, n_max=6, eps_egeg=0.01 - 0.02j)
        rho0 = initial_jc_state("coherent:0.3", p.n_max)
        cols, path, _ = jc_series(p, rho0, 10.0, 20)
        assert path == "sector_powers"
        assert list(cols) == ["t", "P_e", "abs_rho_eg00", "trace", "purity"]
        want = per_state_columns(p, rho0, cols["t"])
        np.testing.assert_allclose(np.column_stack(list(cols.values())), want, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("eps_egeg", [0.0, 0.03])
    def test_phase_route_equals_per_state_definitions(self, eps_egeg):
        """Real eps: the closed-form sector rotations give the columns
        without forming a state; a mixed, atom-coherent rho0 exercises every
        column."""
        p = JCParams(omega_e=1.0, omega=1.0, d_eg=0.05, n_max=6, eps_egeg=eps_egeg)
        atom = np.array([[0.5, 0.35], [0.35, 0.5]], dtype=complex)
        rho0 = np.kron(atom, coherent_field_density(0.4, p.n_max))
        # the top Fock levels pass 1e-6 near t = 3
        cols, path, margins = jc_series(p, rho0, 2.5, 25)
        assert path == "sector_phases"
        states = dense_states(p, rho0, cols["t"])
        want = per_state_columns(p, rho0, cols["t"], states)
        np.testing.assert_allclose(np.column_stack(list(cols.values())), want, rtol=0, atol=1e-13)
        top = [np.trace(rho.reshape(2, 7, 2, 7)[:, -2:, :, -2:].reshape(4, 4)).real
               for rho in states]
        assert list(margins) == ["max_fock_leak", "max_trace_drift", "max_purity"]
        assert margins["max_fock_leak"] == pytest.approx(max(top), rel=0, abs=1e-14)
        assert margins["max_trace_drift"] == np.max(np.abs(cols["trace"] - 1.0))
        assert margins["max_purity"] == np.max(cols["purity"])

    @pytest.mark.parametrize("eps_egeg", [0.0, -0.01j])
    def test_mid_run_leak_raises(self, eps_egeg):
        """|e,2> at n_max 4 holds nothing in the top Fock levels; the dipole
        then feeds |g,3>, so only the evolved populations show the leak, on
        either route."""
        p = JCParams(omega_e=1.0, omega=1.0, d_eg=0.05, n_max=4, eps_egeg=eps_egeg)
        rho0 = initial_jc_state("e2", p.n_max)
        assert top_fock_population(rho0, p.n_max) == 0.0
        with pytest.raises(TruncationLeak, match="in the top 2 Fock levels") as err:
            jc_series(p, rho0, 10.0, 200)
        assert "at t=0," not in str(err.value)

    @pytest.mark.filterwarnings("ignore:overflow encountered in matmul:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered in matmul:RuntimeWarning")
    def test_sector_powers_stop_at_the_first_leak(self, monkeypatch):
        """Im(eps) = 5 amplifies the eg coherence as exp(5 t) and overflows
        the powers at t = 144: the guard aborts there, and no later state is
        formed."""
        powers, times = jc_module._sector_powers, []

        def recorded(hb, eb, rb, dt, steps):
            for j, blocks in enumerate(powers(hb, eb, rb, dt, steps)):
                times.append(j * dt)
                yield blocks

        monkeypatch.setattr(jc_module, "_sector_powers", recorded)
        p = JCParams(omega_e=1.0, omega=1.0, d_eg=0.05, n_max=4, eps_egeg=0.01 + 5j)
        with pytest.raises(TruncationLeak, match="leaked nan at t=144,"):
            jc_series(p, initial_jc_state("e0", p.n_max), 400.0, 200)
        assert times[-1] == 144.0

    @pytest.mark.parametrize("eps_egeg", [0.01, 0.01 - 0.02j])
    def test_series_hold_no_state_stack(self, eps_egeg):
        """n_max 40 over 2001 times: the (2001, 82, 82) stack alone would take
        215 MB."""
        p = JCParams(omega_e=1.0, omega=1.0, d_eg=0.05, n_max=40, eps_egeg=eps_egeg)
        rho0 = initial_jc_state("coherent:0.7", p.n_max)
        tracemalloc.start()
        try:
            jc_series(p, rho0, 10.0, 2000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    @pytest.mark.parametrize("n_max", [12, 40])
    def test_phase_route_keeps_the_bits_of_five_arrays(self, monkeypatch, n_max):
        """The two-array sector phases give every column and margin of the
        five-array formula to the last bit."""
        p = JCParams(omega_e=1.0, omega=1.0, d_eg=0.05, n_max=n_max, eps_egeg=0.01)
        rho0 = initial_jc_state("coherent:0.7", n_max)
        got = jc_series(p, rho0, 10.0, 2000)
        monkeypatch.setattr(jc_module, "_phase_series", phase_series_five_arrays)
        want = jc_series(p, rho0, 10.0, 2000)
        assert got[1] == want[1] == "sector_phases" and got[2] == want[2]
        for name in want[0]:
            np.testing.assert_array_equal(got[0][name], want[0][name])

    def test_phase_route_holds_two_time_arrays(self):
        """n_max 40 over 20001 times: the traced peak stays within 2.6
        (T, S) float arrays, S = n_max + 2 sectors (five arrays peaked at
        4.19)."""
        p = JCParams(omega_e=1.0, omega=1.0, d_eg=0.05, n_max=40, eps_egeg=0.01)
        rho0 = initial_jc_state("coherent:0.7", p.n_max)
        jc_series(p, rho0, 10.0, 20)  # lazy imports and caches stay out of the count
        tracemalloc.start()
        try:
            jc_series(p, rho0, 200.0, 20000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.6 * 20001 * (p.n_max + 2) * 8


class TestExactEvolution:
    def test_vacuum_rabi_oscillation(self):
        # resonant doublet {|e,0>, |g,1>}: P_e(t) = cos^2(d t)
        p = JCParams(omega_e=1.0, omega=1.0, d_eg=0.05, n_max=4)
        rho0 = initial_jc_state("e0", p.n_max)
        cols, _, _ = jc_series(p, rho0, np.pi / 0.05, 12)
        np.testing.assert_allclose(cols["P_e"], np.cos(0.05 * cols["t"]) ** 2, rtol=0, atol=1e-6)

    def test_superoperator_acts_as_coherence_modifier(self):
        # d = 0, E_egeg = i kappa: i d/dt rho_eg = (w_e + i kappa) rho_eg,
        # so |rho_eg(t)| = exp(kappa t) |rho_eg(0)|
        kappa = -0.3
        p = JCParams(omega_e=1.0, omega=0.8, d_eg=0.0, n_max=2, eps_egeg=1j * kappa)
        atom = np.array([[0.5, 0.3], [0.3, 0.5]], dtype=complex)
        rho0 = np.kron(atom, np.diag([1.0, 0.0, 0.0]).astype(complex))
        cols, path, _ = jc_series(p, rho0, 1.5, 3)
        assert path == "sector_powers"
        np.testing.assert_allclose(
            cols["abs_rho_eg00"], 0.3 * np.exp(kappa * cols["t"]), rtol=0, atol=1e-10
        )

    def test_trace_conserved_over_long_run(self):
        p = JCParams(
            omega_e=1.1, omega=0.9, d_eg=0.08, n_max=4, eps_egeg=0.05 * (1 + 1j)
        )
        rho0 = initial_jc_state("e1", p.n_max)
        cols, _, _ = jc_series(p, rho0, 10.0, 10)
        np.testing.assert_allclose(cols["trace"], 1.0, rtol=0, atol=1e-8)
        for rho in dense_states(p, rho0, cols["t"]):
            assert abs(np.trace(rho).real - 1.0) < 1e-8
            assert np.max(np.abs(rho - rho.conj().T)) < 1e-8

    def test_superoperator_leaves_diagonal_blocks_alone(self):
        # with d = 0 the atom-diagonal blocks are identical with and
        # without the superoperator
        base = dict(omega_e=1.2, omega=0.7, d_eg=0.0, n_max=3)
        atom = np.array([[0.55, 0.2 - 0.3j], [0.2 + 0.3j, 0.45]])
        rho0 = np.kron(atom, coherent_field_density(0.5, 3))
        rho_plain = dense_states(JCParams(**base), rho0, [2.0])[0]
        rho_eps = dense_states(JCParams(**base, eps_egeg=0.4 + 0.2j), rho0, [2.0])[0]
        f = 4
        for a in (ATOM_G, ATOM_E):
            block_plain = rho_plain.reshape(2, f, 2, f)[a, :, a, :]
            block_eps = rho_eps.reshape(2, f, 2, f)[a, :, a, :]
            np.testing.assert_allclose(block_plain, block_eps, atol=1e-12)

    def test_liouvillian_hermitian_iff_no_superoperator(self):
        p0 = JCParams(omega_e=1.0, omega=1.0, d_eg=0.1, n_max=2)
        assert jc_liouvillian(p0).e is None
        p1 = JCParams(omega_e=1.0, omega=1.0, d_eg=0.1, n_max=2, eps_egeg=0.1j)
        assert jc_liouvillian(p1).e is not None

    def test_dense_cap_fires_before_allocation(self, monkeypatch):
        monkeypatch.setattr(liouvillian, "MAX_DENSE_VEC_DIM", 100)
        p = JCParams(omega_e=1.0, omega=1.0, d_eg=0.1, n_max=5, eps_egeg=0.1j)
        liou = jc_liouvillian(p)  # N x N: only the dense form meets the cap
        with pytest.raises(DimensionTooLarge):
            liou.dense()

    @pytest.mark.parametrize("eps_egeg", [0.0, 0.01, 0.3, 0.01 - 0.02j, 0.05 + 0.05j])
    @pytest.mark.parametrize("n_max", [3, 6])
    def test_structured_route_matches_dense(self, n_max, eps_egeg):
        """The sector routes against the dense generator (whose top Fock
        levels the coherent field fills, so the series is taken with the
        leak guard lifted).  The purity sums every sector block, the
        off-diagonal ones too."""
        p = JCParams(omega_e=1.1, omega=0.9, d_eg=0.08, n_max=n_max, eps_egeg=eps_egeg)
        atom = np.array([[0.4, 0.2 - 0.3j], [0.2 + 0.3j, 0.6]])
        rho0 = np.kron(atom, coherent_field_density(0.5, n_max))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(jc_module, "LEAK_THRESHOLD", np.inf)
            cols, path, _ = jc_series(p, rho0, 5.0, 10)
        assert path == ("sector_phases" if np.imag(eps_egeg) == 0 else "sector_powers")
        want = dense_states(p, rho0, cols["t"])
        np.testing.assert_allclose(
            np.column_stack(list(cols.values())), per_state_columns(p, rho0, cols["t"], want),
            rtol=0, atol=1e-12,
        )

    def test_sector_route_at_the_exceptional_point(self):
        # dephasing -Im(eps) = 4 d_eg is critical: in the one-excitation
        # manifold the non-normal generator has a defective eigenvalue, where
        # an eigendecomposition of the generator loses accuracy; the powers
        # of one expm need none
        p = JCParams(omega_e=1.0, omega=1.0, d_eg=0.08, n_max=4, eps_egeg=-0.32j)
        rho0 = initial_jc_state("e0", p.n_max)
        cols, path, _ = jc_series(p, rho0, 5.0, 10)
        assert path == "sector_powers"
        want = dense_states(p, rho0, cols["t"])
        np.testing.assert_allclose(
            np.column_stack(list(cols.values())), per_state_columns(p, rho0, cols["t"], want),
            rtol=0, atol=1e-12,
        )

    @pytest.mark.parametrize("norm", [1e-3, 1.0, 10.0, 100.0])
    def test_expm_stack_matches_scipy(self, norm):
        rng = np.random.Generator(np.random.Philox(52))
        a = rng.normal(size=(50, 4, 4)) + 1j * rng.normal(size=(50, 4, 4))
        a *= norm / np.max(np.abs(a).sum(axis=-2))  # the largest 1-norm is norm
        want = scipy.linalg.expm(a)
        err = np.max(np.abs(_expm_stack(a) - want)) / np.max(np.abs(want))
        assert err <= 1e-14 * max(1.0, norm)

    @pytest.mark.parametrize("c", [0.1, 3.0])
    def test_expm_stack_of_a_jordan_block(self, c):
        # exp(z + c N) = e^z sum_k c^k N^k / k! for the nilpotent shift N
        z, n = -0.2 + 0.7j, np.eye(4, k=1)
        want = np.exp(z) * sum(np.linalg.matrix_power(c * n, k) / math.factorial(k)
                               for k in range(4))
        got = _expm_stack((z * np.eye(4) + c * n)[None])[0]
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("n_max", [4, 6])
    @pytest.mark.parametrize("eps_egeg", [0.01 - 0.02j, -0.32j])
    def test_dense_generator_keeps_sector_pairs(self, n_max, eps_egeg):
        """No element of the dense generator maps a block of rho between the
        excitation-number sectors (k, l) into another pair: the audit that
        the sector routes evolve the whole model."""
        p = JCParams(omega_e=1.1, omega=0.9, d_eg=0.08, n_max=n_max, eps_egeg=eps_egeg)
        f = p.fock_dim
        sector = np.tile(np.arange(f), 2) + np.repeat([0, 1], f)  # a'a + |e><e|
        pair = (sector[:, None] * (n_max + 2) + sector[None, :]).ravel()  # of vec(rho)
        dense = jc_liouvillian(p).dense()
        assert np.max(np.abs(dense[pair[:, None] != pair[None, :]])) == 0.0
        assert np.max(np.abs(dense)) > 0.0

    @pytest.mark.parametrize("eps_egeg", [0.02, 0.01 - 0.02j])
    @pytest.mark.parametrize(
        "omega_e, d_eg, n_max, atom",
        [
            (1.3, 0.0, 4, [[0.4, 0.2 - 0.3j], [0.2 + 0.3j, 0.6]]),
            # omega_e = omega: every two-state sector is degenerate, w_k = 0
            (0.9, 0.0, 4, [[0.4, 0.2 - 0.3j], [0.2 + 0.3j, 0.6]]),
            (0.9, 0.08, 4, [[0.4, 0.0], [0.0, 0.6]]),
            (1.1, 0.08, 2, [[0.0, 0.0], [0.0, 1.0]]),
            (1.1, 0.08, 4, [[0.5, 0.5j], [-0.5j, 0.5]]),
        ],
        ids=["d-zero", "resonant-d-zero", "resonant", "n-max-2", "atom-coherent"],
    )
    def test_edge_cases_match_dense(self, omega_e, d_eg, n_max, atom, eps_egeg):
        p = JCParams(omega_e=omega_e, omega=0.9, d_eg=d_eg, n_max=n_max, eps_egeg=eps_egeg)
        field = np.zeros((p.fock_dim, p.fock_dim))
        field[0, 0] = 1.0
        rho0 = np.kron(np.asarray(atom, dtype=complex), field)
        with pytest.MonkeyPatch.context() as mp:  # n_max 2: |e,0> feeds |g,1>, a top level
            mp.setattr(jc_module, "LEAK_THRESHOLD", np.inf)
            cols, _, _ = jc_series(p, rho0, 4.0, 8)
        want = dense_states(p, rho0, cols["t"])
        np.testing.assert_allclose(
            np.column_stack(list(cols.values())), per_state_columns(p, rho0, cols["t"], want),
            rtol=0, atol=1e-13,
        )

    def test_phase_route_makes_no_eigendecomposition(self, monkeypatch):
        def refuse(*_args, **_kwargs):
            raise AssertionError("the sector_phases route called np.linalg.eigh")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        p = JCParams(omega_e=1.0, omega=1.0, d_eg=0.05, n_max=12, eps_egeg=0.01)
        rho0 = initial_jc_state("coherent:0.7", p.n_max)
        cols, path, _ = jc_series(p, rho0, 10.0, 200)
        assert path == "sector_phases" and abs(cols["trace"][-1] - 1.0) < 1e-13


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

    @pytest.mark.parametrize("state", ["populations", "eg_coherence", "entangled"])
    def test_deviation_from_exact_scales_as_t_squared_dipole(self, state):
        """With the dipole on, halving t shrinks the first-order/exact gap
        by 4 for an atom in populations or with an eg coherence times a
        coherent field, and for the entangled (|g,1> + |e,0>)/sqrt 2."""
        p = JCParams(
            omega_e=1.1, omega=0.9, d_eg=0.02, n_max=4, eps_egeg=0.01 * (0.6 + 0.8j)
        )
        atom = {
            "populations": np.diag([0.4, 0.6]).astype(complex),
            "eg_coherence": np.array([[0.6, 0.25 + 0.1j], [0.25 - 0.1j, 0.4]]),
        }
        if state == "entangled":
            vec = np.zeros(p.dim)
            vec[[ATOM_G * p.fock_dim + 1, ATOM_E * p.fock_dim]] = np.sqrt(0.5)
            rho0 = np.outer(vec, vec).astype(complex)
        else:
            rho0 = np.kron(atom[state], coherent_field_density(0.4, 4))
        devs = [
            np.max(np.abs(jc_evolve_first_order(p, rho0, t) - dense_states(p, rho0, [t])[0]))
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
            np.max(np.abs(jc_evolve_first_order(p, rho0, t) - dense_states(p, rho0, [t])[0]))
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
            errs.append(float(np.max(np.abs(got - dense_states(p, rho0, [1.0])[0]))))
        slope = np.polyfit(np.log(couplings), np.log(errs), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.15)

    def test_negative_time_rejected(self):
        p = JCParams(omega_e=1.0, omega=1.0, d_eg=0.01, n_max=2)
        with pytest.raises(ValueError):
            jc_evolve_first_order(p, initial_jc_state("e0", 2), -0.1)


class TestPartialTrace:
    def test_unequal_factors_of_a_product(self):
        atom = np.array([[0.7, 0.1j], [-0.1j, 0.3]])
        field = coherent_field_density(0.8, 3)
        rho = np.kron(atom, field)
        np.testing.assert_allclose(partial_trace(rho, (2, 4), 0), atom, atol=1e-14)
        np.testing.assert_allclose(partial_trace(rho, (2, 4), 1), field, atol=1e-14)

    @pytest.mark.parametrize("keep", [0, 1])
    def test_stack_equals_per_density_calls(self, keep):
        rng = np.random.Generator(np.random.Philox(74))
        stack = rng.normal(size=(3, 10, 10)) + 1j * rng.normal(size=(3, 10, 10))
        got = partial_trace(stack, (2, 5), keep)
        assert got.shape == ((3, 2, 2) if keep == 0 else (3, 5, 5))
        for rho, red in zip(stack, got):
            np.testing.assert_array_equal(red, partial_trace(rho, (2, 5), keep))

    @pytest.mark.parametrize("keep", [-1, 2, 3])
    def test_invalid_keep_rejected(self, keep):
        with pytest.raises(ValueError, match="keep"):
            partial_trace(np.eye(16) / 16, (4, 4), keep)


class TestGuards:
    @pytest.mark.parametrize("eps_egeg", [0.01, 0.01 - 0.02j])
    def test_leaky_initial_state_raises_at_t_zero(self, eps_egeg):
        """The series' own t = 0 row carries the check of rho0, on either
        sector route."""
        p = JCParams(omega_e=1.0, omega=1.0, d_eg=0.05, n_max=3, eps_egeg=eps_egeg)
        rho0 = initial_jc_state("coherent:2.5", p.n_max)
        assert f"{top_fock_population(rho0, p.n_max):.3e}" == "8.925e-01"
        with pytest.raises(TruncationLeak, match=r"leaked 8\.925e-01 at t=0,"):
            jc_series(p, rho0, 1.0, 10)

    @pytest.mark.parametrize("eps_egeg", [0.01, 0.01 - 0.02j])
    @pytest.mark.parametrize(
        "spec, n_max", [("coherent:2.5", 3), ("coherent:0.7", 12), ("e2", 4)]
    )
    def test_first_row_equals_partial_trace_of_rho0(self, spec, n_max, eps_egeg):
        """The t = 0 top-Fock population the guard reads equals that of rho0
        through the partial trace, to the last bit."""
        p = JCParams(omega_e=1.0, omega=1.0, d_eg=0.05, n_max=n_max, eps_egeg=eps_egeg)
        rho0 = initial_jc_state(spec, n_max)
        seen = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(jc_module, "truncation_margin", lambda pops, t, label: seen.append(pops))
            jc_series(p, rho0, 1.0, 10)
        assert seen[0][0] == top_fock_population(rho0, n_max)

    def test_truncation_ok_for_contained_state(self):
        p = JCParams(omega_e=1.0, omega=1.0, d_eg=0.05, n_max=4)
        _, _, margins = jc_series(p, initial_jc_state("e0", 4), 10.0, 100)
        assert margins["max_fock_leak"] == 0.0

    def test_guard_raises_at_the_first_bad_time(self):
        t = np.array([0.0, 0.5, 1.0, 1.5])
        assert truncation_margin(np.array([0.0, 1e-7, 1e-6, 0.0]), t, "x") == 1e-6
        with pytest.raises(TruncationLeak, match=r"^top: the run leaked 2\.000e-06 at t=1,"):
            truncation_margin(np.array([0.0, 1e-7, 2e-6, 1.0]), t, "top")

    def test_guard_refuses_nan(self):
        """NaN > LEAK_THRESHOLD is false, so a guard written that way lets
        a run that overflowed pass."""
        t = np.array([0.0, 0.5, 1.0])
        with pytest.raises(TruncationLeak, match="leaked nan at t=0.5,"):
            truncation_margin(np.array([0.0, np.nan, np.nan]), t, "top")

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

    @pytest.mark.parametrize(
        "alpha, n_max", [(0.75, 12), (0.5 + 0.3j, 4), (0.1414, 5), (2.0, 30), (-0.4j, 8)]
    )
    def test_coherent_field_matches_the_direct_amplitudes(self, alpha, n_max):
        """The log-scaled amplitudes against e^{-|alpha|^2/2} alpha^n / sqrt(n!)
        taken directly, which moderate alphas keep in range."""
        amp = np.exp(-0.5 * abs(alpha) ** 2) * np.array(
            [alpha**k / math.sqrt(math.factorial(k)) for k in range(n_max + 1)]
        )
        psi = amp / np.linalg.norm(amp)
        want = np.outer(psi, psi.conj())
        np.testing.assert_allclose(coherent_field_density(alpha, n_max), want, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("alpha, top", [(40.0, 0.9925047), (1e155, 1.0), (-1e300, 1.0)])
    def test_far_coherent_field_is_finite(self, alpha, top):
        """e^{-|alpha|^2/2} alpha^n once overflowed (1e155) or underflowed to
        a NaN state (40); the truncated state piles onto the top level."""
        rho = coherent_field_density(alpha, 12)
        assert np.all(np.isfinite(rho))
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-14)
        assert rho[-1, -1].real == pytest.approx(top, abs=1e-7)


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

    def test_minimum_samples_enforced(self):
        with pytest.raises(ValueError):
            coulomb_superop_element(S1, S1, S1, S1, mc_samples=100, seed=0)

    def test_deterministic_given_seed(self):
        a = coulomb_superop_element(S1, S2, S1, S1, mc_samples=10**4 * 2, seed=42)
        b = coulomb_superop_element(S1, S2, S1, S1, mc_samples=10**4 * 2, seed=42)
        assert a.value == b.value and a.stderr == b.stderr
