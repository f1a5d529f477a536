from math import comb

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from scipy.sparse.linalg import expm_multiply

from liouspace.entangle import (
    BipartiteBasis,
    build_bipartite_liouvillian,
    compare_cl_qm_entanglement,
    loss_purity,
    relative_generator,
    separable_state,
)
from liouspace import entangle, liouvillian, validate
from liouspace.liouvillian import BasisLiouvillian
from liouspace.errors import DimensionTooLarge, TruncationLeak
from liouspace.evolution import EvolutionConfig, ExactEvolver, evolve_trotter
from liouspace.jaynescummings import coherent_field_density, fock_annihilation
from liouspace.potential import (
    MonomialClass,
    PolynomialPotential,
    SuperPotentialKind,
    classify_bipartite_terms,
)
from liouspace.superspace import SuperGrid, gaussian_super_density, moments
from oracles import partial_trace

PURE_CLASSES = {MonomialClass.PURE_BRA, MonomialClass.PURE_KET}


def relative_state(n_r, alpha1=0.0, alpha2=0.0):
    """rho_r(0) of the coherent product |alpha1>|alpha2> on n_r levels."""
    return coherent_field_density((alpha1 - alpha2) / np.sqrt(2.0), n_r - 1)


def relative_kind(basis, lam, kind):
    """The relative-mode generator of one kind: CL = QM + E."""
    cl = relative_generator(basis, lam)
    return BasisLiouvillian(cl.h) if SuperPotentialKind(kind) is SuperPotentialKind.QM else cl


def evolve_kind(basis, lam, kind, rho0, times):
    """The relative-mode states over times through the one exact route."""
    return ExactEvolver(relative_kind(basis, lam, kind)).propagate(rho0, times)


def relative_dense(basis, lam, kind):
    """Dense n_r^2 generator of the relative mode on ``basis.n_levels``
    levels, from the classified monomials of the bipartite superpotential at
    X1 = x_r/sqrt 2 and X2 = -x_r/sqrt 2.  QM keeps twice the pure ones: the
    pure monomials are the commutator with (lam/2)(X1 - X2)^4, and QM is the
    commutator with lam (X1 - X2)^4."""
    n = basis.n_levels
    powers = [np.linalg.matrix_power(basis.position_operator(), p) for p in range(5)]
    qm = SuperPotentialKind(kind) is SuperPotentialKind.QM
    h0, eye = basis.omega * np.diag(np.arange(n) + 0.5), np.eye(n)
    out = np.kron(h0, eye) - np.kron(eye, h0)
    for mono, cls in classify_bipartite_terms(lam):
        if qm and cls not in PURE_CLASSES:
            continue
        i, j, k, l = mono.exponents
        c = (2 if qm else 1) * mono.coefficient * (-1) ** (k + l) * 0.5 ** ((i + j + k + l) / 2)
        out += c * np.kron(powers[i + k], powers[j + l].T)
    return out


def difference_operator(basis):
    """A = X1 - X2 from the truncated single-mode x."""
    x, eye = basis.position_operator(), np.eye(basis.n_levels)
    return np.kron(x, eye) - np.kron(eye, x)


def difference_quartic(basis, lam):
    """lam (X1 - X2)^4 from the truncated single-mode x."""
    return lam * np.linalg.matrix_power(difference_operator(basis), 4)


def square_two_term(basis, lam, kind, kron=np.kron):
    """The square generator in the two-term form of A = X1 - X2, which
    needs neither the DVR basis nor the classification: QM is the
    commutator with h0 + lam A^4, and CL the commutator with
    h0 + (lam/2) A^4 plus lam (A^3 rho A - A rho A^3), the resummed V_CL."""
    a, eye = difference_operator(basis), np.eye(basis.n_levels**2)
    a3, cl = np.linalg.matrix_power(a, 3), SuperPotentialKind(kind) is SuperPotentialKind.CL
    h = basis.free_hamiltonian() + (0.5 if cl else 1.0) * lam * np.linalg.matrix_power(a, 4)
    out = kron(h, eye) - kron(eye, h.T)
    if cl:
        out = out + lam * (kron(a3, a.T) - kron(a, a3.T))
    return out


def reduced_purity(rho, n_levels):
    """Purity of subsystem 1 of square two-mode densities."""
    red = partial_trace(rho, (n_levels, n_levels), 0)
    return np.einsum("...ij,...ji->...", red, red).real


def relative_by_hand(basis, lam, kind):
    """The relative mode's dense generator written out: QM is the commutator
    with omega (n + 1/2) + 4 lam x^4, and CL is the commutator with
    omega (n + 1/2) + 2 lam x^4 plus 4 lam (x^3 rho x - x rho x^3)."""
    n, x = basis.n_levels, basis.position_operator()
    x3, x4, eye = np.linalg.matrix_power(x, 3), np.linalg.matrix_power(x, 4), np.eye(n)
    qm = SuperPotentialKind(kind) is SuperPotentialKind.QM
    h = basis.omega * np.diag(np.arange(n) + 0.5) + (4 if qm else 2) * lam * x4
    out = np.kron(h, eye) - np.kron(eye, h)
    if qm:
        return out
    return out + 4 * lam * (np.kron(x3, x) - np.kron(x, x3))


def exponential_states(gen, rho0, times):
    """exp(-i gen t) vec(rho0) at each of the evenly spaced times, by scipy's
    truncated Taylor series (Al-Mohy & Higham 2011), not by eigh."""
    times = np.asarray(times, dtype=float)
    np.testing.assert_allclose(times, np.linspace(times[0], times[-1], times.size))
    out = expm_multiply(
        -1j * gen, rho0.reshape(-1).astype(complex),
        start=times[0], stop=times[-1], num=times.size, endpoint=True,
    )
    return out.reshape(-1, *rho0.shape)


def square_states(basis, lam, kind, rho0, times):
    """States of the square generator in its sparse two-term form
    (``square_two_term``)."""
    gen = square_two_term(basis, lam, kind, kron=scipy.sparse.kron)
    return exponential_states(scipy.sparse.csr_array(gen), rho0, times)


def beam_splitter_state(alpha_c, rho_r, n_c):
    """U_BS (|alpha_c><alpha_c| (x) rho_r) U_BS' in modes (1, 2), with
    |alpha_c> on n_c levels.  Each mode keeps n_c + n_r - 1 levels, so no
    photon number of the product leaves the truncation, and U_BS, which
    conserves it, is exact there."""
    m = n_c + len(rho_r) - 1

    def pad(rho):
        return np.pad(rho, (0, m - len(rho)))

    rho = np.kron(pad(coherent_field_density(alpha_c, n_c - 1)), pad(rho_r))
    a, eye = fock_annihilation(m - 1), np.eye(m)
    a_c, a_r = np.kron(a, eye), np.kron(eye, a)
    # the pi/4 rotation, then the phase (-1)^n on mode 2: a2 = (a_c - a_r)/sqrt 2
    u = np.kron(eye, np.diag((-1.0) ** np.arange(m))) @ scipy.linalg.expm(
        0.25 * np.pi * (a_c.T @ a_r - a_r.T @ a_c)
    )
    return u @ rho @ u.conj().T, m


@pytest.fixture
def basis4():
    return BipartiteBasis(n_levels=4)


class TestGenerators:
    def test_lambda_zero_cl_equals_qm(self, basis4):
        d_cl = build_bipartite_liouvillian(basis4, 0.0, SuperPotentialKind.CL).dense()
        d_qm = build_bipartite_liouvillian(basis4, 0.0, SuperPotentialKind.QM).dense()
        np.testing.assert_array_equal(d_cl, d_qm)

    def test_qm_generator_is_commutator(self, basis4):
        """QM action equals [H0 + W, rho] built directly, with W the
        potential lam (X1 - X2)^4."""
        lam = 0.3
        liou = build_bipartite_liouvillian(basis4, lam, SuperPotentialKind.QM)
        w = difference_quartic(basis4, lam)
        np.testing.assert_allclose(liou.h, basis4.free_hamiltonian() + w, atol=1e-12)
        rng = np.random.Generator(np.random.Philox(71))
        rho = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        h_full = basis4.free_hamiltonian() + w
        np.testing.assert_allclose(
            liou.apply(rho), h_full @ rho - rho @ h_full, atol=1e-10
        )

    def test_cl_minus_qm_is_the_monomials_less_the_coupling(self, basis4):
        """CL - QM is the resummed monomials, -(lam/2)[A^4, .] plus
        lam (A^3 . A - A . A^3) with A = X1 - X2: E of the one potential."""
        lam = 0.3
        d_cl = build_bipartite_liouvillian(basis4, lam, SuperPotentialKind.CL).dense()
        d_qm = build_bipartite_liouvillian(basis4, lam, SuperPotentialKind.QM).dense()
        a, eye = difference_operator(basis4), np.eye(basis4.n_levels**2)
        a3, w = np.linalg.matrix_power(a, 3), 0.5 * difference_quartic(basis4, lam)
        want = lam * (np.kron(a3, a) - np.kron(a, a3)) - (np.kron(w, eye) - np.kron(eye, w))
        np.testing.assert_allclose(d_cl - d_qm, want, atol=1e-10)

    def test_cl_is_qm_plus_e(self, basis4):
        """CL = QM + E on the relative mode: E alone, elementwise in the
        orthogonal DVR basis, is the cross-monomial superoperator of the
        dense relative generator."""
        lam = 0.3
        cl = relative_generator(basis4, lam)
        n = basis4.n_levels
        np.testing.assert_allclose(cl.basis.T @ cl.basis, np.eye(n), rtol=0, atol=1e-13)
        rng = np.random.Generator(np.random.Philox(73))
        rho = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        got = BasisLiouvillian(np.zeros((n, n)), cl.e, cl.basis).apply(rho).reshape(-1)
        d_cl = relative_dense(basis4, lam, SuperPotentialKind.CL)
        d_qm = relative_dense(basis4, lam, SuperPotentialKind.QM)
        want = (d_cl - d_qm) @ rho.reshape(-1)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_relative_generators_by_hand(self):
        """The relative mode of V(d) = lam d^4, d = sqrt 2 x_r: QM is the
        commutator with omega (n + 1/2) + 4 lam x^4, and CL the commutator
        with omega (n + 1/2) + 2 lam x^4 plus 4 lam (x^3 rho x - x rho x^3).
        The DVR mask is E = 2 lam (xi - xi')(xi + xi')^3 - 4 lam (xi^4 - xi'^4)."""
        basis, lam = BipartiteBasis(n_levels=5, omega=1.3), 0.2
        x = basis.position_operator()
        for kind in SuperPotentialKind:
            want = relative_by_hand(basis, lam, kind)
            np.testing.assert_allclose(relative_dense(basis, lam, kind), want, rtol=0,
                                       atol=1e-13)
        h = 1.3 * np.diag(np.arange(5) + 0.5) + 4 * lam * np.linalg.matrix_power(x, 4)
        cl = relative_generator(basis, lam)
        h_r, e = cl.h, cl.e
        np.testing.assert_allclose(h_r, h, rtol=0, atol=1e-13)
        xi = np.linalg.eigvalsh(x)
        bra, ket = xi[:, None], xi[None, :]
        phi = 2 * lam * (bra - ket) * (bra + ket) ** 3
        np.testing.assert_allclose(
            e, phi - 4 * lam * (bra**4 - ket**4), rtol=0, atol=1e-13 * np.max(np.abs(phi))
        )

    def test_dense_cap_fires_before_allocation(self, basis4, monkeypatch):
        monkeypatch.setattr(liouvillian, "MAX_DENSE_VEC_DIM", 100)
        for kind in SuperPotentialKind:
            # building is N x N; only the dense form meets the cap
            liou = build_bipartite_liouvillian(basis4, 0.1, kind)
            with pytest.raises(DimensionTooLarge):
                liou.dense()

    @pytest.mark.parametrize("n_levels, lam", [(4, 0.3), (6, 3e-4), (6, 0.05)])
    @pytest.mark.parametrize("kind", list(SuperPotentialKind))
    def test_square_generator_equals_the_monomial_sum(self, n_levels, lam, kind):
        """The square generator built in the position basis is the two-term
        form of the monomial sum, to rounding."""
        basis = BipartiteBasis(n_levels=n_levels)
        got = build_bipartite_liouvillian(basis, lam, kind).dense()
        want = square_two_term(basis, lam, kind)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_real_generators_stay_real(self, monkeypatch):
        """The relative-mode and square generators are real symmetric, and
        ExactEvolver hands eigh the real matrix: a complex cast would put
        them on the slower complex LAPACK driver."""
        dtypes, eigh = [], np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda m: dtypes.append(m.dtype) or eigh(m))
        basis = BipartiteBasis(n_levels=3)
        for kind in SuperPotentialKind:
            for liou in (relative_kind(basis, 0.05, kind),
                         build_bipartite_liouvillian(basis, 0.05, kind)):
                assert liou.dense().dtype == np.float64
                dtypes.clear()
                ExactEvolver(liou)
                assert dtypes == [np.float64]

    def test_string_kind_accepted(self, basis4):
        a = build_bipartite_liouvillian(basis4, 0.1, "cl").dense()
        b = build_bipartite_liouvillian(basis4, 0.1, SuperPotentialKind.CL).dense()
        np.testing.assert_array_equal(a, b)


def _map_e(f):
    """A defect that replaces a CL generator's E by f(E); a QM one passes."""
    def change(basis, gen):
        return gen if gen.e is None else BasisLiouvillian(gen.h, f(gen.e), gen.basis)
    return change


def _half_coupling(basis, gen):
    h0 = basis.free_hamiltonian()
    return BasisLiouvillian(h0 + 0.5 * (gen.h - h0), gen.e, gen.basis)


# (entangle builder, change(basis, generator)) per seeded defect
AUDIT_DEFECTS = {
    "square_e_transposed": ("build_bipartite_liouvillian", _map_e(np.transpose)),
    "square_e_halved": ("build_bipartite_liouvillian", _map_e(lambda e: 0.5 * e)),
    "square_h_half_coupling": ("build_bipartite_liouvillian", _half_coupling),
    "relative_e_negated": ("relative_generator", _map_e(np.negative)),
}


class TestGeneratorAudit:
    def test_audit_passes_and_takes_one_dense_form(self, monkeypatch):
        """The audit reads (h, E, U); its one dense form is the purity-slope
        run on the n_r 4 relative generator."""
        sizes, dense = [], BasisLiouvillian.dense
        monkeypatch.setattr(BasisLiouvillian, "dense", lambda g: sizes.append(g.n) or dense(g))
        ok, detail = validate._bipartite_generator_audit()
        assert ok, detail
        assert sizes == [4]

    @pytest.mark.parametrize("defect", sorted(AUDIT_DEFECTS))
    def test_audit_fails_a_seeded_defect(self, monkeypatch, defect):
        name, change = AUDIT_DEFECTS[defect]
        build = getattr(entangle, name)
        monkeypatch.setattr(
            entangle, name, lambda basis, *args: change(basis, build(basis, *args))
        )
        ok, detail = validate._bipartite_generator_audit()
        assert not ok, detail


class TestReducedDensity:
    def test_product_state_recovers_factor(self, basis4):
        rho1 = coherent_field_density(0.4, 3)
        rho2 = coherent_field_density(-0.7, 3)
        rho = np.kron(rho1, rho2)
        np.testing.assert_allclose(partial_trace(rho, (4, 4), 0), rho1, atol=1e-12)
        np.testing.assert_allclose(partial_trace(rho, (4, 4), 1), rho2, atol=1e-12)

    def test_maximally_entangled_two_level_pair(self):
        vec = np.zeros(4)
        vec[0] = vec[3] = 1.0 / np.sqrt(2)  # (|00> + |11>)/sqrt 2
        rho = np.outer(vec, vec)
        red = partial_trace(rho, (2, 2), 0)
        np.testing.assert_allclose(red, 0.5 * np.eye(2), atol=1e-12)

    def test_trace_preserved(self, basis4):
        rng = np.random.Generator(np.random.Philox(72))
        m = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        rho = m @ m.conj().T
        rho /= np.trace(rho)
        assert np.trace(partial_trace(rho, (4, 4), 0)) == pytest.approx(1.0, abs=1e-12)


class TestMetrics:
    def test_product_pure_state_purity_one(self, basis4):
        """A coherent product is a coherent relative state, which the loss
        channel keeps coherent: both modes stay pure."""
        assert reduced_purity(separable_state(basis4, 0.5, -0.3), 4) == pytest.approx(
            1.0, abs=1e-10
        )
        rho_r = relative_state(30, 0.5, -0.3)
        assert loss_purity(rho_r) == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.eigvalsh(rho_r)[-1] == pytest.approx(1.0, abs=1e-10)

    def test_maximally_entangled_purity(self):
        """Fock |m> of the relative mode splits into the binomial state of m
        photons: purity C(2m, m)/4^m, 1/2 for the maximally entangled
        (|10> - |01>)/sqrt 2."""
        for m in range(1, 5):
            fock = np.diag(np.eye(m + 3)[m])
            assert loss_purity(fock) == pytest.approx(comb(2 * m, m) / 4.0**m, abs=1e-12)

    @pytest.mark.parametrize("n_r", [6, 12, 20])
    def test_loss_purity_equals_kraus_sum(self, n_r):
        """The diagonal-shift sum is the Kraus form sum_k A_k rho A_k^T,
        A_k |m> = sqrt(C(m, k) 2^-m) |m - k>, on random densities."""
        kraus = np.zeros((n_r, n_r, n_r))
        for k in range(n_r):
            for m in range(k, n_r):
                kraus[k, m - k, m] = np.sqrt(comb(m, k) / 2.0**m)
        rng = np.random.Generator(np.random.Philox(n_r))
        a = rng.normal(size=(3, n_r, n_r)) + 1j * rng.normal(size=(3, n_r, n_r))
        rho = a @ np.swapaxes(a, 1, 2).conj()
        rho /= np.trace(rho, axis1=1, axis2=2).real[:, None, None]
        out = (kraus @ rho[:, None] @ kraus.transpose(0, 2, 1)).sum(axis=1)
        want = np.einsum("sij,sji->s", out, out).real
        np.testing.assert_allclose(loss_purity(rho), want, rtol=0, atol=1e-14)

    def test_qm_purity_decrease_is_quadratic_in_time(self, basis4):
        """Quartic coupling from a separable state: 1 - purity ~ (lam t)^2
        at early times (dynamically assisted entanglement generation)."""
        lam = 0.001
        # early times: all transition phases Delta_E * t stay small, so the
        # second-order (lam t)^2 law is clean
        times = np.array([0.025, 0.05, 0.1])
        states = evolve_kind(basis4, lam, SuperPotentialKind.QM, relative_state(4), times)
        drops = 1.0 - loss_purity(states)
        assert all(d > 0 for d in drops)
        slope = np.polyfit(np.log(times), np.log(drops), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.2)

    def test_purity_drop_quadratic_in_coupling(self, basis4):
        drops = []
        for lam in (0.0005, 0.001):
            states = evolve_kind(basis4, lam, SuperPotentialKind.QM, relative_state(4), [2.0])
            drops.append(1.0 - loss_purity(states[-1]))
        assert drops[1] / drops[0] == pytest.approx(4.0, abs=0.2)

    def test_beam_splitter_rebuilds_the_coherent_product(self):
        """U_BS takes |alpha_c>|alpha_r> to |alpha1>|alpha2>, alpha_c,r =
        (alpha1 +- alpha2)/sqrt 2: mode 1 is subsystem 1."""
        a1, a2 = 0.2, -0.1
        rho, m = beam_splitter_state((a1 + a2) / np.sqrt(2.0), relative_state(12, a1, a2), 12)
        want = np.kron(coherent_field_density(a1, m - 1), coherent_field_density(a2, m - 1))
        np.testing.assert_allclose(rho, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("kind", list(SuperPotentialKind))
    def test_loss_purity_equals_beam_splitter_partial_trace(self, kind):
        """Either mode of the rebuilt two-mode state has the loss-channel
        purity of rho_r, and the two-mode spectrum is rho_r's plus zeros."""
        a1, a2, n_r = 0.3, -0.2, 6
        times = np.linspace(0.0, 2.0, 5)
        states = evolve_kind(BipartiteBasis(n_levels=n_r), 0.05, kind,
                             relative_state(n_r, a1, a2), times)
        for rho_r in states:
            rho, m = beam_splitter_state((a1 + a2) / np.sqrt(2.0), rho_r, 10)
            for keep in (0, 1):
                red = partial_trace(rho, (m, m), keep)
                assert np.trace(red @ red).real == pytest.approx(
                    loss_purity(rho_r), rel=0, abs=1e-12
                )
            full = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))
            least = np.linalg.eigvalsh(0.5 * (rho_r + rho_r.conj().T))[0]
            assert full[0] == pytest.approx(min(least, 0.0), rel=0, abs=1e-12)
        if kind is SuperPotentialKind.CL:
            # CL pushes an eigenvalue of rho_r below zero
            assert np.linalg.eigvalsh(states[-1])[0] < -1e-6


class TestCompare:
    def test_lambda_zero_series_identical_and_flat(self, basis4):
        # ground (x) ground: a truncated coherent state would itself carry
        # top-level weight and trip the leak guard
        cols, _, _ = compare_cl_qm_entanglement(basis4, 0.0, 0.0, 0.0, 2.0, 4)
        np.testing.assert_allclose(cols["purity_cl"], cols["purity_qm"], rtol=0, atol=1e-12)
        np.testing.assert_allclose(cols["purity_qm"], 1.0, rtol=0, atol=1e-10)

    def test_small_coupling_entangles_and_conserves(self):
        # n_r 4 is too few: the CL run puts 3.2e-6 into the top level by t = 1.6
        cols, _, _ = compare_cl_qm_entanglement(
            BipartiteBasis(n_levels=6), 0.0003, 0.0, 0.0, 2.0, 5
        )
        assert list(cols) == [
            "t", "purity_cl", "purity_qm", "min_eig_cl", "min_eig_qm",
            "trace_drift_cl", "trace_drift_qm",
        ]
        assert all(col.shape == (6,) for col in cols.values())
        assert cols["purity_qm"][-1] < 1.0
        assert np.all(cols["trace_drift_cl"] < 1e-8)
        assert np.all(cols["trace_drift_qm"] < 1e-8)
        # QM evolution is unitary on the tensor space: stays positive
        assert np.all(cols["min_eig_qm"] > -1e-8)

    def test_columns_equal_per_state_definitions(self):
        # six levels keep the truncated coherent state's top level below the guard
        basis, a1, a2 = BipartiteBasis(n_levels=6), 0.2, -0.1
        cols, paths, margins = compare_cl_qm_entanglement(basis, 0.0003, a1, a2, 2.0, 8)
        times = cols["t"]
        np.testing.assert_array_equal(times, np.linspace(0.0, 2.0, 9))
        assert paths == "eigh"
        assert set(margins) == {
            "max_top_level_population_cl", "max_top_level_population_qm", "max_trace_drift"
        }
        assert margins["max_trace_drift"] == max(
            np.max(cols["trace_drift_cl"]), np.max(cols["trace_drift_qm"])
        )
        n = basis.n_levels

        def loss(rho):
            """The channel term by term: A_k rho A_k^T summed over k."""
            out = np.zeros_like(rho)
            for k in range(n):
                a_k = np.zeros((n, n))
                for m in range(k, n):
                    a_k[m - k, m] = np.sqrt(comb(m, k) * 0.5**m)
                out += a_k @ rho @ a_k.T
            return out

        for kind in SuperPotentialKind:
            tag = kind.value
            states = evolve_kind(basis, 0.0003, kind, relative_state(n, a1, a2), times)
            assert margins[f"max_top_level_population_{tag}"] == pytest.approx(
                max(abs(rho[-1, -1].real) for rho in states), rel=0, abs=1e-15
            )
            want = np.array([
                (
                    np.trace(loss(rho) @ loss(rho)).real,
                    np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))[0],
                    abs(np.trace(rho).real - 1.0),
                )
                for rho in states
            ])
            got = np.column_stack(
                [cols[f"purity_{tag}"], cols[f"min_eig_{tag}"], cols[f"trace_drift_{tag}"]]
            )
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)

    def test_metrics_of_a_stack_equal_those_of_each_state(self, basis4):
        rng = np.random.Generator(np.random.Philox(23))
        stack = rng.normal(size=(3, 4, 4)) + 1j * rng.normal(size=(3, 4, 4))
        pur = loss_purity(stack)
        assert pur.shape == (3,)
        for k, rho in enumerate(stack):
            assert pur[k] == pytest.approx(loss_purity(rho), abs=1e-12)

    def test_truncation_leak_guard(self):
        basis = BipartiteBasis(n_levels=3)
        with pytest.raises(TruncationLeak, match="run leaked"):
            compare_cl_qm_entanglement(basis, 0.2, 0.0, 0.0, 2.0, 4)

    def test_top_level_population_of_ground_state(self, basis4):
        _, _, margins = compare_cl_qm_entanglement(basis4, 0.0, 0.0, 0.0, 1.0, 1)
        for tag in ("cl", "qm"):
            assert margins[f"max_top_level_population_{tag}"] == pytest.approx(0.0, abs=1e-15)


# Measured gaps between the square route at n_levels 8 and the relative route
# at lam 3e-4, t in [0, 2], alpha (0.3, 0) and (0.2, 0.1): purity 1.9e-10 at
# n_r 8, where the relative truncation's own error dominates, and 3.4e-12 at
# n_r 10 and 12; min_eig 1.7e-9 at n_r 8 and 4.2e-10 at n_r 10 and 12, the
# square truncation's own error.
SQUARE_GAP_BOUNDS = {8: (1e-9, 5e-9), 10: (1e-11, 1e-9), 12: (1e-11, 1e-9)}


@pytest.fixture(scope="module")
def square_n8_series():
    """Purity and least eigenvalue of the square route at n_levels 8, by
    (alpha1, alpha2, kind)."""
    basis, times, out = BipartiteBasis(n_levels=8), np.linspace(0.0, 2.0, 41), {}
    for a1, a2 in ((0.3, 0.0), (0.2, 0.1)):
        for kind in SuperPotentialKind:
            states = square_states(basis, 3e-4, kind, separable_state(basis, a1, a2), times)
            herm = 0.5 * (states + states.conj().transpose(0, 2, 1))
            out[a1, a2, kind.value] = (
                reduced_purity(states, 8), np.linalg.eigvalsh(herm)[:, 0]
            )
    return times, out


class TestStructuredEvolution:
    @pytest.mark.parametrize("n_levels", [3, 4])
    @pytest.mark.parametrize("lam", [3e-4, 0.05, 0.3])
    @pytest.mark.parametrize("kind", list(SuperPotentialKind))
    def test_states_equal_dense_exact_evolution(self, n_levels, lam, kind):
        """The relative route against scipy's expm of its dense n_r^2
        generator summed from the monomials."""
        basis = BipartiteBasis(n_levels=n_levels)
        rho0 = relative_state(n_levels, 0.2, -0.1)
        dense = relative_dense(basis, lam, kind)
        times = np.linspace(0.0, 3.0, 13)
        states = evolve_kind(basis, lam, kind, rho0, times)
        assert states.shape == (13, n_levels, n_levels)
        for t, rho in zip(times, states):
            want = scipy.linalg.expm(-1j * dense * t) @ rho0.reshape(-1)
            np.testing.assert_allclose(rho.reshape(-1), want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("lam", [3e-4, 0.3])
    @pytest.mark.parametrize("kind", list(SuperPotentialKind))
    def test_states_equal_a_taylor_exponential(self, lam, kind):
        """The relative route (one eigh) at n_r 6 against scipy's
        expm_multiply of the hand-built relative generator."""
        basis = BipartiteBasis(n_levels=6)
        rho0 = relative_state(6, 0.2, -0.1)
        times = np.linspace(0.0, 3.0, 13)
        want = exponential_states(relative_by_hand(basis, lam, kind), rho0, times)
        got = evolve_kind(basis, lam, kind, rho0, times)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_square_route_agrees_at_small_size(self):
        """The sparse two-term form of ``square_states`` is the dense square
        generator."""
        basis = BipartiteBasis(n_levels=3)
        rho0 = separable_state(basis, 0.2, -0.1)
        times = np.linspace(0.0, 3.0, 7)
        for kind in SuperPotentialKind:
            ev = ExactEvolver(build_bipartite_liouvillian(basis, 0.05, kind))
            states = square_states(basis, 0.05, kind, rho0, times)
            np.testing.assert_allclose(states, ev.propagate(rho0, times), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n_r", sorted(SQUARE_GAP_BOUNDS))
    def test_square_route_converges_onto_relative_route(self, square_n8_series, n_r):
        times, square = square_n8_series
        purity_bound, eig_bound = SQUARE_GAP_BOUNDS[n_r]
        for (a1, a2, tag), (purity, least) in square.items():
            cols, _, _ = compare_cl_qm_entanglement(
                BipartiteBasis(n_levels=n_r), 3e-4, a1, a2, times[-1], len(times) - 1
            )
            np.testing.assert_array_equal(cols["t"], times)
            assert np.max(np.abs(cols[f"purity_{tag}"] - purity)) <= purity_bound
            assert np.max(np.abs(cols[f"min_eig_{tag}"] - least)) <= eig_bound


# The grid route shares neither the DVR construction nor _difference_quartic:
# its kinetic term is an FFT.  The relative mode is x^2/2 + 4 lam x^4 in one
# dimension (omega 1), from the Gaussian of alpha_r.  Measured at lam 3e-4,
# alpha_r 0.2, t = 2, on 128 points of span 8 and 400 Strang steps: each
# moment of either kind is within 2.7e-6 of the grid (the grid's own error),
# and the CL - QM differences agree to 3.2e-9 (<x_r>) and 1.6e-8 (<x_r^2>) at
# n_r 8 and to 3e-11 and 2e-10 at n_r 12, because the grid errors cancel.
GRID_LAM, GRID_ALPHA_R, GRID_T = 3e-4, 0.2, 2.0


@pytest.fixture(scope="module")
def grid_relative_moments():
    """(<x_r>, <x_r^2>) at GRID_T of the grid run, by kind."""
    grid = SuperGrid.centered(8.0, 128)
    v = PolynomialPotential((0.0, 0.0, 0.5, 0.0, 4 * GRID_LAM))
    sd = gaussian_super_density(grid, np.sqrt(2.0) * GRID_ALPHA_R, 0.0,
                                1 / np.sqrt(2.0), 1 / np.sqrt(2.0))
    cfg, out = EvolutionConfig(t1=GRID_T, n_steps=400), {}
    for kind in SuperPotentialKind:
        m = moments(evolve_trotter(v, grid, kind, sd, cfg))
        out[kind] = np.array([m.x, m.x2])
    return out


class TestGridOracle:
    @pytest.mark.parametrize("n_r", [8, 12])
    def test_relative_route_matches_the_grid(self, grid_relative_moments, n_r):
        """Both relative kinds evolve the one potential lam (x1 - x2)^4:
        tr(x rho_r) and tr(x^2 rho_r) match the grid run of that kind, and
        CL - QM matches the grid's CL - QM."""
        basis = BipartiteBasis(n_levels=n_r)
        x = basis.position_operator()
        rho0 = coherent_field_density(GRID_ALPHA_R, n_r - 1)
        got = {}
        for kind in SuperPotentialKind:
            (rho,) = evolve_kind(basis, GRID_LAM, kind, rho0, [GRID_T])
            got[kind] = np.array([np.trace(x @ rho).real, np.trace(x @ x @ rho).real])
            assert np.max(np.abs(got[kind] - grid_relative_moments[kind])) <= 1e-5
        cl, qm = SuperPotentialKind.CL, SuperPotentialKind.QM
        gap = (got[cl] - got[qm]) - (grid_relative_moments[cl] - grid_relative_moments[qm])
        assert np.max(np.abs(gap)) <= 1e-7


class TestHermiticityAndTrace:
    @pytest.mark.parametrize("kind", list(SuperPotentialKind))
    def test_evolution_preserves_hermiticity(self, basis4, kind):
        ev = ExactEvolver(build_bipartite_liouvillian(basis4, 0.0005, kind))
        rho0 = separable_state(basis4, 0.2, -0.1)
        (rho,) = ev.propagate(rho0, [3.0])
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-10
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-10)
