import numpy as np
import pytest

from liouspace.entangle import (
    BipartiteBasis,
    build_bipartite_liouvillian,
    compare_cl_qm_entanglement,
    bipartite_generator,
    entanglement_metrics,
    interaction_terms,
    pure_bra_polynomial,
    separable_state,
    top_level_population,
)
from liouspace import liouvillian
from liouspace.errors import DimensionTooLarge, TruncationLeak
from liouspace.evolution import KRYLOV_MAX_DIM, ExactEvolver, basis_action, evolve_basis
from liouspace.jaynescummings import coherent_field_density, partial_trace
from liouspace.potential import MonomialClass, SuperPotentialKind

CROSS_CLASSES = {
    MonomialClass.INTRA_SUBSYSTEM_MIXED,
    MonomialClass.INTER_SPACE_CROSS,
}


def evolve_kind(basis, lam, kind, rho0, times):
    """The states over times through the one structured route."""
    h, e, r = bipartite_generator(basis, lam, kind)
    return evolve_basis(h, rho0, times, e, r)[0]


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
        pure-bra polynomial (lam/2)(X1 - X2)^4."""
        lam = 0.3
        liou = build_bipartite_liouvillian(basis4, lam, SuperPotentialKind.QM)
        w = pure_bra_polynomial(basis4, lam)
        x = basis4.position_operator()
        eye = np.eye(4)
        direct = 0.5 * lam * np.linalg.matrix_power(
            np.kron(x, eye) - np.kron(eye, x), 4
        )
        np.testing.assert_allclose(w, direct, atol=1e-12)
        rng = np.random.Generator(np.random.Philox(71))
        rho = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        h_full = basis4.free_hamiltonian() + w
        np.testing.assert_allclose(
            liou.apply(rho), h_full @ rho - rho @ h_full, atol=1e-10
        )

    def test_cl_minus_qm_is_exactly_the_cross_terms(self, basis4):
        lam = 0.3
        d_cl = build_bipartite_liouvillian(basis4, lam, SuperPotentialKind.CL).dense()
        d_qm = build_bipartite_liouvillian(basis4, lam, SuperPotentialKind.QM).dense()
        cross = interaction_terms(basis4, lam, classes=CROSS_CLASSES)
        np.testing.assert_allclose(d_cl - d_qm, cross, atol=1e-10)

    def test_cl_is_qm_plus_e(self, basis4):
        """CL = QM + E: both kinds share h exactly, and the E term alone is
        the cross-monomial superoperator."""
        lam = 0.3
        h_cl, e, r = bipartite_generator(basis4, lam, SuperPotentialKind.CL)
        h_qm, e_qm, r_qm = bipartite_generator(basis4, lam, SuperPotentialKind.QM)
        np.testing.assert_array_equal(h_cl, h_qm)
        assert e_qm is None and r_qm is None
        np.testing.assert_allclose(r.T @ r, np.eye(basis4.dim), rtol=0, atol=1e-13)
        rng = np.random.Generator(np.random.Philox(73))
        rho = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        got = basis_action(np.zeros((16, 16)), e, r)(rho).reshape(-1)
        want = interaction_terms(basis4, lam, classes=CROSS_CLASSES) @ rho.reshape(-1)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_pure_terms_reproduce_commutator_part(self, basis4):
        lam = 0.4
        pure = interaction_terms(
            basis4, lam, classes={MonomialClass.PURE_BRA, MonomialClass.PURE_KET}
        )
        w = pure_bra_polynomial(basis4, lam)
        eye = np.eye(basis4.dim)
        np.testing.assert_allclose(
            pure, np.kron(w, eye) - np.kron(eye, w.conj()), atol=1e-10
        )

    def test_dense_cap_fires_before_allocation(self, basis4, monkeypatch):
        monkeypatch.setattr(liouvillian, "MAX_DENSE_VEC_DIM", 100)
        with pytest.raises(DimensionTooLarge):
            build_bipartite_liouvillian(basis4, 0.1, SuperPotentialKind.CL)
        # the QM kind builds no N^2 x N^2 matrix, so the cap does not apply
        build_bipartite_liouvillian(basis4, 0.1, SuperPotentialKind.QM)

    def test_string_kind_accepted(self, basis4):
        a = build_bipartite_liouvillian(basis4, 0.1, "cl").dense()
        b = build_bipartite_liouvillian(basis4, 0.1, SuperPotentialKind.CL).dense()
        np.testing.assert_array_equal(a, b)


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
        rho = separable_state(basis4, 0.5, -0.3)
        pur, eig = entanglement_metrics(rho, 4)
        assert pur == pytest.approx(1.0, abs=1e-10)
        assert eig[0] == pytest.approx(1.0, abs=1e-10)

    def test_maximally_entangled_purity(self):
        d = 3
        vec = np.zeros(d * d)
        for k in range(d):
            vec[k * d + k] = 1.0 / np.sqrt(d)
        pur, _ = entanglement_metrics(np.outer(vec, vec), d)
        assert pur == pytest.approx(1.0 / d, abs=1e-12)

    def test_qm_purity_decrease_is_quadratic_in_time(self, basis4):
        """Quartic coupling from a separable state: 1 - purity ~ (lam t)^2
        at early times (dynamically assisted entanglement generation)."""
        lam = 0.001
        ev = ExactEvolver(build_bipartite_liouvillian(basis4, lam, SuperPotentialKind.QM))
        rho0 = separable_state(basis4)
        # early times: all transition phases Delta_E * t stay small, so the
        # second-order (lam t)^2 law is clean
        times = np.array([0.025, 0.05, 0.1])
        drops = []
        for t in times:
            pur, _ = entanglement_metrics(ev.propagate(rho0, float(t)), 4)
            drops.append(1.0 - pur)
        assert all(d > 0 for d in drops)
        slope = np.polyfit(np.log(times), np.log(drops), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.2)

    def test_purity_drop_quadratic_in_coupling(self, basis4):
        rho0 = separable_state(basis4)
        drops = []
        for lam in (0.0005, 0.001):
            ev = ExactEvolver(
                build_bipartite_liouvillian(basis4, lam, SuperPotentialKind.QM)
            )
            pur, _ = entanglement_metrics(ev.propagate(rho0, 2.0), 4)
            drops.append(1.0 - pur)
        assert drops[1] / drops[0] == pytest.approx(4.0, abs=0.2)


class TestCompare:
    def test_lambda_zero_series_identical_and_flat(self, basis4):
        # ground (x) ground: a truncated coherent state would itself carry
        # top-level weight and trip the leak guard
        rho0 = separable_state(basis4)
        cols, _, _ = compare_cl_qm_entanglement(basis4, 0.0, rho0, np.linspace(0, 2, 5))
        np.testing.assert_allclose(cols["purity_cl"], cols["purity_qm"], rtol=0, atol=1e-12)
        np.testing.assert_allclose(cols["purity_qm"], 1.0, rtol=0, atol=1e-10)

    def test_small_coupling_entangles_and_conserves(self, basis4):
        rho0 = separable_state(basis4)
        cols, _, _ = compare_cl_qm_entanglement(basis4, 0.0003, rho0, np.linspace(0, 2, 6))
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

    def test_columns_equal_per_state_definitions(self, basis4):
        rho0 = separable_state(basis4)
        times = np.linspace(0.0, 2.0, 9)
        cols, paths, margins = compare_cl_qm_entanglement(basis4, 0.0003, rho0, times)
        np.testing.assert_array_equal(cols["t"], times)
        assert paths == {"cl": "krylov", "qm": "eigh"}
        assert set(margins) == {
            "max_top_level_population_cl", "max_top_level_population_qm",
            "max_krylov_error_estimate_cl", "krylov_generator_calls_cl",
            "krylov_max_basis_dim_cl",
        }
        assert 1 <= margins["krylov_max_basis_dim_cl"] <= KRYLOV_MAX_DIM
        for kind in SuperPotentialKind:
            tag = kind.value
            states = evolve_kind(basis4, 0.0003, kind, rho0, times)
            assert margins[f"max_top_level_population_{tag}"] == pytest.approx(
                max(top_level_population(rho, 4) for rho in states), rel=0, abs=1e-15
            )
            want = np.array([
                (
                    np.trace(partial_trace(rho, (4, 4), 0) @ partial_trace(rho, (4, 4), 0)).real,
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
        stack = rng.normal(size=(3, 16, 16)) + 1j * rng.normal(size=(3, 16, 16))
        pur, eig = entanglement_metrics(stack, 4)
        assert pur.shape == (3,) and eig.shape == (3, 16)
        for k, rho in enumerate(stack):
            one_pur, one_eig = entanglement_metrics(rho, 4)
            assert pur[k] == pytest.approx(one_pur, abs=1e-12)
            np.testing.assert_allclose(eig[k], one_eig, rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            top_level_population(stack, 4),
            [top_level_population(rho, 4) for rho in stack],
            rtol=0, atol=1e-14,
        )

    def test_truncation_leak_guard(self):
        basis = BipartiteBasis(n_levels=3)
        rho0 = separable_state(basis)
        with pytest.raises(TruncationLeak, match="run leaked"):
            compare_cl_qm_entanglement(basis, 0.2, rho0, np.linspace(0, 2, 5))

    def test_non_uniform_grid_rejected(self, basis4):
        rho0 = separable_state(basis4)
        with pytest.raises(ValueError, match="evenly spaced"):
            compare_cl_qm_entanglement(basis4, 0.0003, rho0, [0.0, 0.5, 2.0])

    def test_top_level_population_of_ground_state(self, basis4):
        assert top_level_population(separable_state(basis4), 4) == pytest.approx(
            0.0, abs=1e-15
        )


class TestStructuredEvolution:
    @pytest.mark.parametrize("n_levels", [3, 4])
    @pytest.mark.parametrize("lam", [3e-4, 0.05, 0.3])
    @pytest.mark.parametrize("kind", list(SuperPotentialKind))
    def test_states_equal_dense_exact_evolution(self, n_levels, lam, kind):
        basis = BipartiteBasis(n_levels=n_levels)
        rho0 = separable_state(basis, 0.2, -0.1)
        ev = ExactEvolver(build_bipartite_liouvillian(basis, lam, kind))
        times = np.linspace(0.0, 3.0, 13)
        states = evolve_kind(basis, lam, kind, rho0, times)
        assert states.shape == (13, basis.dim, basis.dim)
        for t, rho in zip(times, states):
            np.testing.assert_allclose(rho, ev.propagate(rho0, float(t)), rtol=0, atol=1e-12)


class TestHermiticityAndTrace:
    @pytest.mark.parametrize("kind", list(SuperPotentialKind))
    def test_evolution_preserves_hermiticity(self, basis4, kind):
        ev = ExactEvolver(build_bipartite_liouvillian(basis4, 0.0005, kind))
        rho0 = separable_state(basis4, 0.2, -0.1)
        rho = ev.propagate(rho0, 3.0)
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-10
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-10)
