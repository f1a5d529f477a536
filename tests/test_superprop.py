import numpy as np
import pytest

from liouspace.evolution import EvolutionConfig, EvolveMethod, evolve_trotter
from liouspace.potential import PolynomialPotential, SuperPotentialKind
from liouspace.superprop import (
    PropagatorPoint,
    apply_free_superpropagator,
    dyson_first_order_numeric,
    first_order_superpropagator,
    free_moment_integral,
    free_propagator,
    free_superpropagator,
    gamma_cl,
    gamma_qm,
)
from liouspace.superspace import SuperGrid, gaussian_super_density, moments


class TestFreePropagator:
    def test_modulus_at_unit_time(self):
        assert abs(free_propagator(0.3, 0.3, 1.0)) == pytest.approx(
            (2.0 * np.pi) ** -0.5, abs=1e-14
        )

    def test_modulus_independent_of_displacement(self):
        vals = free_propagator(np.linspace(-3, 3, 11), 0.0, 0.7)
        np.testing.assert_allclose(np.abs(vals), np.abs(vals[0]), rtol=1e-14)

    def test_nonpositive_time_raises(self):
        with pytest.raises(ValueError):
            free_propagator(0.0, 0.0, 0.0)

    def test_semigroup_by_oscillatory_quadrature(self):
        """int dz G0(x,z;T1) G0(z,y;T2) = G0(x,y;T1+T2); the tails are
        tapered smoothly so the non-decaying oscillation integrates out."""
        x, y, t1, t2 = 0.7, -0.4, 0.6, 0.9
        n = 2**17
        z = np.linspace(-80.0, 80.0, n)
        f = free_propagator(x, z, t1) * free_propagator(z, y, t2)
        window = np.ones(n)
        edge = n // 4
        ramp = 0.5 * (1.0 - np.cos(np.pi * np.arange(edge) / edge))
        window[:edge] *= ramp
        window[-edge:] *= ramp[::-1]
        val = np.sum(f * window) * (z[1] - z[0])
        want = complex(free_propagator(x, y, t1 + t2))
        assert abs(val - want) < 1e-4


class TestFreeSuperpropagator:
    def test_factorizes(self):
        pt = PropagatorPoint(0.5, -0.3, 1.1, 0.2, 0.8, mass=1.3, hbar=0.9)
        want = free_propagator(0.5, 1.1, 0.8, 1.3, 0.9) * np.conj(
            free_propagator(-0.3, 0.2, 0.8, 1.3, 0.9)
        )
        assert free_superpropagator(pt) == pytest.approx(complex(want), abs=1e-15)

    def test_diagonal_value_is_real_positive(self):
        pt = PropagatorPoint(0.7, 0.7, -0.2, -0.2, 1.3, mass=1.1)
        val = free_superpropagator(pt)
        assert val.imag == pytest.approx(0.0, abs=1e-15)
        assert val.real == pytest.approx(1.1 / (2 * np.pi * 1.3), abs=1e-12)

    def test_conjugation_symmetry_under_swap(self):
        pt = PropagatorPoint(0.4, -0.8, 1.2, 0.1, 0.6)
        swapped = PropagatorPoint(-0.8, 0.4, 0.1, 1.2, 0.6)
        assert free_superpropagator(pt) == pytest.approx(
            np.conj(free_superpropagator(swapped)), abs=1e-15
        )

    def test_gaussian_transport_matches_trotter(self):
        grid = SuperGrid.centered(8.0, 64)
        sd = gaussian_super_density(grid, -1.0, 1.2, 0.5, 0.6)
        out = apply_free_superpropagator(sd, 1.0)
        cfg = EvolutionConfig(t1=1.0, n_steps=1, method=EvolveMethod.TROTTER_STRANG)
        ref = evolve_trotter(
            PolynomialPotential.free(), grid, SuperPotentialKind.CL, sd, cfg
        )
        got, want = moments(out), moments(ref)
        assert got.x == pytest.approx(want.x, abs=1e-4)
        assert got.p == pytest.approx(want.p, abs=1e-4)


class TestGammaFunctions:
    def test_gamma_qm_frozen_values(self):
        # independent symbolic evaluation, cross-checked against the Dyson
        # quadrature below
        assert gamma_qm(PropagatorPoint(1, 0, 1, 0, 1.0)) == pytest.approx(1 + 1j)
        assert gamma_qm(PropagatorPoint(1, 1, 0, 0, 1.0)) == pytest.approx(0.6j)

    def test_gamma_cl_frozen_values(self):
        assert gamma_cl(PropagatorPoint(1, 0, 1, 0, 1.0)) == pytest.approx(0.0)
        assert gamma_cl(PropagatorPoint(1, 1, 0, 0, 1.0)) == pytest.approx(0.6j)

    def test_purely_imaginary_on_bra_ket_diagonal(self):
        rng = np.random.Generator(np.random.Philox(51))
        for _ in range(20):
            a, b = rng.uniform(-2, 2, size=2)
            t = rng.uniform(0.2, 1.5)
            pt = PropagatorPoint(a, a, b, b, t)
            assert gamma_qm(pt).real == pytest.approx(0.0, abs=1e-12)
            assert gamma_cl(pt).real == pytest.approx(0.0, abs=1e-12)

    def test_exchange_structure(self):
        # Gamma(Q,q;Q',q') = -conj(Gamma(q,Q;q',Q')) for both functions
        rng = np.random.Generator(np.random.Philox(52))
        for _ in range(20):
            qf, kf, qi, ki = rng.uniform(-2, 2, size=4)
            t = rng.uniform(0.2, 1.5)
            pt = PropagatorPoint(qf, kf, qi, ki, t)
            sw = PropagatorPoint(kf, qf, ki, qi, t)
            assert gamma_qm(pt) == pytest.approx(-np.conj(gamma_qm(sw)), abs=1e-12)
            assert gamma_cl(pt) == pytest.approx(-np.conj(gamma_cl(sw)), abs=1e-12)

    @pytest.mark.parametrize(
        "kind, c1_c2", [(SuperPotentialKind.QM, (1.0, 0.0)), (SuperPotentialKind.CL, (0.5, 0.5))]
    )
    def test_coefficients(self, kind, c1_c2):
        """(C1, C2) solved from G = G0 (1 - (i/hbar) lam [C1 Gamma_QM +
        C2 Gamma_CL]) at two points."""
        lam = 0.3
        pts = [
            PropagatorPoint(0.4, -0.2, 0.9, 0.3, 0.7, hbar=1.1),
            PropagatorPoint(-1.0, 0.5, 0.2, 0.8, 1.3, mass=0.9),
        ]
        combos = [
            (1.0 - first_order_superpropagator(pt, lam, kind) / free_superpropagator(pt))
            * pt.hbar / (1j * lam)
            for pt in pts
        ]
        gammas = [[gamma_qm(pt), gamma_cl(pt)] for pt in pts]
        np.testing.assert_allclose(np.linalg.solve(gammas, combos), c1_c2, rtol=0, atol=1e-12)


class TestFirstOrder:
    def test_lambda_zero_gives_free(self):
        pt = PropagatorPoint(0.4, -0.2, 0.9, 0.3, 0.7)
        assert first_order_superpropagator(
            pt, 0.0, SuperPotentialKind.CL
        ) == pytest.approx(free_superpropagator(pt))

    def test_cl_correction_is_half_qm_where_gamma_cl_vanishes(self):
        # at (1,0,1,0) Gamma_CL = 0, so the classical correction is the
        # quantum one reduced by the overall factor 1/2
        pt = PropagatorPoint(1, 0, 1, 0, 1.0)
        g0 = free_superpropagator(pt)
        d_cl = first_order_superpropagator(pt, 0.3, SuperPotentialKind.CL) - g0
        d_qm = first_order_superpropagator(pt, 0.3, SuperPotentialKind.QM) - g0
        assert d_cl == pytest.approx(0.5 * d_qm, abs=1e-14)

    def test_closed_form_matches_dyson_quadrature(self):
        """Both coefficient sets against the independent moment-reduced
        triple integral, at 10 random endpoint tuples."""
        rng = np.random.Generator(np.random.Philox(53))
        lam = 0.4
        for _ in range(10):
            ends = rng.uniform(-1.5, 1.5, size=4)
            t = rng.uniform(0.3, 1.2)
            m, hb = rng.uniform(0.7, 1.4), rng.uniform(0.7, 1.4)
            pt = PropagatorPoint(*ends, t, mass=m, hbar=hb)
            for kind in SuperPotentialKind:
                closed = first_order_superpropagator(pt, lam, kind) - free_superpropagator(pt)
                numeric = dyson_first_order_numeric(pt, lam, kind)
                assert abs(closed - numeric) < 1e-3 * max(abs(closed), 1e-12)

    def test_tau_rule_is_exact(self):
        """The reduced tau integrand is a quartic polynomial, so the
        three-node Gauss-Legendre rule meets the closed form to rounding."""
        rng = np.random.Generator(np.random.Philox(54))
        worst = 0.0
        for _ in range(50):
            pt = PropagatorPoint(
                *rng.uniform(-1.5, 1.5, size=4), rng.uniform(0.1, 2.0),
                mass=rng.uniform(0.5, 2.0), hbar=rng.uniform(0.5, 2.0),
            )
            for kind in SuperPotentialKind:
                closed = first_order_superpropagator(pt, 0.4, kind) - free_superpropagator(pt)
                numeric = dyson_first_order_numeric(pt, 0.4, kind)
                worst = max(worst, abs(closed - numeric) / abs(closed))
        assert worst < 1e-11

    def test_dyson_zero_coupling(self):
        pt = PropagatorPoint(0.5, 0.1, -0.3, 0.8, 0.9)
        assert dyson_first_order_numeric(pt, 0.0, SuperPotentialKind.QM) == 0.0

    def test_dyson_linear_in_lambda(self):
        pt = PropagatorPoint(0.5, 0.1, -0.3, 0.8, 0.9)
        one = dyson_first_order_numeric(pt, 0.25, SuperPotentialKind.CL)
        two = dyson_first_order_numeric(pt, 0.5, SuperPotentialKind.CL)
        assert two == pytest.approx(2.0 * one, abs=1e-12 * abs(two))

    def test_first_order_correction_scales_linearly_in_duration(self):
        """At small T the polynomial part of Gamma dominates and the
        relative correction magnitude grows with slope 1 in log T."""
        lam = 0.2
        durations = np.geomspace(0.01, 0.1, 6)
        mags = []
        for t in durations:
            pt = PropagatorPoint(1.1, -0.4, 0.6, 0.2, t)
            combo = 0.5 * gamma_qm(pt) + 0.5 * gamma_cl(pt)
            mags.append(abs(lam * combo))
        slope = np.polyfit(np.log(durations), np.log(mags), 1)[0]
        assert slope == pytest.approx(1.0, abs=0.1)

    def test_moment_integral_semigroup(self):
        # k = 0 reduces to the semigroup identity: M_0 / G0(total) = 1
        val = free_moment_integral(0.7, -0.2, 0.4, 0.9, 0, 1.0, 1.0)
        assert val == pytest.approx(1.0, abs=1e-14)
