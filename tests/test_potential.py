import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly
from hypothesis import given
from hypothesis import strategies as st

from liouspace.potential import (
    MonomialClass,
    PolynomialPotential,
    SuperPotentialKind,
    classify_bipartite_terms,
    classify_monomial,
    coulomb_e_of_radii,
    e_superoperator,
    e_vanishes_identically,
    super_potential,
    super_potential_monomials,
)

finite_coeff = st.floats(-3.0, 3.0)
coord = st.floats(-4.0, 4.0)


def random_potential(rng, degree):
    coeffs = rng.uniform(-2, 2, size=degree + 1)
    coeffs[-1] = coeffs[-1] or 1.0
    return PolynomialPotential(tuple(coeffs))


def grid_max_abs_e(v):
    """max |E(Q, q)| over a uniform 64 x 64 grid on [-2, 2]^2, the grid of
    ``validate``'s kill-switch check."""
    pts = np.linspace(-2.0, 2.0, 64)
    return float(np.max(np.abs(e_superoperator(v, pts[:, None], pts[None, :]))))


def bipartite_cl(lam, q1_bra, q1_ket, q2_bra, q2_ket):
    """The CL superpotential of lam (x1 - x2)^4 in the difference coordinates."""
    return super_potential(
        PolynomialPotential.quartic(lam), SuperPotentialKind.CL, q1_bra - q2_bra, q1_ket - q2_ket
    )


class TestPolynomialPotential:
    def test_degree_strips_trailing_zeros(self):
        assert PolynomialPotential((1.0, 2.0, 0.0, 0.0)).degree == 1
        assert PolynomialPotential((0.0,)).degree == 0

    def test_derivative_degree(self):
        v = PolynomialPotential((1.0, 2.0, 3.0, 4.0))
        assert v.derivative().degree == v.degree - 1
        assert PolynomialPotential((5.0,)).derivative().degree == 0

    @pytest.mark.parametrize("degree", range(7))
    def test_derivative_bit_identical_to_polyder(self, degree):
        """k c_k keeps every bit of numpy's polyder, the oracle left on the
        test side so that the package does not import numpy.polynomial."""
        rng = np.random.Generator(np.random.Philox(100 + degree))
        v = random_potential(rng, degree)
        np.testing.assert_array_equal(
            v.derivative().coefficients, npoly.polyder(v.coefficients)
        )

    def test_horner_matches_direct(self):
        v = PolynomialPotential((1.0, -2.0, 0.5, 0.25))
        x = np.linspace(-3, 3, 7)
        direct = 1.0 - 2.0 * x + 0.5 * x**2 + 0.25 * x**3
        np.testing.assert_allclose(v.value(x), direct, rtol=1e-14)

    @pytest.mark.parametrize("coeffs", [(np.nan,), (0.0, np.inf), (1.0, -np.inf, 0.0)])
    def test_non_finite_coefficient_rejected(self, coeffs):
        with pytest.raises(ValueError, match="finite"):
            PolynomialPotential(coeffs)


class TestSuperPotential:
    def test_quartic_cl_value(self):
        # (2-1) * 4 * 1.5^3 = 13.5, equal to the expanded quartic form
        v = PolynomialPotential.quartic(1.0)
        got = super_potential(v, SuperPotentialKind.CL, 2.0, 1.0)
        assert got == pytest.approx(13.5, abs=1e-12)
        lam = 1.0
        expanded = 0.5 * lam * (2.0**4 - 1.0 + 2 * (8.0 - 2.0))
        assert got == pytest.approx(expanded, abs=1e-12)

    def test_cubic_cl_value(self):
        # (Q - q) V'((Q+q)/2) with V = x^3: 2 * 3 * 1^2 = 6
        v = PolynomialPotential((0.0, 0.0, 0.0, 1.0))
        assert super_potential(v, SuperPotentialKind.CL, 2.0, 0.0) == pytest.approx(6.0)

    @given(
        coeffs=st.lists(finite_coeff, min_size=1, max_size=6),
        q=coord,
    )
    def test_diagonal_vanishes(self, coeffs, q):
        v = PolynomialPotential(tuple(coeffs))
        for kind in SuperPotentialKind:
            assert super_potential(v, kind, q, q) == pytest.approx(0.0, abs=1e-9)

    def test_quartic_identity_random_points(self):
        # CL superpotential for lam x^4 equals (lam/2)(Q^4 - q^4 + 2(Q^3 q - Q q^3))
        rng = np.random.Generator(np.random.Philox(1))
        lam = 0.7
        v = PolynomialPotential.quartic(lam)
        qb, qk = rng.uniform(-2, 2, size=(2, 1000))
        got = super_potential(v, SuperPotentialKind.CL, qb, qk)
        want = 0.5 * lam * (qb**4 - qk**4 + 2 * (qb**3 * qk - qb * qk**3))
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("kind", list(SuperPotentialKind))
    @pytest.mark.parametrize("degree", range(7))
    def test_bit_identical_to_polyval(self, degree, kind):
        """The in-place CL evaluation runs the operations of npoly.polyval,
        so it keeps every bit, for scalar, outer and equal-shape arguments."""
        rng = np.random.Generator(np.random.Philox(degree))
        v = random_potential(rng, degree)
        qb, qk = rng.uniform(-3.0, 3.0, size=(2, 24))
        for bra, ket in ((1.3, -0.4), (qb[:, None], qk[None, :]), (qb, qk)):
            bra, ket = np.asarray(bra, dtype=float), np.asarray(ket, dtype=float)
            if kind is SuperPotentialKind.QM:
                want = npoly.polyval(bra, v.coefficients) - npoly.polyval(ket, v.coefficients)
            else:
                dv = npoly.polyder(v.coefficients)
                want = (bra - ket) * npoly.polyval(0.5 * (bra + ket), dv)
            got = super_potential(v, kind, bra, ket)
            assert np.shape(got) == np.shape(want) and type(got) is type(want)
            np.testing.assert_array_equal(got, want)

    def test_monomial_expansion_resums(self):
        rng = np.random.Generator(np.random.Philox(2))
        v = PolynomialPotential((0.3, -1.0, 0.2, 0.8, -0.4))
        qb, qk = rng.uniform(-2, 2, size=(2, 50))
        for kind in SuperPotentialKind:
            monos = super_potential_monomials(v, kind)
            resum = sum(c * qb**i * qk**j for (i, j), c in monos.items())
            np.testing.assert_allclose(
                resum, super_potential(v, kind, qb, qk), rtol=1e-12, atol=1e-12
            )


class TestESuperoperator:
    def test_harmonic_vanishes_everywhere(self):
        v = PolynomialPotential((0.0, 0.0, 0.5))
        rng = np.random.Generator(np.random.Philox(3))
        qb, qk = rng.uniform(-5, 5, size=(2, 500))
        np.testing.assert_allclose(e_superoperator(v, qb, qk), 0.0, atol=1e-12)

    def test_cubic_value(self):
        # V = x^3 at (2, 0): 6 - 8 + 0 = -2
        v = PolynomialPotential((0.0, 0.0, 0.0, 1.0))
        assert e_superoperator(v, 2.0, 0.0) == pytest.approx(-2.0, abs=1e-12)

    def test_antisymmetry(self):
        rng = np.random.Generator(np.random.Philox(4))
        for deg in (3, 4, 5):
            v = random_potential(rng, deg)
            qb, qk = rng.uniform(-3, 3, size=(2, 500))
            e = e_superoperator(v, qb, qk)
            scale = max(1.0, float(np.max(np.abs(e))))
            np.testing.assert_allclose(
                e + e_superoperator(v, qk, qb), 0.0, atol=1e-12 * scale
            )

    @given(q=coord)
    def test_diagonal_zero_any_potential(self, q):
        v = PolynomialPotential((0.1, 0.2, 0.3, 0.4, 0.5))
        assert e_superoperator(v, q, q) == pytest.approx(0.0, abs=1e-10)

    def test_decomposition(self):
        rng = np.random.Generator(np.random.Philox(5))
        v = random_potential(rng, 5)
        qb, qk = rng.uniform(-3, 3, size=(2, 200))
        want = super_potential(v, SuperPotentialKind.CL, qb, qk) - super_potential(
            v, SuperPotentialKind.QM, qb, qk
        )
        np.testing.assert_allclose(e_superoperator(v, qb, qk), want, atol=1e-13)


class TestEVanishes:
    def test_quadratic_true(self):
        assert e_vanishes_identically(PolynomialPotential((3.0, 2.0, 1.0)))

    def test_zero_potential_true(self):
        assert e_vanishes_identically(PolynomialPotential((0.0,)))

    def test_tiny_quartic_false_and_numerically_visible(self):
        v = PolynomialPotential.quartic(1e-6)
        assert not e_vanishes_identically(v)
        assert grid_max_abs_e(v) > 0.0

    def test_agrees_with_grid_check(self):
        rng = np.random.Generator(np.random.Philox(6))
        for deg in (0, 1, 2, 3, 4):
            v = random_potential(rng, deg)
            numeric_zero = grid_max_abs_e(v) < 1e-12
            assert e_vanishes_identically(v) == numeric_zero


def coulomb_e(e2, q_bra, q_ket):
    """The Coulomb E at two 3-vectors, through the radii form."""
    q_bra, q_ket = np.asarray(q_bra, dtype=float), np.asarray(q_ket, dtype=float)
    return coulomb_e_of_radii(
        e2, np.linalg.norm(q_bra), np.linalg.norm(q_ket), np.linalg.norm(q_bra + q_ket)
    )


class TestCoulomb:
    def test_diagonal_zero(self):
        q = np.array([0.4, -0.2, 1.0])
        assert coulomb_e(1.3, q, q) == pytest.approx(0.0, abs=1e-14)

    def test_reference_value(self):
        # 4(4-1)/27 + 1/2 - 1 = -1/18
        got = coulomb_e(1.0, [2.0, 0, 0], [1.0, 0, 0])
        assert got == pytest.approx(-1.0 / 18.0, abs=1e-12)

    def test_gradient_form_oracle(self):
        # (Q-q).grad V((Q+q)/2) - V(Q) + V(q) with V = -e2/|chi|,
        # grad V = e2 chi/|chi|^3
        rng = np.random.Generator(np.random.Philox(7))
        e2 = 0.8
        for _ in range(100):
            qb = rng.uniform(-2, 2, size=3)
            qk = rng.uniform(-2, 2, size=3)
            if min(
                np.linalg.norm(qb), np.linalg.norm(qk), np.linalg.norm(qb + qk)
            ) < 1e-2:
                continue
            chi = 0.5 * (qb + qk)
            grad = e2 * chi / np.linalg.norm(chi) ** 3
            want = float((qb - qk) @ grad) + e2 / np.linalg.norm(qb) - e2 / np.linalg.norm(qk)
            got = coulomb_e(e2, qb, qk)
            assert got == pytest.approx(want, abs=1e-12 * max(1.0, abs(want)))

    def test_antisymmetry(self):
        rng = np.random.Generator(np.random.Philox(8))
        qb = rng.uniform(0.5, 2, size=3)
        qk = rng.uniform(0.5, 2, size=3)
        assert coulomb_e(1.0, qb, qk) == pytest.approx(-coulomb_e(1.0, qk, qb), abs=1e-12)


class TestBipartite:
    def test_reference_value(self):
        # lam=2 at (1,0,0,0): (2/2) * 1 * 1^3 = 1
        assert bipartite_cl(2.0, 1.0, 0.0, 0.0, 0.0) == pytest.approx(1.0)

    @given(q1=coord, q2=coord)
    def test_diagonal_vanishes(self, q1, q2):
        assert bipartite_cl(1.5, q1, q1, q2, q2) == pytest.approx(0.0, abs=1e-9)


class TestClassification:
    def test_partition_is_exclusive_and_exhaustive(self):
        terms = classify_bipartite_terms(1.0)
        seen = set()
        for mono, cls in terms:
            assert isinstance(cls, MonomialClass)
            assert mono.exponents not in seen
            seen.add(mono.exponents)
            assert classify_monomial(mono.exponents) is cls

    def test_resummation_matches_direct(self):
        terms = classify_bipartite_terms(1.0)
        total = sum(m.evaluate(1.0, 2.0, 3.0, 4.0) for m, _ in terms)
        assert total == pytest.approx(bipartite_cl(1.0, 1.0, 2.0, 3.0, 4.0), abs=1e-12)

    def test_resummation_random_points(self):
        rng = np.random.Generator(np.random.Philox(10))
        terms = classify_bipartite_terms(0.6)
        pts = rng.uniform(-2, 2, size=(50, 4))
        for p in pts:
            total = sum(m.evaluate(*p) for m, _ in terms)
            want = bipartite_cl(0.6, *p)
            assert total == pytest.approx(want, abs=1e-12 * max(1.0, abs(want)))

    def test_contains_inter_space_cross_terms(self):
        # e.g. Q1^2 Q2 q2 couples bra of subsystem 1 to ket of subsystem 2.
        # (The degree-(2,2) monomials like Q1 Q2 q2^2 cancel in this quartic:
        # the expansion is A^4 + 2A^3 B - 2A B^3 - B^4 with no A^2 B^2 term.)
        terms = dict((m.exponents, cls) for m, cls in classify_bipartite_terms(1.0))
        assert terms[(2, 0, 1, 1)] is MonomialClass.INTER_SPACE_CROSS
        assert (1, 0, 1, 2) not in terms

    def test_contains_intra_and_pure_terms(self):
        by_class: dict = {}
        for mono, cls in classify_bipartite_terms(1.0):
            by_class.setdefault(cls, []).append(mono)
        assert MonomialClass.PURE_BRA in by_class
        assert MonomialClass.PURE_KET in by_class
        assert MonomialClass.INTRA_SUBSYSTEM_MIXED in by_class
        assert MonomialClass.INTER_SPACE_CROSS in by_class
        # pure-bra part is (lam/2)(Q1 - Q2)^4
        val = sum(m.evaluate(1.3, 0.0, -0.4, 0.0) for m in by_class[MonomialClass.PURE_BRA])
        assert val == pytest.approx(0.5 * (1.3 + 0.4) ** 4, abs=1e-12)

    def test_pure_terms_reproduce_commutator_part(self):
        """The pure monomials sum to (lam/2)((Q1 - Q2)^4 - (q1 - q2)^4),
        half of V_QM: the commutator with (lam/2)(x1 - x2)^4."""
        lam = 0.4
        pure = [m for m, cls in classify_bipartite_terms(lam)
                if cls in (MonomialClass.PURE_BRA, MonomialClass.PURE_KET)]
        rng = np.random.Generator(np.random.Philox(9))
        for q1b, q1k, q2b, q2k in rng.uniform(-2, 2, size=(50, 4)):
            total = sum(m.evaluate(q1b, q1k, q2b, q2k) for m in pure)
            want = 0.5 * lam * ((q1b - q2b) ** 4 - (q1k - q2k) ** 4)
            assert total == pytest.approx(want, abs=1e-12 * max(1.0, abs(want)))

    def test_classifier_rules(self):
        assert classify_monomial((4, 0, 0, 0)) is MonomialClass.PURE_BRA
        assert classify_monomial((0, 2, 0, 2)) is MonomialClass.PURE_KET
        assert classify_monomial((3, 1, 0, 0)) is MonomialClass.INTRA_SUBSYSTEM_MIXED
        assert classify_monomial((1, 0, 0, 3)) is MonomialClass.INTER_SPACE_CROSS
        # bra and ket of both subsystems present: cross wins
        assert classify_monomial((1, 1, 1, 1)) is MonomialClass.INTER_SPACE_CROSS
