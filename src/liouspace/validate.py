"""The package's registry of named checks.

Each check exercises one contract of the library against an independent
route (symbolic identity, quadrature, characteristics, closed form, Monte
Carlo) at fixed sizes and bounds, and returns pass/fail with a short
detail string.  `liouspace validate` runs every check in ``CHECKS`` and
the acceptance tests parametrise over the same list, so each bound is
stated here and nowhere else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import (
    entangle,
    evolution,
    jaynescummings as jc,
    liouvillian,
    potential,
    superprop,
    superspace,
)
from .potential import MonomialClass, PolynomialPotential, SuperPotentialKind

PURE_CLASSES = (MonomialClass.PURE_BRA, MonomialClass.PURE_KET)
# Bounds used beyond this module: the CLI's manifest checks take all but
# the last, and the benchmark's grid oracle restates the last.  The CLI's
# check names spell CONSERVATION_TOL, DYSON_TOL and PURITY_TOL
# (trace_conserved_1e-8, hermiticity_1e-8, first_order_matches_dyson_1e-3,
# purity_at_most_1_1e-8), so changing one renames those checks.
# Largest |trace - 1| and Hermiticity defect of an evolved state.
CONSERVATION_TOL = 1e-8
# Largest |rho| on the outermost ring of an evolved grid state.
BOUNDARY_MASS_TOL = 1e-6
# Largest excess of a basis state's purity over 1.
PURITY_TOL = 1e-8
# Largest |closed form - Dyson quadrature| / |first-order correction|.
DYSON_TOL = 1e-3
# Largest e_antisymmetry_defect, |E(Q, q) + E(q, Q)| relative to max(1, |E|).
E_ANTISYMMETRY_TOL = 1e-12
# Largest gap of the grid CL moments from the leapfrog ensemble's.
CHARACTERISTICS_TOL = 1e-3


def e_antisymmetry_defect(e: np.ndarray, e_swapped: np.ndarray) -> float:
    """max |E(Q, q) + E(q, Q)| over max(1, max |E|), given E at (Q, q) and
    at the swapped points (q, Q)."""
    scale = max(1.0, float(np.max(np.abs(e))))
    return float(np.max(np.abs(e + e_swapped))) / scale


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def _superoperator_kill_switch() -> tuple[bool, str]:
    """E == 0 for degree <= 2 (relative to V_QM on a 64^2 grid, and
    absolute); degree 4 never gives E == 0."""
    rng = np.random.Generator(np.random.Philox(101))
    pts = np.linspace(-2.0, 2.0, 64)
    qb, qk = np.meshgrid(pts, pts, indexing="ij")

    def max_abs_e(v):
        return float(np.max(np.abs(potential.e_superoperator(v, qb, qk))))

    worst_rel = 0.0
    for _ in range(100):
        deg = int(rng.integers(0, 3))
        v = PolynomialPotential(tuple(rng.uniform(-2, 2, size=deg + 1)))
        e = potential.e_superoperator(v, qb, qk)
        scale = max(
            1.0,
            float(np.max(np.abs(potential.super_potential(v, SuperPotentialKind.QM, qb, qk)))),
        )
        worst_rel = max(worst_rel, float(np.max(np.abs(e))) / scale)
    least_quartic = np.inf
    for _ in range(100):
        coeffs = rng.uniform(-2, 2, size=5)
        coeffs[4] = rng.uniform(0.1, 2.0) * rng.choice([-1.0, 1.0])
        least_quartic = min(least_quartic, max_abs_e(PolynomialPotential(tuple(coeffs))))
    rng = np.random.Generator(np.random.Philox(12))
    worst_abs = max(
        max_abs_e(PolynomialPotential(tuple(rng.uniform(-2, 2, size=3)))) for _ in range(20)
    )
    ok = worst_rel < 1e-12 and worst_abs < 1e-12 and least_quartic > 0.0
    return ok, (
        f"degree <= 2: max |E| {worst_rel:.2e} relative, {worst_abs:.2e} absolute; "
        f"degree 4: smallest max |E| {least_quartic:.2e}"
    )


def _quartic_samples(seed: int, lam: float, span: float, n: int):
    rng = np.random.Generator(np.random.Philox(seed))
    qb, qk = rng.uniform(-span, span, size=(2, n))
    got = potential.super_potential(
        PolynomialPotential.quartic(lam), SuperPotentialKind.CL, qb, qk
    )
    want = 0.5 * lam * (qb**4 - qk**4 + 2 * (qb**3 * qk - qb * qk**3))
    return got, want


def _quartic_identity() -> tuple[bool, str]:
    """The CL quartic superpotential matches its expanded form."""
    got, want = _quartic_samples(102, 0.85, 3.0, 1000)
    close = bool(np.allclose(got, want, rtol=1e-12, atol=1e-12))
    dev = float(np.max(np.abs(got - want)))
    got, want = _quartic_samples(13, 0.7, 2.0, 200)
    rel = float(np.max(np.abs(got - want)) / np.max(np.abs(want)))
    return close and rel < 1e-12, (
        f"1000 points: max defect {dev:.2e} (rtol = atol = 1e-12 met: {close}); "
        f"200 points: relative defect {rel:.2e}"
    )


def _free_transport() -> tuple[bool, str]:
    """delta-surrogate transport: <x>(T) = x0 + p0 T / m, <p>(T) = p0, via
    Trotter and the free superpropagator; CL == QM."""
    x0, p0, duration, mass = -1.0, 1.2, 1.0, 1.0
    grid = superspace.SuperGrid.centered(8.0, 128)
    sigma = 3.5 * grid.dq  # narrow-Gaussian surrogate, >= 3 grid spacings
    sd = superspace.gaussian_super_density(grid, x0, p0, sigma, 0.6)
    cfg = evolution.EvolutionConfig(t1=duration, n_steps=1, mass=mass)
    free = PolynomialPotential.free()
    out_cl = evolution.evolve_trotter(free, grid, SuperPotentialKind.CL, sd, cfg)
    out_qm = evolution.evolve_trotter(free, grid, SuperPotentialKind.QM, sd, cfg)
    x_want = x0 + p0 * duration / mass
    outs = (out_cl, superprop.apply_free_superpropagator(sd, duration, mass))
    rel = max(
        max(abs(m.x - x_want) / abs(x_want), abs(m.p - p0) / abs(p0))
        for m in map(superspace.moments, outs)
    )
    cl_qm = float(np.max(np.abs(out_cl.values - out_qm.values)))
    return rel < 1e-4 and cl_qm < 1e-10, (
        f"worst relative moment error {rel:.2e}; max CL-QM deviation {cl_qm:.2e}"
    )


def _cl_vs_characteristics_oracle() -> tuple[bool, str]:
    """Quartic grid CL moments against a 2^17-sample leapfrog ensemble."""
    v = PolynomialPotential.quartic(0.1)
    grid = superspace.SuperGrid.centered(8.0, 128)
    sd = superspace.gaussian_super_density(grid, 1.0, 0.0, 0.4, 0.6)
    cfg = evolution.EvolutionConfig(t1=0.5, n_steps=100)
    out = evolution.evolve_trotter(v, grid, SuperPotentialKind.CL, sd, cfg)
    ens = evolution.gaussian_ensemble(10**5, 1.0, 0.0, 0.4, 0.6, seed=104)
    ens = evolution.evolve_characteristics(v, ens, 0.5, dt=5e-4)
    mx, mp, mx2 = ens.moments()
    m = superspace.moments(out)
    errs = (abs(m.x - mx), abs(m.p - mp), abs(m.x2 - mx2))
    return max(errs) < CHARACTERISTICS_TOL, (
        f"{ens.x.size}-sample moment gaps {errs[0]:.1e}/{errs[1]:.1e}/{errs[2]:.1e}"
    )


def _gamma_validation() -> tuple[bool, str]:
    """Closed-form first-order superpropagators against the Dyson quadrature."""
    rng = np.random.Generator(np.random.Philox(105))
    lam = 0.4
    worst = 0.0
    for _ in range(10):
        pt = superprop.PropagatorPoint(
            *rng.uniform(-1.5, 1.5, size=4), rng.uniform(0.3, 1.2),
            mass=rng.uniform(0.8, 1.3), hbar=rng.uniform(0.8, 1.3),
        )
        for kind in SuperPotentialKind:
            closed = (
                superprop.first_order_superpropagator(pt, lam, kind)
                - superprop.free_superpropagator(pt)
            )
            numeric = superprop.dyson_first_order_numeric(pt, lam, kind)
            worst = max(worst, abs(closed - numeric) / abs(closed))
    return worst < DYSON_TOL, f"worst relative defect {worst:.2e}"


def _spectral_symmetry() -> tuple[bool, str]:
    """Grid CL and basis QM spectra equal their own negation."""
    grid = superspace.SuperGrid.centered(4.0, 16)
    op = liouvillian.grid_liouvillian(
        PolynomialPotential.quartic(0.5), grid, SuperPotentialKind.CL
    )
    d_cl = liouvillian.spectral_symmetry_defect(np.linalg.eigvals(op.dense()))
    rng = np.random.Generator(np.random.Philox(106))
    h = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    qm = liouvillian.BasisLiouvillian(0.5 * (h + h.conj().T))
    d_qm = liouvillian.spectral_symmetry_defect(np.linalg.eigvals(qm.dense()))
    return d_cl < 1e-8 and d_qm < 1e-8, f"defects cl={d_cl:.2e} qm={d_qm:.2e}"


def _conservation_suite() -> tuple[bool, str]:
    """|trace - 1| and Hermiticity drift over t in [0, 10] for grid, JC and
    bipartite scenarios."""
    worst_tr, worst_h = 0.0, 0.0

    # grid scenarios: quartic CL and QM, harmonic CL
    grid = superspace.SuperGrid.centered(8.0, 128)
    sd0 = superspace.gaussian_super_density(grid, 1.0, 0.0, 0.4, 0.6)
    cfg = evolution.EvolutionConfig(t1=10.0, n_steps=1000)
    for v, kind in (
        (PolynomialPotential.quartic(0.1), SuperPotentialKind.CL),
        (PolynomialPotential.quartic(0.1), SuperPotentialKind.QM),
        (PolynomialPotential.harmonic(1.0), SuperPotentialKind.CL),
    ):
        margins = evolution.grid_series(v, grid, kind, sd0, cfg, 10)[2]
        worst_tr = max(worst_tr, margins["max_trace_drift"])
        worst_h = max(worst_h, margins["max_hermiticity_defect"])

    def track(states):
        nonlocal worst_tr, worst_h
        worst_tr = max(worst_tr, np.max(np.abs(np.trace(states, axis1=1, axis2=2).real - 1.0)))
        worst_h = max(worst_h, np.max(np.abs(states - states.conj().transpose(0, 2, 1))))

    times = np.linspace(0.0, 10.0, 11)
    # Jaynes-Cummings with dipole and superoperator
    p = jc.JCParams(omega_e=1.0, omega=0.9, d_eg=0.08, n_max=4, eps_egeg=0.05 * (1 + 1j))
    rho0 = jc.initial_jc_state("e1", p.n_max)
    track(evolution.ExactEvolver(jc.jc_liouvillian(p)).propagate(rho0, times))

    # bipartite CL and QM through the relative mode, from the ground state
    cl = entangle.relative_generator(entangle.BipartiteBasis(n_levels=4), 0.0002)
    rho0 = jc.coherent_field_density(0.0, 3)
    for gen in (cl, liouvillian.BasisLiouvillian(cl.h)):
        track(evolution.ExactEvolver(gen).propagate(rho0, times))

    return worst_tr < CONSERVATION_TOL and worst_h < CONSERVATION_TOL, (
        f"trace drift {worst_tr:.1e}, hermiticity drift {worst_h:.1e}"
    )


def _jc_selection_rules() -> tuple[bool, str]:
    """Parity-forbidden Coulomb elements are 0 within 3 sigma at 1e6 samples;
    E_{ab,cd} = -conj(E_{ba,dc}) holds on allowed tuples."""
    s1, s2, p2 = jc.HydrogenState(1, 0, 0), jc.HydrogenState(2, 0, 0), jc.HydrogenState(2, 1, 0)
    n_mc = 10**6
    forbidden = [(s1, s1, s1, p2), (s1, p2, s1, s1), (p2, s2, s2, s2)]
    odd = all(np.prod([s.parity for s in tup]) == -1 for tup in forbidden)
    worst = 0.0  # in units of the standard error
    for k, tup in enumerate(forbidden):
        res = jc.coulomb_superop_element(*tup, mc_samples=n_mc, seed=180 + k)
        worst = max(worst, abs(res.value) / res.stderr)

    allowed_pairs = [
        ((s1, s2, s1, s1), (s2, s1, s1, s1)),
        ((p2, s1, p2, s1), (s1, p2, s1, p2)),
        ((s1, s1, s2, s1), (s1, s1, s1, s2)),
    ]
    for k, (tup_a, tup_b) in enumerate(allowed_pairs):
        res_a = jc.coulomb_superop_element(*tup_a, mc_samples=n_mc, seed=190 + 2 * k)
        res_b = jc.coulomb_superop_element(*tup_b, mc_samples=n_mc, seed=191 + 2 * k)
        combined = np.hypot(res_a.stderr, res_b.stderr)
        worst = max(worst, abs(res_a.value + np.conj(res_b.value)) / combined)
    return odd and worst < 3.0, f"worst deviation {worst:.2f} sigma"


def _jc_first_order_consistency() -> tuple[bool, str]:
    """The first-order/exact JC gap shrinks as t^2."""
    p = jc.JCParams(
        omega_e=1.1, omega=0.9, d_eg=0.02, n_max=4, eps_egeg=0.01 * (0.6 + 0.8j)
    )
    # the first-order form admits any state; this one (atom populations,
    # coherent field) stays so the halving ratios keep their recorded values
    rho0 = np.kron(
        np.diag([0.4, 0.6]).astype(complex), jc.coherent_field_density(0.4, p.n_max)
    )
    times = (0.4, 0.2, 0.1)
    small = max(abs(p.d_eg) * times[0], abs(p.eps_egeg) * times[0]) <= 1e-2
    exact = evolution.ExactEvolver(jc.jc_liouvillian(p)).propagate(rho0, times)
    devs = [
        float(np.max(np.abs(jc.jc_evolve_first_order(p, rho0, t) - rho)))
        for t, rho in zip(times, exact)
    ]
    ratios = [devs[0] / devs[1], devs[1] / devs[2]]
    ok = small and all(3.2 <= r <= 4.8 for r in ratios)
    return ok, f"halving ratios {ratios[0]:.2f}, {ratios[1]:.2f}"


def _vacuum_rabi() -> tuple[bool, str]:
    """P_e(t) = cos^2(d t) over one period."""
    d = 0.05
    p = jc.JCParams(omega_e=1.0, omega=1.0, d_eg=d, n_max=4)
    rho0 = jc.initial_jc_state("e0", p.n_max)
    cols = jc.jc_series(p, rho0, np.pi / d, 40)[0]
    worst = float(np.max(np.abs(cols["P_e"] - np.cos(d * cols["t"]) ** 2)))
    return worst < 1e-6, f"max |P_e - cos^2| = {worst:.2e}"


def _dvr_defects(gen, h0, x1, x2, lam: float) -> tuple[float, float, float, float]:
    """(basis, h, pure split, E) defects of one CL generator (h, E, U) of
    lam (X1 - X2)^4: U^T X U is diagonal for X = X1, X2, which gives the
    DVR points (``BasisLiouvillian`` has checked that U is orthogonal);
    h = h0 + lam (X1 - X2)^4 by matrix powers; at the points, the pure
    monomials of ``classify_bipartite_terms`` sum to V_QM / 2 and E is the
    mixed ones less V_QM / 2."""
    u = gen.basis
    on_points = [u.T @ x @ u for x in (x1, x2)]
    basis = max(float(np.max(np.abs(m - np.diag(np.diag(m))))) for m in on_points)
    h = float(np.max(np.abs(gen.h - h0 - lam * np.linalg.matrix_power(x1 - x2, 4))))
    q1, q2 = (np.diag(m) for m in on_points)
    d, points = q1 - q2, (q1[:, None], q1[None, :], q2[:, None], q2[None, :])
    half_qm = 0.5 * lam * (d[:, None] ** 4 - d[None, :] ** 4)
    terms = potential.classify_bipartite_terms(lam)
    pure = sum(m.evaluate(*points) for m, cls in terms if cls in PURE_CLASSES)
    mixed = sum(m.evaluate(*points) for m, cls in terms if cls not in PURE_CLASSES)
    split = float(np.max(np.abs(pure - half_qm)))
    return basis, h, split, float(np.max(np.abs(gen.e - (mixed - half_qm))))


def _bipartite_generator_audit() -> tuple[bool, str]:
    """Each bipartite generator's own (h, E, U) against lam (X1 - X2)^4 and
    the classified monomials at its DVR points (``_dvr_defects``): the
    square generators at X1 = x (x) 1, X2 = 1 (x) x, whose QM kind has the
    same h and no E, and the relative mode at X1 = -X2 = x_r / sqrt 2;
    reduced purity drops as t^2."""
    basis = entangle.BipartiteBasis(n_levels=4)
    lam, n_r = 0.3, basis.n_levels
    x, eye = basis.position_operator(), np.eye(n_r)
    build = entangle.build_bipartite_liouvillian
    square_cl, square_qm = build(basis, lam, "cl"), build(basis, lam, "qm")
    x1, x2 = np.kron(x, eye), np.kron(eye, x)
    square = _dvr_defects(square_cl, basis.free_hamiltonian(), x1, x2, lam)
    h0, x_half = basis.omega * np.diag(np.arange(n_r) + 0.5), x / np.sqrt(2.0)
    relative = _dvr_defects(entangle.relative_generator(basis, lam), h0, x_half, -x_half, lam)
    basis_d, h_d, split = (max(a, b) for a, b in zip(square[:3], relative[:3]))
    h_d = max(h_d, float(np.max(np.abs(square_qm.h - square_cl.h))))
    no_qm_e = square_qm.e is None

    # reduced-purity decrease 1 - O((lam t)^2) with quadratic leading order
    times = np.array([0.025, 0.05, 0.1])
    qm = liouvillian.BasisLiouvillian(entangle.relative_generator(basis, 0.001).h)
    states = evolution.ExactEvolver(qm).propagate(jc.coherent_field_density(0.0, n_r - 1), times)
    drops = 1.0 - entangle.loss_purity(states)
    slope = float(np.polyfit(np.log(times), np.log(drops), 1)[0])
    ok = (
        max(basis_d, h_d, split, square[3], relative[3]) < 1e-10
        and no_qm_e
        and bool(np.all(drops > 0))
        and abs(slope - 2.0) <= 0.2
    )
    return ok, (
        f"E defect {square[3]:.2e} square, {relative[3]:.2e} relative; h {h_d:.2e}; "
        f"basis {basis_d:.2e}; pure split {split:.2e}; square QM without E: {no_qm_e}; "
        f"purity slope {slope:.2f}"
    )


def _trotter_convergence() -> tuple[bool, str]:
    """Strang error against the dense exponential shrinks as dt^2, and
    `superspace.moments` reports a boundary mass above 1e-10 for the
    initial density, which touches the boundary of this small grid."""
    grid = superspace.SuperGrid.centered(5.0, 16)
    v = PolynomialPotential.quartic(0.5)
    sd = superspace.gaussian_super_density(grid, 0.5, 0.0, 0.55, 0.8)
    op = liouvillian.grid_liouvillian(v, grid, SuperPotentialKind.CL)
    ref = evolution.ExactEvolver(op).propagate(sd.values, [0.4])[0]
    errs = []
    for n in (16, 32, 64):
        cfg = evolution.EvolutionConfig(t1=0.4, n_steps=n)
        out = evolution.evolve_trotter(v, grid, SuperPotentialKind.CL, sd, cfg)
        errs.append(np.max(np.abs(out.values - ref)))
    ratios = [errs[0] / errs[1], errs[1] / errs[2]]
    edge = superspace.moments(sd).boundary_mass
    ok = edge > 1e-10 and all(3.2 <= r <= 4.8 for r in ratios)
    return ok, f"halving ratios {ratios[0]:.2f}, {ratios[1]:.2f}; boundary mass {edge:.2e}"


def _e_antisymmetry() -> tuple[bool, str]:
    """E(Q, q) = -E(q, Q) for random quartic polynomials."""
    rng = np.random.Generator(np.random.Philox(11))
    worst = 0.0
    for _ in range(20):
        v = PolynomialPotential(tuple(rng.uniform(-1, 1, size=5)))
        qb, qk = rng.uniform(-3, 3, size=(2, 25))
        e, e_swapped = potential.e_superoperator(v, qb, qk), potential.e_superoperator(v, qk, qb)
        worst = max(worst, e_antisymmetry_defect(e, e_swapped))
    return worst < E_ANTISYMMETRY_TOL, f"max antisymmetry defect {worst:.2e}"


def _commutator_identity() -> tuple[bool, str]:
    """``BasisLiouvillian.apply`` equals ``dense()`` on the row-major vec,
    with no E, a complex E, and a complex E in a real orthogonal basis U."""
    rng = np.random.Generator(np.random.Philox(14))
    h = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    h = 0.5 * (h + h.conj().T)
    rho = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    e = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    u = np.linalg.qr(rng.normal(size=(5, 5)))[0]
    err = max(
        float(np.max(np.abs(g.apply(rho).ravel() - g.dense() @ rho.ravel())))
        for g in (liouvillian.BasisLiouvillian(h, *extra) for extra in ((), (e,), (e, u)))
    )
    return err < 1e-12, f"max |apply - dense vec| {err:.2e} (no E, complex E, complex E in U)"


def _superspace_moments() -> tuple[bool, str]:
    """<x>, <p> and <x^2> of a superspace Gaussian match its centre and width."""
    grid = superspace.SuperGrid.centered(8.0, 64)
    sd = superspace.gaussian_super_density(grid, 1.5, -0.5, 0.7, 0.6)
    m = superspace.moments(sd)
    ex = abs(m.x - 1.5)
    ep = abs(m.p + 0.5)
    ex2 = abs(m.x2 - (1.5**2 + 0.7**2))
    ok = max(ex, ep, ex2) < 1e-6
    return ok, f"|dx|={ex:.2e} |dp|={ep:.2e} |dx2|={ex2:.2e}"


def _harmonic_cl_equals_qm() -> tuple[bool, str]:
    """With E == 0 the CL and QM Trotter runs coincide."""
    grid = superspace.SuperGrid.centered(8.0, 64)
    sd = superspace.gaussian_super_density(grid, 0.8, 0.0, 0.6, 0.8)
    v = PolynomialPotential.harmonic(1.0)
    cfg = evolution.EvolutionConfig(t1=1.0, n_steps=64)
    out_cl = evolution.evolve_trotter(v, grid, SuperPotentialKind.CL, sd, cfg)
    out_qm = evolution.evolve_trotter(v, grid, SuperPotentialKind.QM, sd, cfg)
    err = float(np.max(np.abs(out_cl.values - out_qm.values)))
    return err < 1e-10, f"max CL-QM deviation {err:.2e}"


# Each check is named after its function, less the leading underscore.
CHECKS: list[tuple[str, Callable[[], tuple[bool, str]]]] = [
    (fn.__name__[1:], fn)
    for fn in (
        _superoperator_kill_switch, _quartic_identity, _free_transport,
        _cl_vs_characteristics_oracle, _gamma_validation, _spectral_symmetry,
        _conservation_suite, _jc_selection_rules, _jc_first_order_consistency, _vacuum_rabi,
        _bipartite_generator_audit, _trotter_convergence, _e_antisymmetry,
        _commutator_identity, _superspace_moments, _harmonic_cl_equals_qm,
    )
]


def run_validation() -> list[CheckResult]:
    results = []
    for name, fn in CHECKS:
        try:
            ok, detail = fn()
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(CheckResult(name=name, passed=ok, detail=detail))
    return results
