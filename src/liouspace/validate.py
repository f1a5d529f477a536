"""The package's registry of named checks.

Each check exercises one contract of the library against an independent
route (symbolic identity, quadrature, characteristics, closed form, Monte
Carlo) at fixed sizes and bounds, and returns pass/fail with a short
detail string.  `liouspace validate` runs every check in ``CHECKS`` and
the acceptance tests parametrise over the same list, so each bound is
stated here and nowhere else.
"""

from __future__ import annotations

import warnings
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
from .potential import PolynomialPotential, SuperPotentialKind


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
        least_quartic = min(
            least_quartic, potential.max_abs_e_on_grid(PolynomialPotential(tuple(coeffs)))
        )
    rng = np.random.Generator(np.random.Philox(12))
    worst_abs = max(
        potential.max_abs_e_on_grid(PolynomialPotential(tuple(rng.uniform(-2, 2, size=3))))
        for _ in range(20)
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
    cfg = evolution.EvolutionConfig(
        t1=duration, n_steps=1, method=evolution.EvolveMethod.TROTTER_STRANG, mass=mass
    )
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
    cfg = evolution.EvolutionConfig(t1=0.5, n_steps=100, method=evolution.EvolveMethod.TROTTER_STRANG)
    out = evolution.evolve_trotter(v, grid, SuperPotentialKind.CL, sd, cfg)
    ens = evolution.gaussian_ensemble(10**5, 1.0, 0.0, 0.4, 0.6, seed=104)
    ens = evolution.evolve_characteristics(v, ens, 0.5, dt=5e-4)
    mx, mp, mx2 = ens.moments()
    m = superspace.moments(out)
    errs = (abs(m.x - mx), abs(m.p - mp), abs(m.x2 - mx2))
    return max(errs) < 1e-3, (
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
    return worst < 1e-3, f"worst relative defect {worst:.2e}"


def _spectral_symmetry() -> tuple[bool, str]:
    """Grid CL and basis QM spectra equal their own negation."""
    grid = superspace.SuperGrid.centered(4.0, 16)
    op = liouvillian.build_grid_liouvillian(
        PolynomialPotential.quartic(0.5), grid, SuperPotentialKind.CL
    )
    d_cl = liouvillian.spectral_symmetry_defect(liouvillian.spectrum(op))
    rng = np.random.Generator(np.random.Philox(106))
    h = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    d_qm = liouvillian.spectral_symmetry_defect(
        liouvillian.spectrum(liouvillian.build_basis_liouvillian(0.5 * (h + h.conj().T)))
    )
    return d_cl < 1e-8 and d_qm < 1e-8, f"defects cl={d_cl:.2e} qm={d_qm:.2e}"


def _conservation_suite() -> tuple[bool, str]:
    """|trace - 1| and Hermiticity drift over t in [0, 10] for grid, JC and
    bipartite scenarios."""
    worst_tr, worst_h = 0.0, 0.0

    # grid scenarios: quartic CL and QM, harmonic CL
    grid = superspace.SuperGrid.centered(8.0, 128)
    sd0 = superspace.gaussian_super_density(grid, 1.0, 0.0, 0.4, 0.6)
    cfg = evolution.EvolutionConfig(t1=10.0, n_steps=1000, method=evolution.EvolveMethod.TROTTER_STRANG)

    def observe(k, sd):
        nonlocal worst_tr, worst_h
        if k % 100 == 0:
            m = superspace.moments(sd)
            worst_tr = max(worst_tr, abs(m.trace - 1.0))
            worst_h = max(worst_h, m.hermiticity_defect)

    for v, kind in (
        (PolynomialPotential.quartic(0.1), SuperPotentialKind.CL),
        (PolynomialPotential.quartic(0.1), SuperPotentialKind.QM),
        (PolynomialPotential.harmonic(1.0), SuperPotentialKind.CL),
    ):
        evolution.evolve_trotter(v, grid, kind, sd0, cfg, observe=observe)

    def track(states):
        nonlocal worst_tr, worst_h
        for rho in states:
            worst_tr = max(worst_tr, abs(np.trace(rho).real - 1.0))
            worst_h = max(worst_h, float(np.max(np.abs(rho - rho.conj().T))))

    times = np.linspace(0.0, 10.0, 11)
    # Jaynes-Cummings with dipole and superoperator
    p = jc.JCParams(omega_e=1.0, omega=0.9, d_eg=0.08, n_max=4, eps_egeg=0.05 * (1 + 1j))
    track(jc.evolve_jc(p, jc.initial_jc_state("e1", p.n_max), times))

    # bipartite CL and QM
    basis = entangle.BipartiteBasis(n_levels=4)
    rho0 = entangle.separable_state(basis)
    for kind in SuperPotentialKind:
        track(entangle.evolve_bipartite(basis, 0.0002, kind, rho0, times))

    return worst_tr < 1e-8 and worst_h < 1e-8, (
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
    # atom populations only: initial atom coherences feed the diagonal
    # blocks at first order in the dipole, which the short-time formula
    # does not track
    rho0 = np.kron(
        np.diag([0.4, 0.6]).astype(complex), jc.coherent_field_density(0.4, p.n_max)
    )
    times = (0.4, 0.2, 0.1)
    small = max(abs(p.d_eg) * times[0], abs(p.eps_egeg) * times[0]) <= 1e-2
    devs = [
        float(np.max(np.abs(jc.jc_evolve_first_order(p, rho0, t) - jc.evolve_jc(p, rho0, [t])[0])))
        for t in times
    ]
    ratios = [devs[0] / devs[1], devs[1] / devs[2]]
    ok = small and all(3.2 <= r <= 4.8 for r in ratios)
    return ok, f"halving ratios {ratios[0]:.2f}, {ratios[1]:.2f}"


def _vacuum_rabi() -> tuple[bool, str]:
    """P_e(t) = cos^2(d t) over one period."""
    d = 0.05
    p = jc.JCParams(omega_e=1.0, omega=1.0, d_eg=d, n_max=4)
    rho0 = jc.initial_jc_state("e0", p.n_max)
    times = np.linspace(0.0, np.pi / d, 41)
    pops = [jc.excited_population(rho, p.n_max) for rho in jc.evolve_jc(p, rho0, times)]
    worst = float(np.max(np.abs(np.array(pops) - np.cos(d * times) ** 2)))
    return worst < 1e-6, f"max |P_e - cos^2| = {worst:.2e}"


def _bipartite_generator_audit() -> tuple[bool, str]:
    """CL - QM generators equal the cross terms; the structured actions the
    evolution uses equal the dense generators; reduced purity drops as t^2."""
    basis = entangle.BipartiteBasis(n_levels=4)
    lam = 0.3
    d_cl = entangle.build_bipartite_liouvillian(basis, lam, SuperPotentialKind.CL).dense()
    d_qm = entangle.build_bipartite_liouvillian(basis, lam, SuperPotentialKind.QM).dense()
    cross = entangle.interaction_terms(
        basis,
        lam,
        classes={potential.MonomialClass.INTRA_SUBSYSTEM_MIXED,
                 potential.MonomialClass.INTER_SPACE_CROSS},
    )
    audit = float(np.max(np.abs(d_cl - d_qm - cross)))

    rng = np.random.Generator(np.random.Philox(12))
    rho = rng.normal(size=(basis.dim, basis.dim)) + 1j * rng.normal(size=(basis.dim, basis.dim))
    structured = 0.0
    for kind, dense in ((SuperPotentialKind.CL, d_cl), (SuperPotentialKind.QM, d_qm)):
        want = dense @ rho.reshape(-1)
        got = entangle.bipartite_action(basis, lam, kind)(rho).reshape(-1)
        structured = max(structured, float(np.max(np.abs(got - want)) / np.max(np.abs(want))))

    # reduced-purity decrease 1 - O((lam t)^2) with quadratic leading order
    times = np.array([0.025, 0.05, 0.1])
    states = entangle.evolve_bipartite(
        basis, 0.001, SuperPotentialKind.QM, entangle.separable_state(basis), times
    )
    drops = np.array([1.0 - entangle.entanglement_metrics(rho, 4)[0] for rho in states])
    slope = float(np.polyfit(np.log(times), np.log(drops), 1)[0])
    ok = (
        audit < 1e-10
        and structured < 1e-12
        and bool(np.all(drops > 0))
        and abs(slope - 2.0) <= 0.2
    )
    return ok, (
        f"audit defect {audit:.2e}; structured vs dense {structured:.2e}; "
        f"purity slope {slope:.2f}"
    )


def _trotter_convergence() -> tuple[bool, str]:
    """Strang error against the dense exponential shrinks as dt^2; every run
    warns that the density touches the grid boundary."""
    grid = superspace.SuperGrid.centered(5.0, 16)
    v = PolynomialPotential.quartic(0.5)
    sd = superspace.gaussian_super_density(grid, 0.5, 0.0, 0.55, 0.8)
    op = liouvillian.build_grid_liouvillian(v, grid, SuperPotentialKind.CL)
    ref = evolution.evolve_exact(op, sd.values, 0.4)
    errs = []
    warned = 0
    for n in (16, 32, 64):
        cfg = evolution.EvolutionConfig(t1=0.4, n_steps=n, method=evolution.EvolveMethod.TROTTER_STRANG)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = evolution.evolve_trotter(v, grid, SuperPotentialKind.CL, sd, cfg)
        warned += any(
            issubclass(w.category, UserWarning) and str(w.message).startswith("initial density")
            for w in caught
        )
        errs.append(np.max(np.abs(out.values - ref)))
    ratios = [errs[0] / errs[1], errs[1] / errs[2]]
    ok = warned == 3 and all(3.2 <= r <= 4.8 for r in ratios)
    return ok, f"halving ratios {ratios[0]:.2f}, {ratios[1]:.2f}; boundary warnings {warned}/3"


def _e_antisymmetry() -> tuple[bool, str]:
    """E(Q, q) = -E(q, Q) for random quartic polynomials."""
    rng = np.random.Generator(np.random.Philox(11))
    worst = 0.0
    for _ in range(20):
        v = PolynomialPotential(tuple(rng.uniform(-1, 1, size=5)))
        qb, qk = rng.uniform(-3, 3, size=(2, 25))
        e = potential.e_superoperator(v, qb, qk)
        scale = max(1.0, float(np.max(np.abs(e))))
        worst = max(worst, float(np.max(np.abs(e + potential.e_superoperator(v, qk, qb)))) / scale)
    return worst < 1e-12, f"max antisymmetry defect {worst:.2e}"


def _commutator_identity() -> tuple[bool, str]:
    """The basis Liouvillian acts as H rho - rho H."""
    rng = np.random.Generator(np.random.Philox(14))
    h = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    h = 0.5 * (h + h.conj().T)
    rho = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    liou = liouvillian.build_basis_liouvillian(h)
    err = float(np.max(np.abs(liou.apply(rho) - (h @ rho - rho @ h))))
    return err < 1e-12, f"max defect {err:.2e}"


def _transform_roundtrip() -> tuple[bool, str]:
    """phase -> super -> phase returns the Gaussian and keeps its trace."""
    grid = superspace.SuperGrid.centered(7.0, 64)
    pg = grid.matched_phase_grid()
    pd = superspace.gaussian_phase_density(pg, 0.8, -0.4, 0.6, 0.7)
    sd = superspace.phase_to_super(pd, grid)
    m = superspace.moments(sd)
    herm = m.hermiticity_defect
    back = superspace.super_to_phase(sd)
    rt = float(np.max(np.abs(back.values - pd.values)))
    tr = abs(m.trace - pd.norm())
    ok = herm < 1e-10 and rt < 1e-8 and tr < 1e-8
    return ok, f"herm {herm:.2e}, roundtrip {rt:.2e}, trace drift {tr:.2e}"


def _superspace_moments() -> tuple[bool, str]:
    """<x>, <p> and the Weyl <xp> of a superspace Gaussian match its centre."""
    grid = superspace.SuperGrid.centered(8.0, 64)
    sd = superspace.gaussian_super_density(grid, 1.5, -0.5, 0.7, 0.6)
    m = superspace.moments(sd)
    ex = abs(m.x - 1.5)
    ep = abs(m.p + 0.5)
    exp_xy = abs(m.xp_weyl - 1.5 * (-0.5))
    ok = max(ex, ep, exp_xy) < 1e-6
    return ok, f"|dx|={ex:.2e} |dp|={ep:.2e} |dxp|={exp_xy:.2e}"


def _harmonic_cl_equals_qm() -> tuple[bool, str]:
    """With E == 0 the CL and QM Trotter runs coincide."""
    grid = superspace.SuperGrid.centered(8.0, 64)
    sd = superspace.gaussian_super_density(grid, 0.8, 0.0, 0.6, 0.8)
    v = PolynomialPotential.harmonic(1.0)
    cfg = evolution.EvolutionConfig(t1=1.0, n_steps=64, method=evolution.EvolveMethod.TROTTER_STRANG)
    out_cl = evolution.evolve_trotter(v, grid, SuperPotentialKind.CL, sd, cfg)
    out_qm = evolution.evolve_trotter(v, grid, SuperPotentialKind.QM, sd, cfg)
    err = float(np.max(np.abs(out_cl.values - out_qm.values)))
    return err < 1e-10, f"max CL-QM deviation {err:.2e}"


CHECKS: list[tuple[str, Callable[[], tuple[bool, str]]]] = [
    ("superoperator_kill_switch", _superoperator_kill_switch),
    ("quartic_identity", _quartic_identity),
    ("free_transport", _free_transport),
    ("cl_vs_characteristics_oracle", _cl_vs_characteristics_oracle),
    ("gamma_validation", _gamma_validation),
    ("spectral_symmetry", _spectral_symmetry),
    ("conservation_suite", _conservation_suite),
    ("jc_selection_rules", _jc_selection_rules),
    ("jc_first_order_consistency", _jc_first_order_consistency),
    ("vacuum_rabi", _vacuum_rabi),
    ("bipartite_generator_audit", _bipartite_generator_audit),
    ("trotter_convergence", _trotter_convergence),
    ("e_antisymmetry", _e_antisymmetry),
    ("commutator_identity", _commutator_identity),
    ("transform_roundtrip", _transform_roundtrip),
    ("superspace_moments", _superspace_moments),
    ("harmonic_cl_equals_qm", _harmonic_cl_equals_qm),
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
