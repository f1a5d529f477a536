"""The benchmark's three CLI scenarios, their seeded inputs and their oracles.

A workload is one fixed scenario size.  The seed draws only the initial
state, never the amount of work.  Each builder returns the argv for
``liouspace.cli.run`` together with gates on the last row of the scenario's
series CSV, computed here by an independent route and outside any timed
region.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse

from liouspace import entangle, evolution
from liouspace import jaynescummings as jc
from liouspace.potential import PolynomialPotential

# Absolute allowance for floating-point rounding in both routes; the
# eigendecomposition route alone is accurate to about 1e-12 at these sizes.
ROUNDING_FLOOR = 1e-9
# Largest ||L|| dt / hbar of one RK4 oracle step.
RK4_MAX_STEP_PHASE = 0.05
# The acceptance suite's bound for grid moments against the leapfrog ensemble.
CHARACTERISTICS_TOL = 1e-3
CHARACTERISTICS_SAMPLES = 2**15
CHARACTERISTICS_DT = 5e-4


@dataclass(frozen=True)
class Gate:
    """The final-row value of one CSV column must lie within tol of expected."""

    column: str
    expected: float
    tol: float


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str
    argv: list[str]
    series_csv: str
    gates: list[Gate]


def _draw(seed: int, *ranges: tuple[float, float]) -> list[float]:
    rng = random.Random(seed)
    return [rng.uniform(lo, hi) for lo, hi in ranges]


def _rk4(dense: np.ndarray, rho0: np.ndarray, t: float) -> tuple[np.ndarray, float]:
    """rho(t) by the library's RK4 route, and a bound on its distance from exact.

    For Hermitian L with r >= ||L||_2, one RK4 step differs from
    exp(-i L dt) by at most e^h h^5 / 5! in norm, h = r dt, and the RK4
    amplification |R(iy)| stays <= 1 for |y| <= 2 sqrt(2).  The errors of n
    steps therefore add to at most n e^h h^5 / 5! ||rho0||_F.
    """
    gen = scipy.sparse.csr_matrix(dense)
    if abs(gen - gen.conj().T).max() > 1e-12 * abs(gen).max():
        raise ValueError("the RK4 error bound needs a Hermitian generator")
    col_sums = abs(gen).sum(axis=0)
    r = float(col_sums.max())  # ||L||_1 = ||L||_inf >= ||L||_2 for Hermitian L
    n_steps = math.ceil(t * r / RK4_MAX_STEP_PHASE)
    h = r * t / n_steps
    cfg = evolution.EvolutionConfig(
        t1=t, n_steps=n_steps, method=evolution.EvolveMethod.RK4
    )
    rho = evolution.evolve_ordered(lambda _t: gen, rho0, cfg)
    delta = n_steps * math.exp(h) * h**5 / 120.0 * float(np.linalg.norm(rho0))
    return rho, delta


def grid_cl_n256(seed: int) -> Workload:
    x0, p0 = _draw(seed, (0.8, 1.2), (-0.2, 0.2))
    sigma_x, sigma_p, lam, t = 0.4, 0.6, 0.1, 0.5
    argv = [
        "evolve", "--potential", f"quartic:{lam}", "--kind", "cl",
        "--grid-n", "256", "--grid-span", "8", "--steps", "400",
        "--t", str(t), "--n-out", "50", "--x0", repr(x0), "--p0", repr(p0),
        "--sigma-x", str(sigma_x), "--sigma-p", str(sigma_p),
    ]
    ens = evolution.gaussian_ensemble(
        CHARACTERISTICS_SAMPLES, x0, p0, sigma_x, sigma_p, seed=seed
    )
    ens = evolution.evolve_characteristics(
        PolynomialPotential.quartic(lam), ens, t, dt=CHARACTERISTICS_DT
    )
    gates = [
        Gate(col, val, CHARACTERISTICS_TOL)
        for col, val in zip(("x_mean", "p_mean", "x2_mean"), ens.moments())
    ]
    return Workload("grid-cl-n256", "evolve", argv, "evolve_series.csv", gates)


def bipartite_n6(seed: int) -> Workload:
    a1, a2 = _draw(seed, (0.0, 0.3), (0.0, 0.3))
    n, lam, t = 6, 3e-4, 2.0
    argv = [
        "bipartite", "--n-levels", str(n), "--lam", str(lam), "--t", str(t),
        "--steps", "40", "--omega", "1.0", "--alpha1", repr(a1), "--alpha2", repr(a2),
    ]
    basis = entangle.BipartiteBasis(n_levels=n)
    rho0 = entangle.separable_state(basis, a1, a2)
    root_n = math.sqrt(n)  # ||Tr_2 X||_F <= sqrt(n) ||X||_F
    gates = []
    for kind in ("cl", "qm"):
        dense = entangle.build_bipartite_liouvillian(basis, lam, kind).dense()
        rho, delta = _rk4(dense, rho0, t)
        red = np.einsum("anbn->ab", rho.reshape(n, n, n, n))
        herm = 0.5 * (rho + rho.conj().T)
        d_red = root_n * delta
        gates += [
            Gate(
                f"purity_{kind}",
                float(np.trace(red @ red).real),
                2.0 * d_red + d_red**2 + ROUNDING_FLOOR,
            ),
            # Weyl: eigenvalues move by at most ||X||_2 <= ||X||_F
            Gate(
                f"min_eig_{kind}",
                float(np.linalg.eigvalsh(herm)[0]),
                delta + ROUNDING_FLOOR,
            ),
        ]
    return Workload("bipartite-n6", "bipartite", argv, "bipartite_series.csv", gates)


def jc_n12(seed: int) -> Workload:
    (a,) = _draw(seed, (0.5, 1.0))
    params = jc.JCParams(omega_e=1.0, omega=1.0, d_eg=0.05, n_max=12, eps_egeg=0.01)
    init, t = f"coherent:{a!r}", 10.0
    argv = [
        "jc", "--n-max", str(params.n_max), "--steps", "2000", "--t", str(t),
        "--omega-e", "1.0", "--omega", "1.0", "--d", "0.05",
        "--eps", "0.01,0", "--eps-eegg", "0,0", "--init", init,
    ]
    dense = jc.jc_liouvillian(params).dense()
    rho, delta = _rk4(dense, jc.initial_jc_state(init, params.n_max), t)
    f = params.fock_dim
    blocks = rho.reshape(2, f, 2, f)
    gates = [
        # |Tr X| <= sqrt(f) ||X||_F for the f x f excited block
        Gate(
            "P_e",
            float(np.trace(blocks[jc.ATOM_E, :, jc.ATOM_E, :]).real),
            math.sqrt(f) * delta + ROUNDING_FLOOR,
        ),
        Gate(
            "abs_rho_eg00",
            float(abs(blocks[jc.ATOM_E, 0, jc.ATOM_G, 0])),
            delta + ROUNDING_FLOOR,
        ),
        Gate(
            "purity",
            float(np.trace(rho @ rho).real),
            2.0 * delta + delta**2 + ROUNDING_FLOOR,
        ),
    ]
    return Workload("jc-n12", "jc", argv, "jc_series.csv", gates)


BUILDERS = {
    "grid-cl-n256": grid_cl_n256,
    "bipartite-n6": bipartite_n6,
    "jc-n12": jc_n12,
}


def check(workload: Workload, outdir: Path) -> tuple[list[str], dict[str, float]]:
    """Problems with one invocation's outputs, and its oracle errors by column.

    ``outdir`` is the directory passed as --outdir; the CLI writes under
    ``outdir / scenario``.
    """
    base = outdir / workload.scenario
    try:
        manifest = json.loads((base / f"{workload.scenario}_manifest.json").read_text())
        lines = (base / workload.series_csv).read_text().splitlines()
        missing = [name for name in manifest["outputs"] if not (base / name).is_file()]
        row = dict(zip(lines[0].split(","), (float(v) for v in lines[-1].split(","))))
        errors = {g.column: abs(row[g.column] - g.expected) for g in workload.gates}
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"unreadable output: {exc!r}"], {}
    problems = [f"manifest check {k} is false" for k, ok in manifest["checks"].items() if not ok]
    problems += [f"missing output {name}" for name in missing]
    problems += [
        f"oracle {g.column}: error {errors[g.column]:.3e} > gate {g.tol:.3e}"
        for g in workload.gates
        if not errors[g.column] <= g.tol
    ]
    return problems, errors
