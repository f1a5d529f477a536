#!/usr/bin/env python3
"""Classical vs quantum evolution in the quartic well, side by side.

Evolves the same Gaussian initial state under the Liouville (CL) and von
Neumann (QM) grid dynamics and writes one CSV with both moment series.
The two runs share every ingredient except the superoperator E(Q, q).

The classical run filaments in phase space, so its (Q, q) support grows
with time; the script reports the final boundary mass, which bounds the
truncation artifacts of the late-time classical rows.

Usage: python scripts/quartic_cl_vs_qm.py [out.csv]
"""

import sys

from liouspace.evolution import boundary_mass
from liouspace.serialize import write_csv
from liouspace import (
    EvolutionConfig,
    EvolveMethod,
    PolynomialPotential,
    SuperGrid,
    SuperPotentialKind,
    evolve_trotter,
    gaussian_super_density,
    moments,
)

LAM = 0.15
T_END = 4.0
N_OUT = 48
STEPS_PER_ROW = 12


def moment_series(kind):
    grid = SuperGrid.centered(12.0, 192)
    # minimal-uncertainty Gaussian (sigma_x sigma_p = 1/2): purity 1 initially
    sd = gaussian_super_density(grid, 1.0, 0.0, 0.6, 1.0 / 1.2)
    v = PolynomialPotential.quartic(LAM)
    n_steps = STEPS_PER_ROW * N_OUT
    cfg = EvolutionConfig(t1=T_END, n_steps=n_steps, method=EvolveMethod.TROTTER_STRANG)
    rows = []

    def observe(k, state):
        if k % STEPS_PER_ROW == 0:
            m = moments(state)
            rows.append((T_END * k / n_steps, m.x, m.p, m.x2, m.purity))

    sd = evolve_trotter(v, grid, kind, sd, cfg, observe=observe)
    print(f"{kind.value}: final boundary mass {boundary_mass(sd.values):.2e}")
    return rows


def main() -> None:
    out = sys.argv[1] if len(sys.argv) > 1 else "quartic_cl_vs_qm.csv"
    cl = moment_series(SuperPotentialKind.CL)
    qm = moment_series(SuperPotentialKind.QM)
    write_csv(
        out,
        [(c[0], c[1], q[1], c[2], q[2], c[3], q[3], c[4], q[4]) for c, q in zip(cl, qm)],
        header=["t", "x_cl", "x_qm", "p_cl", "p_qm", "x2_cl", "x2_qm", "purity_cl", "purity_qm"],
    )
    gap = max(abs(c[1] - q[1]) for c, q in zip(cl, qm))
    print(f"wrote {out}; largest CL-QM <x> gap over the run: {gap:.4g}")


if __name__ == "__main__":
    main()
