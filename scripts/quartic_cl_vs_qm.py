#!/usr/bin/env python3
"""Classical vs quantum evolution in the quartic well, side by side.

Evolves the same Gaussian initial state under the Liouville (CL) and von
Neumann (QM) grid dynamics and writes one CSV with both moment series, a
row at t = 0 and after every STEPS_PER_ROW steps (``grid_series``).  The
two runs share every ingredient except the superoperator E(Q, q).

The classical run filaments in phase space, so its (Q, q) support grows
with time; the script reports the largest boundary mass of each run, which
bounds the truncation artifacts of the late-time classical rows.

Usage: python scripts/quartic_cl_vs_qm.py [out.csv]
"""

import sys

import numpy as np

from liouspace.serialize import write_csv
from liouspace import (
    EvolutionConfig,
    PolynomialPotential,
    SuperGrid,
    SuperPotentialKind,
    gaussian_super_density,
    grid_series,
)

LAM = 0.15
T_END = 4.0
N_OUT = 48
STEPS_PER_ROW = 12
MOMENTS = ("x_mean", "p_mean", "x2_mean", "purity")


def moment_series(kind):
    grid = SuperGrid.centered(12.0, 192)
    # minimal-uncertainty Gaussian (sigma_x sigma_p = 1/2): purity 1 initially
    sd = gaussian_super_density(grid, 1.0, 0.0, 0.6, 1.0 / 1.2)
    cfg = EvolutionConfig(t1=T_END, n_steps=STEPS_PER_ROW * N_OUT)
    cols, _, margins, _ = grid_series(PolynomialPotential.quartic(LAM), grid, kind, sd, cfg, N_OUT)
    print(f"{kind.value}: largest boundary mass {margins['max_boundary_mass']:.2e}")
    return cols


def main() -> None:
    out = sys.argv[1] if len(sys.argv) > 1 else "quartic_cl_vs_qm.csv"
    cl = moment_series(SuperPotentialKind.CL)
    qm = moment_series(SuperPotentialKind.QM)
    write_csv(
        out,
        np.column_stack([cl["t"]] + [run[name] for name in MOMENTS for run in (cl, qm)]),
        header=["t", "x_cl", "x_qm", "p_cl", "p_qm", "x2_cl", "x2_qm", "purity_cl", "purity_qm"],
    )
    gap = np.max(np.abs(cl["x_mean"] - qm["x_mean"]))
    print(f"wrote {out}; largest CL-QM <x> gap over the run: {gap:.4g}")


if __name__ == "__main__":
    main()
