#!/usr/bin/env python3
"""Effect of the Coulomb superoperator on Jaynes-Cummings coherences.

Sweeps the superoperator element E_{eg,eg} at fixed dipole coupling and
records how the |e,0><g,0| coherence magnitude and the excited-state
population respond; E = 0 reproduces the pure quantum Rabi oscillation.
The sweep keeps Im eps <= 0, which damps the eg coherence: Im eps > 0
amplifies it, and the coherence then grows past the 0.5 that any density
matrix allows.

Usage: python scripts/jc_coherence_scan.py [out.csv]
"""

import sys

import numpy as np

from liouspace import JCParams
from liouspace.jaynescummings import (
    ATOM_E,
    ATOM_G,
    coherent_field_density,
    evolve_jc,
    excited_population,
)
from liouspace.serialize import write_csv

EPS_VALUES = [0, complex(0, -0.02), complex(0, -0.05), complex(0.05, -0.05)]
D_EG = 0.05
N_MAX = 4
T_END = 60.0
N_OUT = 120


def main() -> None:
    out = sys.argv[1] if len(sys.argv) > 1 else "jc_coherence_scan.csv"
    atom = np.array([[0.5, 0.35], [0.35, 0.5]], dtype=complex)
    rho0 = np.kron(atom, coherent_field_density(0.4, N_MAX))
    times = np.linspace(0.0, T_END, N_OUT + 1)
    series = []
    for eps in EPS_VALUES:
        p = JCParams(omega_e=1.0, omega=1.0, d_eg=D_EG, n_max=N_MAX, eps_egeg=eps)
        f = N_MAX + 1
        series.append([
            (excited_population(rho, N_MAX), abs(rho.reshape(2, f, 2, f)[ATOM_E, 0, ATOM_G, 0]))
            for rho in evolve_jc(p, rho0, times)
        ])
    header = ["t"]
    for eps in EPS_VALUES:
        tag = f"{eps.real:g}_{eps.imag:g}"
        header += [f"P_e[eps={tag}]", f"coh[eps={tag}]"]
    write_csv(
        out,
        [(float(t), *(v for rows in series for v in rows[i])) for i, t in enumerate(times)],
        header=header,
    )
    print(f"wrote {out} ({len(EPS_VALUES)} superoperator settings)")


if __name__ == "__main__":
    main()
