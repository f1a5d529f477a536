#!/usr/bin/env python3
"""Entanglement generation under the bipartite quartic coupling: CL vs QM.

Runs both generators from the same separable ground state and writes the
reduced-purity and minimum-eigenvalue time series.  The classical run may
push eigenvalues negative; they are reported as data.

Usage: python scripts/bipartite_entanglement.py [out.csv]
"""

import sys

import numpy as np

from liouspace.entangle import (
    BipartiteBasis,
    compare_cl_qm_entanglement,
    separable_state,
)
from liouspace.serialize import write_csv

LAM = 0.0002
N_LEVELS = 4
T_END = 6.0
N_OUT = 60


def main() -> None:
    out = sys.argv[1] if len(sys.argv) > 1 else "bipartite_entanglement.csv"
    basis = BipartiteBasis(n_levels=N_LEVELS)
    rho0 = separable_state(basis)
    rows = compare_cl_qm_entanglement(
        basis, LAM, rho0, np.linspace(0.0, T_END, N_OUT + 1)
    )
    write_csv(
        out,
        [(r.t, r.purity_cl, r.purity_qm, r.min_eig_cl, r.min_eig_qm) for r in rows],
        header=["t", "purity_cl", "purity_qm", "min_eig_cl", "min_eig_qm"],
    )
    drop_cl = 1.0 - min(r.purity_cl for r in rows)
    drop_qm = 1.0 - min(r.purity_qm for r in rows)
    print(f"wrote {out}; max purity drop: cl {drop_cl:.3e}, qm {drop_qm:.3e}")


if __name__ == "__main__":
    main()
