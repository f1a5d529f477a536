#!/usr/bin/env python3
"""Entanglement generation under the bipartite quartic coupling: CL vs QM.

Runs both generators from the same separable ground state, through the
relative mode (x1 - x2)/sqrt 2 on N_LEVELS ladder levels, and writes the
reduced-purity and minimum-eigenvalue time series.  The classical run may
push eigenvalues negative; they are reported as data.

Usage: python scripts/bipartite_entanglement.py [out.csv]
"""

import sys

import numpy as np

from liouspace.entangle import BipartiteBasis, compare_cl_qm_entanglement
from liouspace.serialize import write_csv

LAM = 0.0002
N_LEVELS = 6
T_END = 6.0
N_OUT = 60
COLUMNS = ["t", "purity_cl", "purity_qm", "min_eig_cl", "min_eig_qm"]


def main() -> None:
    out = sys.argv[1] if len(sys.argv) > 1 else "bipartite_entanglement.csv"
    series, _, _ = compare_cl_qm_entanglement(
        BipartiteBasis(n_levels=N_LEVELS), LAM, 0.0, 0.0, T_END, N_OUT
    )
    write_csv(out, np.column_stack([series[c] for c in COLUMNS]), header=COLUMNS)
    drop_cl = 1.0 - np.min(series["purity_cl"])
    drop_qm = 1.0 - np.min(series["purity_qm"])
    print(f"wrote {out}; max purity drop: cl {drop_cl:.3e}, qm {drop_qm:.3e}")


if __name__ == "__main__":
    main()
