"""CSV (+ JSON sidecar) serialization for densities and dense operators.

Layout: one CSV row per bra-axis index; complex matrices interleave
re/im columns.  The sidecar records grid bounds, sizes, hbar and mass so
a file round-trips into an identical object.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .superspace import SuperDensity, SuperGrid

_FMT = "%.17g"


def write_csv(path, rows, header=None) -> None:
    """CSV with LF line endings; floats as %.17g, other cells as str.

    A 2-D float64 ndarray is written with one format per row, converted to
    Python floats one row at a time, so a large matrix makes no list copy of
    itself; its cells never need quoting, so the bytes equal those of the
    per-cell route.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        if header is not None:
            writer.writerow(header)
        if isinstance(rows, np.ndarray) and rows.ndim == 2 and rows.dtype == np.float64:
            line = ",".join([_FMT] * rows.shape[1]) + "\n"
            fh.writelines(line % tuple(row.tolist()) for row in rows)
            return
        for row in rows:
            writer.writerow([_FMT % v if isinstance(v, float) else v for v in row])


def _interleave(mat: np.ndarray):
    out = np.empty((mat.shape[0], 2 * mat.shape[1]))
    out[:, 0::2] = mat.real
    out[:, 1::2] = mat.imag
    return out


def save_super_density(
    base_path, sd: SuperDensity, hbar: float = 1.0, mass: float = 1.0
) -> tuple[Path, Path]:
    base = Path(base_path)
    csv_path = base.with_suffix(".csv")
    meta_path = base.with_suffix(".json")
    write_csv(csv_path, _interleave(sd.values))
    meta = {
        "kind": "super_density",
        "q_min": sd.grid.q_min,
        "q_max": sd.grid.q_max,
        "n": sd.grid.n,
        "hbar": hbar,
        "mass": mass,
    }
    meta_path.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    return csv_path, meta_path


def load_super_density(base_path) -> tuple[SuperDensity, dict]:
    base = Path(base_path)
    meta = json.loads(base.with_suffix(".json").read_text())
    raw = np.loadtxt(base.with_suffix(".csv"), delimiter=",", ndmin=2)
    values = raw[:, 0::2] + 1j * raw[:, 1::2]
    grid = SuperGrid(meta["q_min"], meta["q_max"], meta["n"])
    return SuperDensity(grid, values), meta


def save_complex_matrix(path, mat: np.ndarray) -> Path:
    """Dense operator export (re/im interleaved), e.g. Liouvillians or E."""
    path = Path(path)
    write_csv(path, _interleave(np.asarray(mat, dtype=complex)))
    return path


def save_real_matrix(path, mat: np.ndarray) -> Path:
    path = Path(path)
    write_csv(path, np.asarray(mat, dtype=float))
    return path
