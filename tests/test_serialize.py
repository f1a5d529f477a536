import csv

import numpy as np
import pytest

from liouspace.serialize import (
    load_super_density,
    save_complex_matrix,
    save_super_density,
    write_csv,
)
from liouspace.superspace import SuperGrid, gaussian_super_density


@pytest.mark.parametrize("n", [16, 256])
def test_super_density_round_trip(tmp_path, n):
    grid = SuperGrid.centered(5.0, n)
    sd = gaussian_super_density(grid, 0.4, -0.3, 0.7, 0.8)
    csv_path, meta_path = save_super_density(tmp_path / "state", sd, hbar=0.9, mass=1.2)
    assert csv_path.exists() and meta_path.exists()
    loaded, meta = load_super_density(tmp_path / "state")
    assert meta["hbar"] == 0.9 and meta["mass"] == 1.2
    assert loaded.grid == grid
    np.testing.assert_array_equal(loaded.values, sd.values)


@pytest.mark.parametrize("n_rows", [6, 300])
def test_float_matrix_rows_match_the_csv_writer(tmp_path, n_rows):
    mat = np.random.default_rng(3).normal(size=(n_rows, 5)) * 10.0 ** np.arange(-4, 6, 2)
    mat[0, 0], mat[1, 2], mat[2, 4], mat[3, 1], mat[4, 3] = -0.0, np.nan, np.inf, -np.inf, 1e-310
    write_csv(tmp_path / "fast.csv", mat, header=list("abcde"))
    # the per-cell route every non-matrix row takes
    with open(tmp_path / "ref.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list("abcde"))
        for row in mat:
            writer.writerow(["%.17g" % v for v in row])
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_complex_matrix_interleaves_re_im(tmp_path):
    mat = np.array([[1 + 2j, 3 - 1j]])
    path = save_complex_matrix(tmp_path / "op.csv", mat)
    row = path.read_text().strip().split(",")
    assert [float(v) for v in row] == [1.0, 2.0, 3.0, -1.0]
