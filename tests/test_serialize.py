import numpy as np

from liouspace.serialize import (
    load_super_density,
    save_complex_matrix,
    save_super_density,
)
from liouspace.superspace import SuperGrid, gaussian_super_density


def test_super_density_round_trip(tmp_path):
    grid = SuperGrid.centered(5.0, 16)
    sd = gaussian_super_density(grid, 0.4, -0.3, 0.7, 0.8)
    csv_path, meta_path = save_super_density(tmp_path / "state", sd, hbar=0.9, mass=1.2)
    assert csv_path.exists() and meta_path.exists()
    loaded, meta = load_super_density(tmp_path / "state")
    assert meta["hbar"] == 0.9 and meta["mass"] == 1.2
    assert loaded.grid == grid
    np.testing.assert_array_equal(loaded.values, sd.values)


def test_complex_matrix_interleaves_re_im(tmp_path):
    mat = np.array([[1 + 2j, 3 - 1j]])
    path = save_complex_matrix(tmp_path / "op.csv", mat)
    row = path.read_text().strip().split(",")
    assert [float(v) for v in row] == [1.0, 2.0, 3.0, -1.0]
