"""Smoke runs of the experiment scripts at shrunk sizes."""

import csv
import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "name, t_end, n_out, header",
    [
        (
            "quartic_cl_vs_qm", 0.2, 2,
            ["t", "x_cl", "x_qm", "p_cl", "p_qm", "x2_cl", "x2_qm", "purity_cl", "purity_qm"],
        ),
        (
            "bipartite_entanglement", 0.5, 3,
            ["t", "purity_cl", "purity_qm", "min_eig_cl", "min_eig_qm"],
        ),
        (
            "jc_coherence_scan", 1.0, 2,
            ["t"] + [
                f"{col}[eps={tag}]"
                for tag in ("0_0", "0_-0.02", "0_-0.05", "0.05_-0.05")
                for col in ("P_e", "coh")
            ],
        ),
    ],
)
def test_script_writes_csv(tmp_path, monkeypatch, name, t_end, n_out, header):
    module = load_script(name)
    monkeypatch.setattr(module, "T_END", t_end)
    monkeypatch.setattr(module, "N_OUT", n_out)
    out = tmp_path / f"{name}.csv"
    monkeypatch.setattr(sys, "argv", [name, str(out)])
    module.main()
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == header
    # quartic_cl_vs_qm writes the n_out evolved times, the others t = 0 too
    n_rows = n_out if name == "quartic_cl_vs_qm" else n_out + 1
    assert len(rows) == 1 + n_rows
    assert all(len(row) == len(header) for row in rows[1:])
    assert float(rows[-1][0]) == pytest.approx(t_end, rel=1e-12)
    assert all(float(cell) == float(cell) for row in rows[1:] for cell in row)  # no NaN


def test_jc_coherence_scan_stays_a_density(tmp_path, monkeypatch):
    """Over the full time span, no swept eps lets |rho_eg00| exceed the 0.5
    any density matrix allows."""
    module = load_script("jc_coherence_scan")
    monkeypatch.setattr(module, "N_OUT", 6)
    out = tmp_path / "scan.csv"
    monkeypatch.setattr(sys, "argv", ["jc_coherence_scan", str(out)])
    module.main()
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    coh = [i for i, col in enumerate(rows[0]) if col.startswith("coh[")]
    assert len(coh) == len(module.EPS_VALUES)
    assert max(float(row[i]) for row in rows[1:] for i in coh) <= 0.5
