"""The experiment configs at full size, and a smoke run of the one script."""

import csv
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from liouspace import evolution, validate
from liouspace.cli import EXIT_OK, parse_config, parse_potential_spec, run

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def config_argvs():
    """One run per config; an evolve config is a CL vs QM pair, whose QM
    half is the same config run with --kind qm."""
    for path in sorted(SCRIPTS.glob("*.json")):
        scenario, _ = parse_config(path)
        argv = [scenario, "--config", str(path)]
        yield pytest.param(argv, id=path.name)
        if scenario == "evolve":
            yield pytest.param(argv + ["--kind", "qm"], id=f"{path.name} --kind qm")


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


@pytest.mark.parametrize("argv", list(config_argvs()))
def test_config_passes_every_check(tmp_path, argv):
    assert run(argv + ["--outdir", str(tmp_path)]) == EXIT_OK
    manifest = json.loads((tmp_path / argv[0] / f"{argv[0]}_manifest.json").read_text())
    assert manifest["checks"] and all(manifest["checks"].values())


def test_quartic_cl_config_ends_on_the_characteristics(tmp_path):
    """The last row of the CL run against the leapfrog transport of a
    2^15-sample ensemble of the same Gaussian."""
    config = SCRIPTS / "quartic_cl_vs_qm.json"
    _, p = parse_config(config)
    assert run(["evolve", "--config", str(config), "--outdir", str(tmp_path)]) == EXIT_OK
    header, *rows = read_rows(tmp_path / "evolve" / "evolve_series.csv")
    last = dict(zip(header, map(float, rows[-1])))
    assert last["t"] == p["t"]
    ens = evolution.gaussian_ensemble(2**15, p["x0"], p["p0"], p["sigma_x"], p["sigma_p"], seed=1)
    ens = evolution.evolve_characteristics(parse_potential_spec(p["potential"]), ens, p["t"], 5e-4)
    for name, want in zip(("x_mean", "p_mean", "x2_mean"), ens.moments()):
        assert abs(last[name] - want) < validate.CHARACTERISTICS_TOL, name


def test_jc_coherence_scan_writes_csv(tmp_path, monkeypatch):
    module = load_script("jc_coherence_scan")
    monkeypatch.setattr(module, "T_END", 1.0)
    monkeypatch.setattr(module, "N_OUT", 2)
    out = tmp_path / "scan.csv"
    monkeypatch.setattr(sys, "argv", ["jc_coherence_scan", str(out)])
    module.main()
    rows = read_rows(out)
    assert rows[0] == ["t"] + [
        f"{col}[eps={tag}]"
        for tag in ("0_0", "0_-0.02", "0_-0.05", "0.05_-0.05")
        for col in ("P_e", "coh")
    ]
    assert len(rows) == 1 + 2 + 1  # t = 0 and the N_OUT evolved times
    assert float(rows[1][0]) == 0.0
    assert all(len(row) == len(rows[0]) for row in rows[1:])
    assert float(rows[-1][0]) == pytest.approx(1.0, rel=1e-12)
    assert all(float(cell) == float(cell) for row in rows[1:] for cell in row)  # no NaN


def test_jc_coherence_scan_stays_a_density(tmp_path, monkeypatch):
    """Over the full time span, no swept eps lets |rho_eg00| exceed the 0.5
    any density matrix allows."""
    module = load_script("jc_coherence_scan")
    monkeypatch.setattr(module, "N_OUT", 6)
    out = tmp_path / "scan.csv"
    monkeypatch.setattr(sys, "argv", ["jc_coherence_scan", str(out)])
    module.main()
    rows = read_rows(out)
    coh = [i for i, col in enumerate(rows[0]) if col.startswith("coh[")]
    assert len(coh) == len(module.EPS_VALUES)
    assert max(float(row[i]) for row in rows[1:] for i in coh) <= 0.5
