import csv
import json

import numpy as np
import pytest

from liouspace import evolution, liouvillian, validate
from liouspace.cli import (
    EXIT_GUARD,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VALIDATION,
    parse_config,
    parse_potential_spec,
    run,
)
from liouspace.errors import ParseError, UnknownKey


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [[v for v in line.split(",")] for line in lines[1:]]
    return header, rows


# margin -> (the boolean check it measures, the bound that check applies)
MARGIN_CHECKS = {
    "evolve": {
        "max_trace_drift": ("trace_conserved_1e-8", lambda v: v < 1e-8),
        "max_hermiticity_defect": ("hermiticity_1e-8", lambda v: v < 1e-8),
        "max_boundary_mass": ("boundary_mass_ok", lambda v: v < 1e-6),
    },
    "jc": {
        "max_trace_drift": ("trace_conserved_1e-8", lambda v: v < 1e-8),
        "max_purity": ("purity_at_most_1_1e-8", lambda v: v <= 1.0 + 1e-8),
    },
    "bipartite": {
        "max_trace_drift": ("trace_conserved_1e-8", lambda v: v < 1e-8),
    },
}


def stub_check(ok):
    return lambda: (ok, "detail, with commas, like real checks")


def run_validate(tmp_path, monkeypatch, checks):
    """Run `validate` over stub checks; the real ones run in test_acceptance."""
    monkeypatch.setattr(validate, "CHECKS", checks)
    code = run(["validate", "--outdir", str(tmp_path)])
    with open(tmp_path / "validate" / "validate_report.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert all(len(row) == 3 for row in rows)
    manifest = json.loads((tmp_path / "validate" / "validate_manifest.json").read_text())
    return code, rows, manifest


class TestParseConfig:
    def test_minimal_config_gets_defaults(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"scenario": "jc", "d": 0.02}))
        cfg = parse_config(path)
        assert cfg.scenario == "jc"
        assert cfg.params["d"] == 0.02
        assert cfg.params["omega_e"] == 1.0  # default applied

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"scenario": "jc", "coupling": 0.1}))
        with pytest.raises(UnknownKey, match="coupling"):
            parse_config(path)

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            parse_config(path)

    def test_unknown_scenario_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"scenario": "warp"}))
        with pytest.raises(ParseError):
            parse_config(path)

    def test_resolved_config_round_trips(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"scenario": "evolve", "t": 0.25}))
        cfg = parse_config(path)
        emitted = tmp_path / "resolved.json"
        emitted.write_text(json.dumps(cfg.resolved()))
        again = parse_config(emitted)
        assert again.resolved() == cfg.resolved()


class TestPotentialSpec:
    def test_specs(self):
        assert parse_potential_spec("free").coefficients == (0.0,)
        assert parse_potential_spec("quartic:0.1").coefficients[-1] == 0.1
        assert parse_potential_spec("harmonic:2.0").coefficients == (0.0, 0.0, 1.0)
        assert parse_potential_spec("poly:1,2,3").coefficients == (1.0, 2.0, 3.0)

    def test_bad_spec_is_usage_error(self, tmp_path):
        code = run(["evolve", "--potential", "cubic", "--outdir", str(tmp_path)])
        assert code == EXIT_USAGE

    def test_config_object_form(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "scenario": "superop",
                    "potential": {"type": "polynomial", "coeffs": [0.0, 0.0, 0.5]},
                    "grid_n": 16,
                }
            )
        )
        code = run(["superop", "--config", str(cfg), "--outdir", str(tmp_path)])
        assert code == EXIT_OK
        manifest = json.loads(
            (tmp_path / "superop" / "superop_manifest.json").read_text()
        )
        assert "e_vanishes_identically = True" in manifest["notes"]
        assert "e_vanishes_identically" not in manifest["checks"]
        # dense Liouvillian exported for small grids
        assert "superop_liouvillian.csv" in manifest["outputs"]

    def test_coulomb_object_rejected_for_grid_scenarios(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {"scenario": "superop", "potential": {"type": "coulomb", "e2": 1.0}}
            )
        )
        code = run(["superop", "--config", str(cfg), "--outdir", str(tmp_path)])
        assert code == EXIT_USAGE


class TestScenarios:
    def test_evolve_happy_path(self, tmp_path):
        code = run(
            [
                "evolve", "--potential", "quartic:0.1", "--kind", "cl",
                "--t", "0.5", "--grid-n", "64", "--steps", "50", "--n-out", "10",
                "--sigma-p", "0.6", "--outdir", str(tmp_path),
            ]
        )
        assert code == EXIT_OK
        header, rows = read_csv(tmp_path / "evolve" / "evolve_series.csv")
        assert header == ["t", "trace", "x_mean", "p_mean", "x2_mean", "purity"]
        assert len(rows) == 11
        manifest = json.loads((tmp_path / "evolve" / "evolve_manifest.json").read_text())
        assert manifest["checks"]["trace_conserved_1e-8"]
        assert "evolve_series.csv" in manifest["outputs"]
        for name in manifest["outputs"]:
            assert (tmp_path / "evolve" / name).exists()

    def test_evolve_deterministic(self, tmp_path):
        args = [
            "evolve", "--t", "0.2", "--grid-n", "32", "--steps", "20",
            "--n-out", "5", "--grid-span", "6.0", "--sigma-p", "0.8", "--x0", "0.3",
        ]
        run(args + ["--outdir", str(tmp_path / "a")])
        run(args + ["--outdir", str(tmp_path / "b")])
        a = (tmp_path / "a" / "evolve" / "evolve_series.csv").read_bytes()
        b = (tmp_path / "b" / "evolve" / "evolve_series.csv").read_bytes()
        assert a == b

    def test_jc_rabi(self, tmp_path):
        code = run(
            [
                "jc", "--omega-e", "1.0", "--omega", "1.0", "--d", "0.05",
                "--eps", "0,0", "--init", "e0", "--t", "10.0", "--steps", "40",
                "--outdir", str(tmp_path),
            ]
        )
        assert code == EXIT_OK
        header, rows = read_csv(tmp_path / "jc" / "jc_series.csv")
        assert header[:2] == ["t", "P_e"]
        for row in rows:
            t, p_e = float(row[0]), float(row[1])
            assert p_e == pytest.approx(np.cos(0.05 * t) ** 2, abs=1e-6)

    def test_evolve_builds_generator_once(self, tmp_path, monkeypatch):
        calls = []
        build = evolution.build_grid_liouvillian

        def counted(*args, **kwargs):
            calls.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(evolution, "build_grid_liouvillian", counted)
        code = run(
            ["evolve", "--grid-n", "64", "--steps", "20", "--n-out", "5",
             "--outdir", str(tmp_path)]
        )
        assert code == EXIT_OK
        assert len(calls) == 1
        header, rows = read_csv(tmp_path / "evolve" / "evolve_series.csv")
        assert [float(r[0]) for r in rows] == pytest.approx([0.0, 0.1, 0.2, 0.3, 0.4, 0.5])

    @pytest.mark.parametrize(
        "argv",
        [
            ["evolve", "--n-out", "0"],
            ["evolve", "--steps", "210", "--n-out", "50"],
            ["evolve", "--n-out", "300"],
            ["evolve", "--t", "0"],
            ["evolve", "--grid-n", "63"],
            ["evolve", "--method", "rk4"],
            ["jc", "--n-max", "0"],
            ["jc", "--init", "x5"],
            ["jc", "--eps-eegg", "0.03,0.01"],
            ["bipartite", "--n-levels", "1"],
            ["bipartite", "--alpha1", "abc"],
        ],
        ids=" ".join,
    )
    def test_bad_scenario_input_is_usage_error(self, tmp_path, argv):
        assert run(argv + ["--outdir", str(tmp_path)]) == EXIT_USAGE

    @pytest.mark.parametrize(
        "eps, bounded", [("0,0", True), ("0.01,-0.02", True), ("0.01,0.02", False)]
    )
    def test_jc_purity_check(self, tmp_path, eps, bounded):
        # Im eps > 0 amplifies the eg coherence, so purity exceeds 1
        code = run(["jc", "--eps", eps, "--steps", "20", "--outdir", str(tmp_path)])
        assert code == (EXIT_OK if bounded else EXIT_VALIDATION)
        manifest = json.loads((tmp_path / "jc" / "jc_manifest.json").read_text())
        assert manifest["checks"]["purity_at_most_1_1e-8"] is bounded
        assert manifest["checks"]["trace_conserved_1e-8"]

    def test_jc_guard_abort(self, tmp_path):
        code = run(
            ["jc", "--init", "coherent:2.5", "--n-max", "3", "--outdir", str(tmp_path)]
        )
        assert code == EXIT_GUARD

    def test_superop_outputs(self, tmp_path):
        code = run(
            ["superop", "--potential", "harmonic:1.0", "--outdir", str(tmp_path)]
        )
        assert code == EXIT_OK
        manifest = json.loads(
            (tmp_path / "superop" / "superop_manifest.json").read_text()
        )
        assert "e_vanishes_identically = True" in manifest["notes"]
        data = np.loadtxt(tmp_path / "superop" / "superop_e.csv", delimiter=",")
        assert np.max(np.abs(data)) < 1e-12

    def test_propagator_outputs(self, tmp_path):
        code = run(
            ["propagator", "--n-points", "3", "--lam", "0.3", "--outdir", str(tmp_path)]
        )
        assert code == EXIT_OK
        header, rows = read_csv(tmp_path / "propagator" / "propagator_points.csv")
        assert "abs_err_cl" in header
        idx = header.index("abs_err_cl")
        g_scale = max(
            abs(complex(float(r[header.index("G_cl_re")]), float(r[header.index("G_cl_im")])))
            for r in rows
        )
        for row in rows:
            assert float(row[idx]) < 1e-3 * g_scale

    def test_bipartite_outputs(self, tmp_path):
        code = run(
            [
                "bipartite", "--n-levels", "3", "--lam", "0.0002", "--t", "1.0",
                "--steps", "5", "--outdir", str(tmp_path),
            ]
        )
        assert code == EXIT_OK
        header, rows = read_csv(tmp_path / "bipartite" / "bipartite_series.csv")
        assert header[0] == "t"
        assert float(rows[-1][1]) <= 1.0 + 1e-12

    def test_bipartite_beyond_dense_size(self, tmp_path, monkeypatch):
        """n_levels 9 is a 6561-dim vectorized density, above the dense cap:
        the run evolves without ever forming a dense generator."""

        def refuse(self):
            raise AssertionError("bipartite formed a dense generator")

        monkeypatch.setattr(liouvillian.BasisLiouvillian, "dense", refuse)
        code = run(
            ["bipartite", "--n-levels", "9", "--steps", "10", "--outdir", str(tmp_path)]
        )
        assert code == EXIT_OK
        manifest = json.loads(
            (tmp_path / "bipartite" / "bipartite_manifest.json").read_text()
        )
        assert manifest["checks"]["trace_conserved_1e-8"]

    @pytest.mark.parametrize("eps", ["0.01,0", "0.01,-0.02"])
    def test_jc_beyond_dense_size(self, tmp_path, monkeypatch, eps):
        """n_max 40 is a 6724-dim vectorized density, above the dense cap:
        both jc routes evolve without forming a dense generator."""

        def refuse(self):
            raise AssertionError("jc formed a dense generator")

        monkeypatch.setattr(liouvillian.BasisLiouvillian, "dense", refuse)
        argv = ["jc", "--n-max", "40", "--steps", "10", "--eps", eps]
        assert run(argv + ["--outdir", str(tmp_path)]) == EXIT_OK
        manifest = json.loads((tmp_path / "jc" / "jc_manifest.json").read_text())
        assert manifest["checks"]["trace_conserved_1e-8"]

    @pytest.mark.parametrize(
        "argv, solver_path, generator_dim",
        [
            (["evolve", "--grid-n", "64", "--steps", "20", "--n-out", "5"],
             "trotter_strang", 64**2),
            (["evolve", "--grid-n", "64", "--steps", "20", "--n-out", "5",
              "--method", "lie"], "trotter_lie", 64**2),
            (["jc", "--n-max", "3", "--steps", "5"], "eigh", 4 * 4**2),
            (["jc", "--n-max", "3", "--steps", "5", "--eps", "0.01,-0.02"], "expm_multiply",
             4 * 4**2),
            (["bipartite", "--steps", "5"], {"cl": "expm_multiply", "qm": "eigh"}, 4**4),
        ],
        ids=lambda v: " ".join(v) if isinstance(v, list) else None,
    )
    def test_manifest_records_solver(self, tmp_path, argv, solver_path, generator_dim):
        assert run(argv + ["--outdir", str(tmp_path)]) == EXIT_OK
        manifest = json.loads(
            (tmp_path / argv[0] / f"{argv[0]}_manifest.json").read_text()
        )
        assert manifest["solver_path"] == solver_path
        assert manifest["generator_dim"] == generator_dim

    @pytest.mark.parametrize(
        "argv",
        [
            ["evolve", "--grid-n", "64", "--steps", "20", "--n-out", "5"],
            # the Gaussian fills a narrow grid: boundary_mass_ok is false
            pytest.param(
                ["evolve", "--grid-n", "32", "--grid-span", "2", "--steps", "20", "--n-out", "5"],
                marks=pytest.mark.filterwarnings("ignore:initial density is not negligible"),
            ),
            ["jc", "--n-max", "3", "--steps", "20"],
            # Im eps > 0 raises purity above 1: purity_at_most_1_1e-8 is false
            ["jc", "--n-max", "3", "--steps", "20", "--eps", "0.01,0.02"],
            ["bipartite", "--steps", "5"],
        ],
        ids=" ".join,
    )
    def test_margins_agree_with_checks(self, tmp_path, argv):
        code = run(argv + ["--outdir", str(tmp_path)])
        manifest = json.loads(
            (tmp_path / argv[0] / f"{argv[0]}_manifest.json").read_text()
        )
        margins = manifest["margins"]
        expected = MARGIN_CHECKS[argv[0]]
        assert set(margins) == set(expected)
        for margin, (check, holds) in expected.items():
            assert isinstance(margins[margin], float)
            assert holds(margins[margin]) is manifest["checks"][check], margin
        assert code == (EXIT_OK if all(manifest["checks"].values()) else EXIT_VALIDATION)

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": "jc", "d": 0.05, "t": 5.0, "steps": 10}))
        code = run(
            ["jc", "--config", str(cfg), "--t", "2.0", "--outdir", str(tmp_path)]
        )
        assert code == EXIT_OK
        manifest = json.loads((tmp_path / "jc" / "jc_manifest.json").read_text())
        assert manifest["config"]["t"] == 2.0  # flag wins
        assert manifest["config"]["d"] == 0.05  # config survives

    def test_unknown_flag_is_usage_error(self, tmp_path):
        assert run(["evolve", "--warp", "9"]) == EXIT_USAGE

    def test_bad_config_key_is_usage_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": "jc", "warp": 9}))
        assert run(["jc", "--config", str(cfg), "--outdir", str(tmp_path)]) == EXIT_USAGE

    def test_validate_passes_on_correct_build(self, tmp_path, monkeypatch):
        checks = [("first", stub_check(True)), ("second", stub_check(True))]
        code, rows, manifest = run_validate(tmp_path, monkeypatch, checks)
        assert code == EXIT_OK
        assert rows[0] == ["check", "status", "detail"]
        assert [row[1] for row in rows[1:]] == ["PASS", "PASS"]
        assert manifest["checks"] == {"first": True, "second": True}

    def test_validate_failure_exits_1(self, tmp_path, monkeypatch):
        checks = [("first", stub_check(True)), ("second", stub_check(False))]
        code, rows, manifest = run_validate(tmp_path, monkeypatch, checks)
        assert code == EXIT_VALIDATION
        assert rows[2][:2] == ["second", "FAIL"]
        assert manifest["checks"] == {"first": True, "second": False}

    def test_seed_rejected_where_unused(self, tmp_path):
        assert run(["evolve", "--seed", "3", "--outdir", str(tmp_path)]) == EXIT_USAGE

    def test_manifest_records_only_applied_settings(self, tmp_path, monkeypatch):
        monkeypatch.setenv("LIOUSPACE_THREADS", "3")
        code = run(["superop", "--grid-n", "16", "--outdir", str(tmp_path)])
        assert code == EXIT_OK
        manifest = json.loads(
            (tmp_path / "superop" / "superop_manifest.json").read_text()
        )
        assert not any("thread request" in note for note in manifest["notes"])
        assert "seed" not in manifest
        assert "solver_path" not in manifest and "generator_dim" not in manifest
        assert "margins" not in manifest

    def test_outdir_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("LIOUSPACE_OUTDIR", str(tmp_path / "env_out"))
        code = run(["superop", "--potential", "harmonic:1.0"])
        assert code == EXIT_OK
        assert (tmp_path / "env_out" / "superop" / "superop_manifest.json").exists()
