import csv
import json
import os
import re
import warnings

import numpy as np
import pytest

from liouspace import entangle, evolution, liouvillian, superprop, validate
from liouspace import jaynescummings as jc
from liouspace.cli import (
    DEFAULTS,
    EXIT_GUARD,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VALIDATION,
    _build_parser,
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
        "max_purity": ("purity_at_most_1_1e-8", lambda v: v < 1.0 + 1e-8),
    },
    "bipartite": {
        "max_trace_drift": ("trace_conserved_1e-8", lambda v: v < 1e-8),
    },
    "propagator": {
        "max_relative_defect": ("first_order_matches_dyson_1e-3", lambda v: v < 1e-3),
    },
    "superop": {
        "max_e_antisymmetry_defect": ("e_antisymmetric", lambda v: v < 1e-12),
    },
}
# margins of the truncation guards, which abort a run (exit 2) instead of
# failing a check: a finished run keeps each at or below LEAK_THRESHOLD
GUARD_MARGINS = {
    "jc": {"max_fock_leak"},
    "bipartite": {"max_top_level_population_cl", "max_top_level_population_qm"},
}


def test_manifest_check_table_is_the_one_the_scenarios_write():
    """Every row of validate.MANIFEST_CHECKS is a (margin, check) pair some
    scenario writes, and no scenario writes a pair the table lacks; the
    bounds above are restated independently, not read from the table."""
    written = {(margin, check) for pairs in MARGIN_CHECKS.values()
               for margin, (check, _) in pairs.items()}
    table = {(margin, check) for margin, (check, _) in validate.MANIFEST_CHECKS.items()}
    assert table == written


# one JSON value of each type, and the ones each flag type accepts
JSON_VALUES = ["null", "true", "1", "1.5", '"x"', "[]", "{}"]
ACCEPTED = {int: {"1"}, float: {"1", "1.5"}, str: {'"x"'}}
# (scenario, key, value): every parameter with each value of another type
# than its flag's
WRONG_TYPE_CASES = [
    (scenario, key, v)
    for scenario, params in DEFAULTS.items()
    for key, default in params.items()
    for v in JSON_VALUES
    if v not in ACCEPTED[type(default)]
]


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
        scenario, params = parse_config(path)
        assert scenario == "jc"
        assert params["d"] == 0.02
        assert params["omega_e"] == 1.0  # default applied

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

    @pytest.mark.parametrize("value", [v for v in JSON_VALUES if v != '"x"'])
    def test_scenario_of_another_type_than_a_string_is_config_error(
        self, tmp_path, capsys, value
    ):
        """A list or object scenario once raised TypeError (unhashable) from
        the DEFAULTS lookup, a traceback and exit 1."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(f'{{"scenario": {value}}}')
        argv = ["evolve", "--config", str(cfg), "--outdir", str(tmp_path / "out")]
        assert run(argv) == EXIT_USAGE
        assert f"unknown scenario {value}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_resolved_config_round_trips(self, tmp_path):
        """A manifest's config object parses back to the parameters it ran."""
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"scenario": "jc", "t": 0.25, "steps": 5}))
        resolved = parse_config(path)
        assert run(["jc", "--config", str(path), "--outdir", str(tmp_path)]) == EXIT_OK
        manifest = json.loads((tmp_path / "jc" / "jc_manifest.json").read_text())
        emitted = tmp_path / "resolved.json"
        emitted.write_text(json.dumps(manifest["config"]))
        assert parse_config(emitted) == resolved

    @pytest.mark.parametrize("scenario, key, value", WRONG_TYPE_CASES)
    def test_value_of_another_type_than_its_flag_is_usage_error(
        self, tmp_path, capsys, scenario, key, value
    ):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(f'{{"scenario": "{scenario}", "{key}": {value}}}')
        argv = [scenario, "--config", str(cfg), "--outdir", str(tmp_path)]
        assert run(argv) == EXIT_USAGE
        assert f"{key}={value} must be" in capsys.readouterr().err
        assert not (tmp_path / scenario).exists()

    def test_integer_widens_to_a_float_value(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": "jc", "t": 1, "steps": 5}))
        assert run(["jc", "--config", str(cfg), "--outdir", str(tmp_path)]) == EXIT_OK
        config = json.loads((tmp_path / "jc" / "jc_manifest.json").read_text())["config"]
        assert type(config["t"]) is float and config["t"] == 1.0
        assert type(config["steps"]) is int


class TestPotentialSpec:
    def test_specs(self):
        assert parse_potential_spec("free").coefficients == (0.0,)
        assert parse_potential_spec("quartic:0.1").coefficients[-1] == 0.1
        assert parse_potential_spec("harmonic:2.0").coefficients == (0.0, 0.0, 1.0)
        assert parse_potential_spec("poly:1,2,3").coefficients == (1.0, 2.0, 3.0)

    def test_bad_spec_is_usage_error(self, tmp_path):
        code = run(["evolve", "--potential", "cubic", "--outdir", str(tmp_path)])
        assert code == EXIT_USAGE

    def test_config_spec_string(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps({"scenario": "superop", "potential": "poly:0,0,0.5", "grid_n": 16})
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

    @pytest.mark.parametrize("potential", [
        {"type": "polynomial", "coeffs": [0.0, 0.0, 0.5]},
        {"type": "coulomb", "e2": 1.0},
    ])
    def test_potential_object_must_be_a_string(self, tmp_path, capsys, potential):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": "superop", "potential": potential}))
        code = run(["superop", "--config", str(cfg), "--outdir", str(tmp_path)])
        assert code == EXIT_USAGE
        assert 'must be a string, like its default "quartic:1.0"' in capsys.readouterr().err
        assert not (tmp_path / "superop").exists()


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

    def test_evolve_forms_potential_phase_once(self, tmp_path, monkeypatch):
        calls = []
        form = evolution.grid_super_potential

        def counted(*args, **kwargs):
            calls.append(args)
            return form(*args, **kwargs)

        monkeypatch.setattr(evolution, "grid_super_potential", counted)
        code = run(
            ["evolve", "--grid-n", "64", "--steps", "20", "--n-out", "5",
             "--outdir", str(tmp_path)]
        )
        assert code == EXIT_OK
        assert len(calls) == 1
        header, rows = read_csv(tmp_path / "evolve" / "evolve_series.csv")
        assert [float(r[0]) for r in rows] == pytest.approx([0.0, 0.1, 0.2, 0.3, 0.4, 0.5])

    @pytest.mark.parametrize(
        "argv, module, builder",
        [
            (["jc", "--steps", "20"], jc, "jc_liouvillian"),
            (["jc", "--steps", "20", "--eps", "0.01,-0.02"], jc, "jc_liouvillian"),
            (["bipartite", "--steps", "5"], entangle, "relative_generator"),
        ],
        ids=["jc-sector-phases", "jc-sector-powers", "bipartite"],
    )
    def test_basis_scenario_builds_its_generator_once(self, tmp_path, monkeypatch, argv,
                                                      module, builder):
        """The route and the margins come back with the series: naming the
        route takes no second build."""
        calls = []
        build = getattr(module, builder)

        def counted(*args, **kwargs):
            calls.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(module, builder, counted)
        assert run(argv + ["--outdir", str(tmp_path)]) == EXIT_OK
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["evolve", "--n-out", "0"],
            ["evolve", "--steps", "210", "--n-out", "50"],
            ["evolve", "--n-out", "300"],
            ["evolve", "--t", "0"],
            ["evolve", "--grid-n", "63"],
            ["evolve", "--method", "rk4"],
            ["evolve", "--method", "strang"],
            ["propagator", "--t", "0"],
            ["propagator", "--t", "-1"],
            ["propagator", "--n-points", "0"],
            ["propagator", "--n-points", "-2"],
            ["jc", "--n-max", "0"],
            ["jc", "--init", "x5"],
            ["jc", "--eps-eegg", "0.03,0.01"],
            ["jc", "--t", "0"],
            ["jc", "--t", "-1", "--steps", "4"],
            ["jc", "--t", "-1", "--eps", "0.01,-0.02"],
            ["bipartite", "--n-levels", "1"],
            ["bipartite", "--alpha1", "abc"],
            ["bipartite", "--t", "0"],
            ["bipartite", "--omega", "0"],
            ["bipartite", "--omega", "-1"],
            ["evolve", "--mass", "0"],
            ["evolve", "--hbar", "0"],
            ["evolve", "--mass", "-1"],
            ["evolve", "--hbar", "-1"],
            ["evolve", "--sigma-x", "0"],
            ["evolve", "--sigma-x", "-1"],
            ["evolve", "--sigma-p", "0"],
            ["evolve", "--sigma-p", "-1"],
            ["evolve", "--t", "nan"],
            ["evolve", "--x0", "inf"],
            ["jc", "--eps", "nan,0"],
            ["jc", "--eps", "0,inf"],
            ["jc", "--init", "coherent:nan"],
            ["bipartite", "--alpha1", "nan"],
            ["bipartite", "--alpha2", "inf"],
            ["evolve", "--potential", "quartic:nan"],
            ["evolve", "--potential", "quartic:inf"],
            ["superop", "--potential", "poly:0,inf"],
        ],
        ids=" ".join,
    )
    def test_bad_scenario_input_is_usage_error(self, tmp_path, argv):
        assert run(argv + ["--outdir", str(tmp_path)]) == EXIT_USAGE
        # a refused run leaves no scenario directory behind
        assert not (tmp_path / argv[0]).exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["jc", "--n-max", "1", "--init", "g0"], "n_max=1 must be >= FOCK_LEAK_LEVELS = 2"),
            (["propagator", "--span", "-1"], "span=-1.0 must be > 0"),
            (["propagator", "--span", "0"], "span=0.0 must be > 0"),
            (["evolve", "--sigma-p", "1e200"], "sigma_p=1e+200 is too large"),
            (["evolve", "--sigma-x", "1e200"], "sigma_x=1e+200 is too large"),
            (["evolve", "--hbar", "1e200"], "hbar=1e+200 is too large"),
            (["evolve", "--grid-span", "1e300"], "grid step dq=1.5625e+298 is too large"),
            (["evolve", "--hbar", "1e-170"], "hbar=1e-170 is too small"),
            (["evolve", "--hbar", "1e-155"], "hbar=1e-155 is too small"),
            (["evolve", "--grid-span", "1e-160"], "grid step dq=1.5625e-162 is too small"),
            (["superop", "--grid-span", "1e-160", "--grid-n", "16"],
             "grid step dq=1.25e-161 is too small"),
            (["evolve", "--sigma-p", "1e-200"], "sigma_p=1e-200 is too small"),
        ],
        ids=["jc --n-max 1", "propagator --span -1", "propagator --span 0",
             "evolve --sigma-p 1e200", "evolve --sigma-x 1e200", "evolve --hbar 1e200",
             "evolve --grid-span 1e300", "evolve --hbar 1e-170", "evolve --hbar 1e-155",
             "evolve --grid-span 1e-160", "superop --grid-span 1e-160 --grid-n 16",
             "evolve --sigma-p 1e-200"],
    )
    def test_refusal_names_the_parameter(self, tmp_path, capsys, argv, message):
        """jc --n-max 1 once aborted on the vacuum, whose Fock level the
        leak guard watched (exit 2); propagator --span 0 ran on degenerate
        points (exit 0), and --span -1 failed inside numpy.  The four evolve
        argvs with a large value once died with an OverflowError traceback
        (exit 1) squaring a width, hbar or the grid step.  A square that
        underflows to zero or a subnormal once ran on with numpy warnings:
        to NaN margins (exit 1), to exit 0 (hbar 1e-155), to "Hamiltonian is
        not Hermitian" (superop) or to a y-flat density (sigma_p 1e-200)."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(argv + ["--outdir", str(tmp_path)]) == EXIT_USAGE
        assert message in capsys.readouterr().err
        assert not (tmp_path / argv[0]).exists()

    def test_qm_evolve_refuses_a_gaussian_that_is_no_state(self, tmp_path, capsys):
        """The default widths give sigma_x sigma_p = 0.24 < hbar / 2: a phase
        density, but an operator of purity 2.08."""
        assert run(["evolve", "--kind", "qm", "--outdir", str(tmp_path)]) == EXIT_USAGE
        assert "sigma_x * sigma_p >= hbar / 2" in capsys.readouterr().err
        assert not (tmp_path / "evolve").exists()

    # 0.36 * 1.3888888888888888 (25/18 to 17 digits) rounds to 0.49999999999999994
    @pytest.mark.parametrize("sigma_x, sigma_p", [("0.5", "1.0"), ("0.36", "1.3888888888888888")])
    def test_qm_evolve_runs_a_minimal_uncertainty_gaussian(self, tmp_path, sigma_x, sigma_p):
        argv = ["evolve", "--kind", "qm", "--sigma-x", sigma_x, "--sigma-p", sigma_p]
        assert run(argv + ["--outdir", str(tmp_path)]) == EXIT_OK

    @pytest.mark.parametrize(
        "argv",
        [
            ["jc", "--steps", "-1"],
            ["jc", "--steps", "-1", "--eps", "0.01,-0.02"],
            ["bipartite", "--steps", "-1"],
        ],
        ids=" ".join,
    )
    def test_steps_below_one_is_usage_error(self, tmp_path, capsys, argv):
        """An empty time grid is refused up front with the flag's name,
        not by an exception from deep inside the evolution."""
        assert run(argv + ["--outdir", str(tmp_path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "steps=-1 must be >= 1" in err and "Traceback" not in err

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

    @pytest.mark.parametrize("argv", [
        ["jc", "--init", "coherent:1e155"],
        ["jc", "--init", "coherent:40"],
        ["bipartite", "--alpha1", "1e160"],
    ])
    def test_far_coherent_state_aborts_on_a_finite_leak(self, tmp_path, capsys, argv):
        """The coherent amplitudes once overflowed (an OverflowError
        traceback) or underflowed to a NaN state (leaked nan)."""
        assert run([*argv, "--outdir", str(tmp_path)]) == EXIT_GUARD
        leaked = re.search(r"leaked (\S+) at t=0,", capsys.readouterr().err).group(1)
        assert np.isfinite(float(leaked))
        assert not (tmp_path / argv[0]).exists()

    def test_jc_guard_abort_on_mid_run_leak(self, tmp_path, capsys):
        """|e,2> at n_max 4 holds nothing in the top Fock levels; the dipole
        then feeds |g,3>, so the leak appears only in the evolved states."""
        code = run(["jc", "--init", "e2", "--n-max", "4", "--outdir", str(tmp_path)])
        assert code == EXIT_GUARD
        assert "at t=0," not in capsys.readouterr().err
        assert not (tmp_path / "jc").exists()

    def test_evolve_n_out_refusal_keeps_its_message(self, tmp_path, capsys):
        """``evolution.grid_series`` refuses the n_out; the CLI reports it
        as a usage error and makes no directory."""
        argv = ["evolve", "--steps", "210", "--n-out", "50", "--outdir", str(tmp_path)]
        assert run(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == "usage error: n_out=50 must lie in 1..steps and divide steps=210\n"
        assert not (tmp_path / "evolve").exists()

    def test_jc_guard_abort_on_overflow(self, tmp_path):
        """Im(eps) = 5 amplifies the eg coherence as exp(5 t), which
        overflows the sector powers: the guard reads the NaN populations as
        a leak and aborts, where a test of population > LEAK_THRESHOLD would
        let the run end with NaN margins."""
        with pytest.warns(RuntimeWarning):
            code = run(["jc", "--eps", "0.01,5", "--t", "400", "--outdir", str(tmp_path)])
        assert code == EXIT_GUARD
        assert not (tmp_path / "jc").exists()

    @pytest.mark.parametrize("flag", ["--d", "--omega"])
    def test_jc_subnormal_rotation_frequency_turns_no_phase(self, tmp_path, flag):
        """A subnormal sector frequency w_k once overflowed the division by
        it and aborted at t=0 on a NaN leak; it now counts as w_k = 0, so
        at --d 1e-320 the resonant |e,0> keeps P_e = 1."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["jc", flag, "1e-320", "--outdir", str(tmp_path)]) == EXIT_OK
        header, rows = read_csv(tmp_path / "jc" / "jc_series.csv")
        if flag == "--d":
            assert {row[header.index("P_e")] for row in rows} == {"1"}

    @pytest.mark.parametrize("grid_n, bands", [(64, 1), (256, 2)])
    def test_evolve_manifest_records_the_strang_bands(self, tmp_path, monkeypatch, grid_n, bands):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        argv = ["evolve", "--grid-n", str(grid_n), "--steps", "2", "--n-out", "1"]
        assert run(argv + ["--outdir", str(tmp_path)]) == EXIT_OK
        manifest = json.loads((tmp_path / "evolve" / "evolve_manifest.json").read_text())
        assert evolution.strang_bands(grid_n) == bands
        assert f"strang_bands = {bands}" in manifest["notes"]

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

    @pytest.mark.parametrize("grid_n", ["16", "32"])
    def test_superop_refuses_an_overflowing_potential_before_any_output(
        self, tmp_path, capsys, grid_n
    ):
        """V overflows to inf on the grid: the generator is built, and
        refused, before the first CSV, at every grid size."""
        argv = ["superop", "--potential", "poly:0,0,1e305", "--grid-span", "1000"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(argv + ["--grid-n", grid_n, "--outdir", str(tmp_path)])
        assert code == EXIT_USAGE
        assert "poly:0.0,0.0,1e+305 overflows on the grid [-1000, 1000)" in capsys.readouterr().err
        assert not (tmp_path / "superop").exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["evolve", "--grid-span", "1e150"],
             "poly:0.0,0.0,0.0,0.0,0.1 overflows on the grid [-1e+150, 1e+150): V_CL"),
            (["evolve", "--potential", "quartic:1e306"],
             "poly:0.0,0.0,0.0,0.0,1e+306 overflows on the grid [-8, 8): V_CL"),
            (["superop", "--grid-span", "1e150"],
             "poly:0.0,0.0,0.0,0.0,1.0 overflows on the grid [-1e+150, 1e+150): V_QM"),
        ],
        ids=["evolve --grid-span 1e150", "evolve --potential quartic:1e306",
             "superop --grid-span 1e150"],
    )
    def test_overflowing_grid_potential_is_usage_error(self, tmp_path, capsys, argv, message):
        """Each once printed numpy RuntimeWarnings and ran on NaN (evolve,
        exit 1 with every margin NaN) or blamed the Hermiticity of h
        (superop, exit 1)."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(argv + ["--outdir", str(tmp_path)])
        assert code == EXIT_USAGE
        assert message in capsys.readouterr().err
        assert not (tmp_path / argv[0]).exists()

    def test_memory_error_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        """jc --n-max 100000 asks numpy for 149 GiB; the stand-in raises as
        numpy does, without allocating."""
        def refuse(spec, n_max):
            raise MemoryError("Unable to allocate 149. GiB for an array")

        monkeypatch.setattr(jc, "initial_jc_state", refuse)
        assert run(["jc", "--outdir", str(tmp_path)]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err == "error: out of memory: Unable to allocate 149. GiB for an array\n"
        assert not (tmp_path / "jc").exists()

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
        # the CSV carries the quantity the check bounds
        manifest = json.loads(
            (tmp_path / "propagator" / "propagator_manifest.json").read_text()
        )
        assert header[-2:] == ["rel_err_cl", "rel_err_qm"]
        rel_err = max(float(v) for r in rows for v in r[-2:])
        assert rel_err == manifest["margins"]["max_relative_defect"]

        def cell(row, name):
            return float(row[header.index(name)])

        for row in rows:
            g0 = complex(cell(row, "G0_re"), cell(row, "G0_im"))
            for kind in ("cl", "qm"):
                g = complex(cell(row, f"G_{kind}_re"), cell(row, f"G_{kind}_im"))
                assert cell(row, f"rel_err_{kind}") == pytest.approx(
                    cell(row, f"abs_err_{kind}") / max(abs(g - g0), 1e-300), rel=1e-9, abs=0
                )

    def test_propagator_check_is_relative_to_the_correction(self, tmp_path, monkeypatch):
        # a 0.2% error in the first-order correction is twice the bound,
        # however small the correction is against G
        dyson = superprop.dyson_first_order_numeric
        monkeypatch.setattr(
            superprop, "dyson_first_order_numeric", lambda *args: 1.002 * dyson(*args)
        )
        assert run(["propagator", "--outdir", str(tmp_path)]) == EXIT_VALIDATION
        manifest = json.loads(
            (tmp_path / "propagator" / "propagator_manifest.json").read_text()
        )
        assert not manifest["checks"]["first_order_matches_dyson_1e-3"]
        assert manifest["margins"]["max_relative_defect"] == pytest.approx(2e-3, rel=1e-6)

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

    def test_bipartite_help_names_the_relative_mode(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "200")  # no line break inside the phrase
        with pytest.raises(SystemExit):
            run(["bipartite", "--help"])
        out = capsys.readouterr().out
        assert "ladder size n_r of the relative mode" in out
        assert "at most 64" in out

    def test_bipartite_beyond_dense_size(self, tmp_path, capsys):
        """n_levels 65 is a 4225-dim vectorized relative-mode density, above
        the dense cap: the run stops before diagonalising and writes no
        series."""
        code = run(
            ["bipartite", "--n-levels", "65", "--steps", "10", "--outdir", str(tmp_path)]
        )
        assert code == EXIT_VALIDATION
        assert f"vectorized dimension {65**2} exceeds {liouvillian.MAX_DENSE_VEC_DIM}" in (
            capsys.readouterr().err
        )
        assert not (tmp_path / "bipartite").exists()

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
            (["jc", "--n-max", "3", "--steps", "5"], "sector_phases", 4 * 4**2),
            (["jc", "--n-max", "3", "--steps", "5", "--eps", "0.01,-0.02"], "sector_powers",
             4 * 4**2),
            (["bipartite", "--steps", "5"], "eigh", 6**2),
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
            # the Gaussian spills over a narrow grid (trace 0.9907):
            # boundary_mass_ok and trace_conserved_1e-8 are false
            ["evolve", "--grid-n", "32", "--grid-span", "2", "--steps", "20", "--n-out", "5"],
            ["jc", "--n-max", "3", "--steps", "20"],
            # Im eps > 0 raises purity above 1: purity_at_most_1_1e-8 is false
            ["jc", "--n-max", "3", "--steps", "20", "--eps", "0.01,0.02"],
            ["bipartite", "--steps", "5"],
            ["propagator", "--n-points", "3"],
            ["superop", "--grid-n", "16"],
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
        guards = GUARD_MARGINS.get(argv[0], set())
        assert set(margins) == set(expected) | guards
        assert set(manifest["checks"]) == {check for check, _ in expected.values()}
        for margin, (check, holds) in expected.items():
            assert isinstance(margins[margin], float)
            assert holds(margins[margin]) is manifest["checks"][check], margin
        for margin in guards:
            assert isinstance(margins[margin], float)
            assert margins[margin] <= jc.LEAK_THRESHOLD, margin
        assert code == (EXIT_OK if all(manifest["checks"].values()) else EXIT_VALIDATION)

    def test_evolve_trace_drift_is_measured_from_one(self, tmp_path):
        """A Gaussian wholly off the grid has trace 0 in every row: its
        drift from the normalisation 1 fails the check."""
        assert run(["evolve", "--x0", "100", "--outdir", str(tmp_path)]) == EXIT_VALIDATION
        manifest = json.loads((tmp_path / "evolve" / "evolve_manifest.json").read_text())
        assert manifest["checks"]["trace_conserved_1e-8"] is False
        assert manifest["margins"]["max_trace_drift"] == 1.0

    def test_consecutive_runs_keep_their_own_flags(self, tmp_path):
        """One parser serves every run of a process; a flag of one run does
        not carry over to the next."""
        runs = [
            (["jc", "--n-max", "3", "--steps", "5", "--t", "1.5", "--init", "g1"],
             {"n_max": 3, "steps": 5, "t": 1.5, "init": "g1"}),
            (["bipartite", "--steps", "4", "--t", "0.5"], {"steps": 4, "t": 0.5}),
            (["jc", "--steps", "6"], {"steps": 6}),
        ]
        for i, (argv, flags) in enumerate(runs):
            outdir = tmp_path / str(i)
            assert run(argv + ["--outdir", str(outdir)]) == EXIT_OK
            manifest = json.loads((outdir / argv[0] / f"{argv[0]}_manifest.json").read_text())
            assert manifest["config"] == {"scenario": argv[0], **DEFAULTS[argv[0]], **flags}
        assert _build_parser() is _build_parser()

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

    def test_evolve_has_no_method_key(self, tmp_path):
        # Strang is the only split: a config that names a method is refused
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": "evolve", "method": "strang"}))
        assert run(["evolve", "--config", str(cfg), "--outdir", str(tmp_path)]) == EXIT_USAGE

    def test_non_finite_config_value_is_usage_error(self, tmp_path):
        # json reads NaN and Infinity as floats
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"scenario": "evolve", "t": NaN}')
        assert run(["evolve", "--config", str(cfg), "--outdir", str(tmp_path)]) == EXIT_USAGE
        assert not (tmp_path / "evolve").exists()

    @pytest.mark.parametrize("potential", [
        '"poly:0,nan"',
        '"poly:0,0,inf"',
        '"quartic:nan"',
    ])
    def test_non_finite_config_potential_is_usage_error(self, tmp_path, potential):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(f'{{"scenario": "evolve", "potential": {potential}}}')
        assert run(["evolve", "--config", str(cfg), "--outdir", str(tmp_path)]) == EXIT_USAGE
        assert not (tmp_path / "evolve").exists()

    def test_nan_run_fails_its_checks(self, tmp_path, monkeypatch):
        """A NaN superpotential, put past the overflow guard, leaves the
        first row finite and every later one NaN: each margin keeps the NaN,
        so no check passes."""
        def nan_potential(v, grid, kind):
            return np.full((grid.n, grid.n), np.nan)

        monkeypatch.setattr(evolution, "grid_super_potential", nan_potential)
        argv = ["evolve", "--grid-n", "64", "--steps", "20", "--n-out", "5",
                "--outdir", str(tmp_path)]
        assert run(argv) == EXIT_VALIDATION
        manifest = json.loads((tmp_path / "evolve" / "evolve_manifest.json").read_text())
        assert manifest["checks"] and not any(manifest["checks"].values())
        assert all(np.isnan(v) for v in manifest["margins"].values())

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
        assert set(manifest["margins"]) == {"max_e_antisymmetry_defect"}

    def test_outdir_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("LIOUSPACE_OUTDIR", str(tmp_path / "env_out"))
        code = run(["superop", "--potential", "harmonic:1.0"])
        assert code == EXIT_OK
        assert (tmp_path / "env_out" / "superop" / "superop_manifest.json").exists()
