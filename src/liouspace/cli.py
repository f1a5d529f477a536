"""Scenario runner: configuration, deterministic execution, CSV + manifest.

Subcommands: superop, evolve, propagator, jc, bipartite, validate; the
last runs every check of the `validate.CHECKS` registry.  Only propagator
draws random numbers, so only it takes a seed.  Parameters resolve as
defaults < config file < command-line flags; the fully resolved
configuration is echoed into the JSON run manifest, which references every
emitted data file.  Exit codes: 0 success, 1 validation failure (some
manifest check is false; the manifest is still written), 2 numerical-guard
abort, 64 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from . import entangle, evolution, serialize, superprop, superspace, validate as validate_mod
from . import jaynescummings as jc
from .errors import (
    EnergyDriftExceeded,
    LiouspaceError,
    NotConverged,
    ParseError,
    QuadratureNotConverged,
    TruncationLeak,
    UnknownKey,
)
from .liouvillian import build_grid_liouvillian
from .potential import PolynomialPotential, SuperPotentialKind, e_vanishes_identically
from .superspace import SuperGrid

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_GUARD = 2
EXIT_USAGE = 64

GUARD_ERRORS = (TruncationLeak, NotConverged, EnergyDriftExceeded, QuadratureNotConverged)

DEFAULTS: dict[str, dict] = {
    "superop": {
        "potential": "quartic:1.0",
        "kind": "cl",
        "grid_n": 64,
        "grid_span": 4.0,
    },
    "evolve": {
        "potential": "quartic:0.1",
        "kind": "cl",
        "t": 0.5,
        "steps": 200,
        "method": "strang",
        "grid_n": 128,
        "grid_span": 8.0,
        "x0": 1.0,
        "p0": 0.0,
        "sigma_x": 0.4,
        "sigma_p": 0.6,
        "hbar": 1.0,
        "mass": 1.0,
        "n_out": 50,
    },
    "propagator": {
        "lam": 0.5,
        "t": 1.0,
        "n_points": 10,
        "span": 1.2,
        "mass": 1.0,
        "hbar": 1.0,
        "seed": 0,
    },
    "jc": {
        "omega_e": 1.0,
        "omega": 1.0,
        "d": 0.05,
        "eps": "0,0",
        "eps_eegg": "0,0",
        "n_max": 4,
        "t": 10.0,
        "steps": 200,
        "init": "e0",
    },
    "bipartite": {
        "n_levels": 4,
        "lam": 0.0003,
        "t": 2.0,
        "steps": 40,
        "alpha1": "0",
        "alpha2": "0",
        "omega": 1.0,
    },
    "validate": {},
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse default exits with code 2
        raise UsageError(message)


@dataclass
class ScenarioConfig:
    scenario: str
    params: dict

    def resolved(self) -> dict:
        return {"scenario": self.scenario, **self.params}


def parse_config(path) -> ScenarioConfig:
    """Strict JSON config: {"scenario": ..., <subcommand parameters>}."""
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ParseError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}: {exc.msg}") from exc
    if not isinstance(raw, dict) or "scenario" not in raw:
        raise ParseError(f"{path}: config must be an object with a 'scenario' key")
    scenario = raw.pop("scenario")
    if scenario not in DEFAULTS:
        raise ParseError(f"{path}: unknown scenario {scenario!r}")
    allowed = DEFAULTS[scenario]
    for key in raw:
        if key not in allowed:
            raise UnknownKey(f"{path}: unknown key {key!r} for scenario {scenario!r}")
    params = dict(allowed)
    params.update(raw)
    return ScenarioConfig(scenario=scenario, params=params)


def parse_potential_spec(spec) -> PolynomialPotential:
    """Flag form "free" / "harmonic:k" / "quartic:lam" / "poly:c0,c1,...",
    or the config-file object form {"type": "polynomial", "coeffs": [...]}.

    A {"type": "coulomb", "e2": ...} object names the three-dimensional
    Coulomb potential, which has no grid scenario; it is rejected here.
    """
    if isinstance(spec, dict):
        kind = spec.get("type")
        if kind == "polynomial":
            try:
                return PolynomialPotential(tuple(float(c) for c in spec["coeffs"]))
            except (KeyError, TypeError, ValueError) as exc:
                raise UsageError(f"bad polynomial potential object: {exc}") from exc
        if kind == "coulomb":
            raise UsageError(
                "the coulomb potential is three-dimensional; grid scenarios "
                "need a polynomial potential (see the jc scenario instead)"
            )
        raise UsageError(f"unknown potential type {kind!r}")
    name, _, arg = spec.partition(":")
    try:
        if name == "free":
            return PolynomialPotential.free()
        if name == "harmonic":
            return PolynomialPotential.harmonic(float(arg))
        if name == "quartic":
            return PolynomialPotential.quartic(float(arg))
        if name == "poly":
            return PolynomialPotential(tuple(float(c) for c in arg.split(",")))
    except ValueError as exc:
        raise UsageError(f"bad potential spec {spec!r}: {exc}") from exc
    raise UsageError(f"unknown potential spec {spec!r}")


def _parse_complex_pair(text: str) -> complex:
    try:
        re_part, im_part = (float(v) for v in text.split(","))
    except ValueError as exc:
        raise UsageError(f"expected 're,im', got {text!r}") from exc
    return complex(re_part, im_part)


class RunContext:
    """Collects outputs, checks and timings for the manifest."""

    def __init__(self, scenario: str, params: dict, outdir: Path) -> None:
        self.scenario = scenario
        self.params = params
        self.outdir = outdir
        self.outputs: list[str] = []
        self.checks: dict[str, bool] = {}
        # how close each guard came, beside its boolean check
        self.margins: dict[str, float] = {}
        self.notes: list[str] = []
        # set by the scenarios that evolve a generator: what solved it, and
        # the dimension of the vectorized density it acts on
        self.solver_path: str | dict[str, str] | None = None
        self.generator_dim: int | None = None
        self._t0 = time.perf_counter()

    def path(self, name: str) -> Path:
        self.outputs.append(name)
        return self.outdir / name

    def write_manifest(self) -> Path:
        manifest = {
            "scenario": self.scenario,
            "version": __version__,
            "config": {"scenario": self.scenario, **self.params},
            "outputs": self.outputs,
            "checks": {k: bool(v) for k, v in self.checks.items()},
            "notes": self.notes,
            "wall_seconds": time.perf_counter() - self._t0,
        }
        if self.margins:
            manifest["margins"] = {k: float(v) for k, v in self.margins.items()}
        if "seed" in self.params:
            manifest["seed"] = self.params["seed"]
        if self.solver_path is not None:
            manifest["solver_path"] = self.solver_path
            manifest["generator_dim"] = self.generator_dim
        path = self.outdir / f"{self.scenario}_manifest.json"
        path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        return path


def run_superop(ctx: RunContext) -> None:
    p = ctx.params
    v = parse_potential_spec(p["potential"])
    grid = SuperGrid.centered(float(p["grid_span"]), int(p["grid_n"]))
    op = build_grid_liouvillian(v, grid, SuperPotentialKind(p["kind"]))
    serialize.save_real_matrix(ctx.path("superop_e.csv"), op.e_diag)
    serialize.save_real_matrix(ctx.path("superop_vqm.csv"), op.potential_diag)
    if grid.n <= 16:  # dense n^2 x n^2 export stays inspectable at this size
        serialize.save_complex_matrix(ctx.path("superop_liouvillian.csv"), op.dense())
    else:
        ctx.notes.append("dense Liouvillian export skipped (grid_n > 16)")
    # a property of the potential, not a pass/fail result
    ctx.notes.append(f"e_vanishes_identically = {e_vanishes_identically(v)}")
    ctx.checks["e_antisymmetric"] = bool(
        np.max(np.abs(op.e_diag + op.e_diag.T)) < 1e-12
    )
    ctx.notes.append(f"max |E| on grid = {float(np.max(np.abs(op.e_diag))):.6g}")


def run_evolve(ctx: RunContext) -> None:
    p = ctx.params
    t_end, steps, n_out = float(p["t"]), int(p["steps"]), int(p["n_out"])
    if not 1 <= n_out <= steps or steps % n_out:
        raise UsageError(f"n_out={n_out} must lie in 1..steps and divide steps={steps}")
    stride = steps // n_out
    v = parse_potential_spec(p["potential"])
    kind = SuperPotentialKind(p["kind"])
    method = evolution.EvolveMethod(f"trotter_{p['method']}")  # strang or lie
    grid = SuperGrid.centered(float(p["grid_span"]), int(p["grid_n"]))
    hbar, mass = float(p["hbar"]), float(p["mass"])
    sd = superspace.gaussian_super_density(
        grid, float(p["x0"]), float(p["p0"]),
        float(p["sigma_x"]), float(p["sigma_p"]), hbar,
    )
    cfg = evolution.EvolutionConfig(
        t1=t_end, n_steps=steps, method=method, hbar=hbar, mass=mass
    )

    series = [(0.0, superspace.moments(sd, hbar))]
    boundary = [evolution.boundary_mass(sd.values)]

    def observe(k: int, state) -> None:
        if k % stride == 0:
            series.append((t_end * k / steps, superspace.moments(state, hbar)))
            boundary.append(evolution.boundary_mass(state.values))

    sd = evolution.evolve_trotter(v, grid, kind, sd, cfg, observe=observe)
    ctx.solver_path, ctx.generator_dim = method.value, grid.n**2
    serialize.write_csv(
        ctx.path("evolve_series.csv"),
        [(t, m.trace, m.x, m.p, m.x2, m.purity) for t, m in series],
        header=["t", "trace", "x_mean", "p_mean", "x2_mean", "purity"],
    )
    serialize.save_super_density(ctx.outdir / "evolve_final", sd, hbar, mass)
    ctx.outputs += ["evolve_final.csv", "evolve_final.json"]
    margins = ctx.margins
    margins["max_trace_drift"] = max(abs(m.trace - series[0][1].trace) for _, m in series)
    margins["max_hermiticity_defect"] = max(m.hermiticity_defect for _, m in series)
    margins["max_boundary_mass"] = max(boundary)
    ctx.checks["trace_conserved_1e-8"] = margins["max_trace_drift"] < 1e-8
    ctx.checks["hermiticity_1e-8"] = margins["max_hermiticity_defect"] < 1e-8
    ctx.checks["boundary_mass_ok"] = margins["max_boundary_mass"] < 1e-6


def run_propagator(ctx: RunContext) -> None:
    p = ctx.params
    rng = np.random.Generator(np.random.Philox(int(p["seed"])))
    lam, t_end = float(p["lam"]), float(p["t"])
    rows = []
    for _ in range(int(p["n_points"])):
        ends = rng.uniform(-float(p["span"]), float(p["span"]), size=4)
        pt = superprop.PropagatorPoint(
            *ends, duration=t_end, mass=float(p["mass"]), hbar=float(p["hbar"])
        )
        g0 = superprop.free_superpropagator(pt)
        gq = superprop.gamma_qm(pt)
        gc = superprop.gamma_cl(pt)
        g_cl = superprop.first_order_superpropagator(pt, lam, SuperPotentialKind.CL)
        g_qm = superprop.first_order_superpropagator(pt, lam, SuperPotentialKind.QM)
        num_cl = g0 + superprop.dyson_first_order_numeric(pt, lam, SuperPotentialKind.CL)
        num_qm = g0 + superprop.dyson_first_order_numeric(pt, lam, SuperPotentialKind.QM)
        rows.append(
            (
                *ends, t_end,
                g0.real, g0.imag, gq.real, gq.imag, gc.real, gc.imag,
                g_cl.real, g_cl.imag, g_qm.real, g_qm.imag,
                num_cl.real, num_cl.imag, num_qm.real, num_qm.imag,
                abs(g_cl - num_cl), abs(g_qm - num_qm),
            )
        )
    serialize.write_csv(
        ctx.path("propagator_points.csv"),
        rows,
        header=[
            "Q_f", "q_f", "Q_i", "q_i", "T",
            "G0_re", "G0_im", "gamma_qm_re", "gamma_qm_im",
            "gamma_cl_re", "gamma_cl_im",
            "G_cl_re", "G_cl_im", "G_qm_re", "G_qm_im",
            "numeric_cl_re", "numeric_cl_im", "numeric_qm_re", "numeric_qm_im",
            "abs_err_cl", "abs_err_qm",
        ],
    )
    worst = max(max(r[-1], r[-2]) for r in rows)
    scale = max(abs(complex(r[9], r[10])) for r in rows)
    ctx.checks["first_order_matches_dyson_1e-3"] = worst < 1e-3 * max(scale, 1e-30)


def run_jc(ctx: RunContext) -> None:
    p = ctx.params
    if _parse_complex_pair(p["eps_eegg"]) != 0:
        raise UsageError(
            "eps_eegg must be 0,0: E_ee,gg alone breaks the trace sum rule sum_a E_aa,cd = 0"
        )
    params = jc.JCParams(
        omega_e=float(p["omega_e"]),
        omega=float(p["omega"]),
        d_eg=float(p["d"]),
        n_max=int(p["n_max"]),
        eps_egeg=_parse_complex_pair(p["eps"]),
    )
    rho0 = jc.initial_jc_state(str(p["init"]), params.n_max)
    jc.check_fock_truncation(rho0, params.n_max)
    t_grid = np.linspace(0.0, float(p["t"]), int(p["steps"]) + 1)
    states = jc.evolve_jc(params, rho0, t_grid)
    f = params.fock_dim
    ctx.solver_path = "eigh" if params.hermitian else "expm_multiply"
    ctx.generator_dim = params.dim**2
    rows = []
    max_drift = 0.0
    for t, rho in zip(t_grid, states):
        jc.check_fock_truncation(rho, params.n_max)
        tr = float(np.trace(rho).real)
        max_drift = max(max_drift, abs(tr - 1.0))
        rows.append(
            (
                float(t),
                jc.excited_population(rho, params.n_max),
                abs(rho.reshape(2, f, 2, f)[jc.ATOM_E, 0, jc.ATOM_G, 0]),
                tr,
                float(np.trace(rho @ rho).real),
            )
        )
    serialize.write_csv(
        ctx.path("jc_series.csv"),
        rows,
        header=["t", "P_e", "abs_rho_eg00", "trace", "purity"],
    )
    ctx.margins["max_trace_drift"] = max_drift
    ctx.margins["max_purity"] = max(row[4] for row in rows)
    ctx.checks["trace_conserved_1e-8"] = max_drift < 1e-8
    # a complex eps makes the generator non-Hermitian and can raise purity
    ctx.checks["purity_at_most_1_1e-8"] = ctx.margins["max_purity"] <= 1.0 + 1e-8


def run_bipartite(ctx: RunContext) -> None:
    p = ctx.params
    basis = entangle.BipartiteBasis(n_levels=int(p["n_levels"]), omega=float(p["omega"]))
    rho0 = entangle.separable_state(
        basis, complex(str(p["alpha1"])), complex(str(p["alpha2"]))
    )
    t_grid = np.linspace(0.0, float(p["t"]), int(p["steps"]) + 1)
    rows = entangle.compare_cl_qm_entanglement(basis, float(p["lam"]), rho0, t_grid)
    ctx.solver_path = {"cl": "expm_multiply", "qm": "eigh"}
    ctx.generator_dim = basis.dim**2
    serialize.write_csv(
        ctx.path("bipartite_series.csv"),
        [
            (
                r.t, r.purity_cl, r.purity_qm, r.min_eig_cl, r.min_eig_qm,
                r.trace_drift_cl, r.trace_drift_qm,
            )
            for r in rows
        ],
        header=[
            "t", "purity_cl", "purity_qm", "min_eig_cl", "min_eig_qm",
            "trace_drift_cl", "trace_drift_qm",
        ],
    )
    ctx.margins["max_trace_drift"] = max(
        max(r.trace_drift_cl, r.trace_drift_qm) for r in rows
    )
    ctx.checks["trace_conserved_1e-8"] = ctx.margins["max_trace_drift"] < 1e-8


def run_validate(ctx: RunContext) -> None:
    results = validate_mod.run_validation()
    rows = []
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{status}  {res.name}: {res.detail}")
        rows.append((res.name, status, res.detail))
        ctx.checks[res.name] = res.passed
    print(f"{sum(ctx.checks.values())}/{len(results)} checks passed")
    serialize.write_csv(
        ctx.path("validate_report.csv"), rows, header=["check", "status", "detail"]
    )


RUNNERS = {
    "superop": run_superop,
    "evolve": run_evolve,
    "propagator": run_propagator,
    "jc": run_jc,
    "bipartite": run_bipartite,
    "validate": run_validate,
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="liouspace", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="scenario", required=True, parser_class=_Parser)
    for scenario, defaults in DEFAULTS.items():
        sp = sub.add_parser(scenario)
        sp.add_argument("--config", default=None, help="JSON config file")
        sp.add_argument("--outdir", default=None, help="output directory")
        for key, default in defaults.items():
            flag = "--" + key.replace("_", "-")
            sp.add_argument(flag, default=None, type=type(default), dest=key)
    return parser


def run(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    scenario = args.scenario
    try:
        if args.config:
            cfg = parse_config(args.config)
            if cfg.scenario != scenario:
                raise UsageError(
                    f"config is for scenario {cfg.scenario!r}, not {scenario!r}"
                )
            params = cfg.params
        else:
            params = dict(DEFAULTS[scenario])
        for key in DEFAULTS[scenario]:
            override = getattr(args, key, None)
            if override is not None:
                params[key] = override
        outdir = Path(
            args.outdir
            or os.environ.get("LIOUSPACE_OUTDIR")
            or "runs"
        ) / scenario
        outdir.mkdir(parents=True, exist_ok=True)
        ctx = RunContext(scenario, params, outdir)
        RUNNERS[scenario](ctx)
        ctx.write_manifest()
        return EXIT_OK if all(ctx.checks.values()) else EXIT_VALIDATION
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ParseError, UnknownKey) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except GUARD_ERRORS as exc:
        print(f"numerical guard abort: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except ValueError as exc:  # a parameter the library rejects
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except LiouspaceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
