"""Scenario runner: configuration, deterministic execution, CSV + manifest.

Subcommands: superop, evolve, propagator, jc, bipartite, validate; the
last runs every check of the `validate.CHECKS` registry.  Only propagator
draws random numbers, so only it takes a seed.  Parameters resolve as
defaults < config file < command-line flags; the fully resolved
configuration is echoed into the JSON run manifest, which references every
emitted data file.  Exit codes: 0 success, 1 validation failure (some
manifest check is false; the manifest is still written), a
``LiouspaceError`` raised before any output (no manifest, no directory) or
a ``MemoryError`` (no manifest; one ``error:`` line, no traceback),
2 numerical-guard abort, 64 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from . import entangle, evolution, serialize, superprop, superspace, validate as validate_mod
from . import jaynescummings as jc
from .errors import LiouspaceError, ParseError, TruncationLeak, UnknownKey
from .liouvillian import grid_liouvillian, grid_super_potential
from .potential import PolynomialPotential, SuperPotentialKind, e_vanishes_identically
from .superspace import SuperGrid

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_GUARD = 2
EXIT_USAGE = 64

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
        "n_levels": 6,
        "lam": 0.0003,
        "t": 2.0,
        "steps": 40,
        "alpha1": "0",
        "alpha2": "0",
        "omega": 1.0,
    },
    "validate": {},
}
# Help of the flags whose name alone does not say what they mean.
FLAG_HELP = {
    ("bipartite", "n_levels"): "ladder size n_r of the relative mode (x1 - x2)/sqrt 2, "
    "at most 64 (its n_r^2 x n_r^2 generator is diagonalised densely)",
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse default exits with code 2
        raise UsageError(message)


def parse_config(path) -> tuple[str, dict]:
    """Strict JSON config: {"scenario": ..., <subcommand parameters>}.

    Returns the scenario and its defaults updated by the config.  Each value
    has the type of its default, as the flag does: an integer where the
    default is one, a number (an integer widens to float) for a float, and a
    string for a string, so ``potential`` is a spec such as "poly:0,0,0.5".
    """
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ParseError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}: {exc.msg}") from exc
    if not isinstance(raw, dict) or "scenario" not in raw:
        raise ParseError(f"{path}: config must be an object with a 'scenario' key")
    scenario = raw.pop("scenario")
    if type(scenario) is not str or scenario not in DEFAULTS:
        raise ParseError(f"{path}: unknown scenario {json.dumps(scenario)}")
    params = dict(DEFAULTS[scenario])
    for key, value in raw.items():
        if key not in params:
            raise UnknownKey(f"{path}: unknown key {key!r} for scenario {scenario!r}")
        default = params[key]
        kind = type(default)
        if kind is float and type(value) is int:
            value = float(value)
        if type(value) is not kind:
            expected = {int: "an integer", float: "a number", str: "a string"}[kind]
            raise ParseError(
                f"{path}: {key}={json.dumps(value)} must be {expected}, "
                f"like its default {json.dumps(default)}"
            )
        params[key] = value
    return scenario, params


def parse_potential_spec(spec: str) -> PolynomialPotential:
    """A potential spec, in a flag and a config file alike: "free",
    "harmonic:k", "quartic:lam" or "poly:c0,c1,..."."""
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
        self.solver_path: str | None = None
        self.generator_dim: int | None = None
        self._t0 = time.perf_counter()

    def path(self, name: str) -> Path:
        """Where output ``name`` goes.  The directory is made here, at the
        first output, so a refused run leaves none behind."""
        self.outputs.append(name)
        self.outdir.mkdir(parents=True, exist_ok=True)
        return self.outdir / name

    def write_manifest(self) -> Path:
        # every recorded margin with a row in the table decides its check
        for margin, (check, bound) in validate_mod.MANIFEST_CHECKS.items():
            if margin in self.margins:
                self.checks[check] = self.margins[margin] < bound
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
        self.outdir.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        return path


def run_superop(ctx: RunContext) -> None:
    p = ctx.params
    v = parse_potential_spec(p["potential"])
    grid = SuperGrid.centered(p["grid_span"], p["grid_n"])
    op = grid_liouvillian(v, grid, SuperPotentialKind(p["kind"]))
    e = np.zeros((grid.n, grid.n)) if op.e is None else op.e
    v_qm = grid_super_potential(v, grid, SuperPotentialKind.QM)
    serialize.save_real_matrix(ctx.path("superop_e.csv"), e)
    serialize.save_real_matrix(ctx.path("superop_vqm.csv"), v_qm)
    if grid.n <= 16:  # dense n^2 x n^2 export stays inspectable at this size
        serialize.save_complex_matrix(ctx.path("superop_liouvillian.csv"), op.dense())
    else:
        ctx.notes.append("dense Liouvillian export skipped (grid_n > 16)")
    # a property of the potential, not a pass/fail result
    ctx.notes.append(f"e_vanishes_identically = {e_vanishes_identically(v)}")
    ctx.margins["max_e_antisymmetry_defect"] = validate_mod.e_antisymmetry_defect(e, e.T)
    ctx.notes.append(f"max |E| on grid = {float(np.max(np.abs(e))):.6g}")


def _record_series(ctx: RunContext, name: str, dim: int, columns, solver_path, margins) -> None:
    """Write a library series' columns to ``name`` in the dict's order and
    record its solver path, generator dimension and margins."""
    serialize.write_csv(ctx.path(name), np.column_stack([*columns.values()]), header=[*columns])
    ctx.solver_path, ctx.generator_dim = solver_path, dim
    ctx.margins.update(margins)


def run_evolve(ctx: RunContext) -> None:
    p = ctx.params
    v = parse_potential_spec(p["potential"])
    kind = SuperPotentialKind(p["kind"])
    grid = SuperGrid.centered(p["grid_span"], p["grid_n"])
    hbar, mass, sigma_x, sigma_p = p["hbar"], p["mass"], p["sigma_x"], p["sigma_p"]
    cfg = evolution.EvolutionConfig(t1=p["t"], n_steps=p["steps"], hbar=hbar, mass=mass)
    sd = superspace.gaussian_super_density(grid, p["x0"], p["p0"], sigma_x, sigma_p, hbar)
    # a sharper Gaussian is a phase density but no quantum state: its operator
    # has a negative eigenvalue and purity hbar / (2 sigma_x sigma_p) > 1; the
    # 1e-12 lets a product that only rounds below the bound through
    if kind is SuperPotentialKind.QM and sigma_x * sigma_p < (1 - 1e-12) * hbar / 2:
        raise UsageError(
            f"kind qm needs sigma_x * sigma_p >= hbar / 2, got "
            f"{sigma_x:g} * {sigma_p:g} = {sigma_x * sigma_p:g} < {hbar / 2:g}"
        )
    *series, sd = evolution.grid_series(v, grid, kind, sd, cfg, p["n_out"])
    _record_series(ctx, "evolve_series.csv", grid.n**2, *series)
    ctx.notes.append(f"strang_bands = {evolution.strang_bands(grid.n)}")
    serialize.save_super_density(ctx.outdir / "evolve_final", sd, hbar, mass)
    ctx.outputs += ["evolve_final.csv", "evolve_final.json"]


def run_propagator(ctx: RunContext) -> None:
    p = ctx.params
    rng = np.random.Generator(np.random.Philox(p["seed"]))
    lam, t_end, n_points, span = p["lam"], p["t"], p["n_points"], p["span"]
    if n_points < 1:
        raise UsageError(f"n_points={n_points} must be >= 1")
    if span <= 0:
        raise UsageError(f"span={span} must be > 0")
    rows = []
    for _ in range(n_points):
        ends = rng.uniform(-span, span, size=4)
        pt = superprop.PropagatorPoint(*ends, duration=t_end, mass=p["mass"], hbar=p["hbar"])
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
                # |G - numeric| / |G - G0|: the error relative to the correction
                abs(g_cl - num_cl) / max(abs(g_cl - g0), 1e-300),
                abs(g_qm - num_qm) / max(abs(g_qm - g0), 1e-300),
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
            "abs_err_cl", "abs_err_qm", "rel_err_cl", "rel_err_qm",
        ],
    )
    ctx.margins["max_relative_defect"] = np.max([row[-2:] for row in rows])


def run_jc(ctx: RunContext) -> None:
    p = ctx.params
    if _parse_complex_pair(p["eps_eegg"]) != 0:
        raise UsageError(
            "eps_eegg must be 0,0: E_ee,gg alone breaks the trace sum rule sum_a E_aa,cd = 0"
        )
    params = jc.JCParams(
        omega_e=p["omega_e"],
        omega=p["omega"],
        d_eg=p["d"],
        n_max=p["n_max"],
        eps_egeg=_parse_complex_pair(p["eps"]),
    )
    rho0 = jc.initial_jc_state(p["init"], params.n_max)
    series = jc.jc_series(params, rho0, p["t"], p["steps"])
    _record_series(ctx, "jc_series.csv", params.dim**2, *series)


def run_bipartite(ctx: RunContext) -> None:
    p = ctx.params
    basis = entangle.BipartiteBasis(n_levels=p["n_levels"], omega=p["omega"])
    series = entangle.compare_cl_qm_entanglement(
        basis, p["lam"], complex(p["alpha1"]), complex(p["alpha2"]), p["t"], p["steps"]
    )
    _record_series(ctx, "bipartite_series.csv", basis.n_levels**2, *series)


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


@functools.cache  # parsing leaves the parser unchanged, so one serves every run
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
            sp.add_argument(flag, default=None, type=type(default), dest=key,
                            help=FLAG_HELP.get((scenario, key)))
    return parser


def run(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    scenario = args.scenario
    try:
        params = dict(DEFAULTS[scenario])
        if args.config:
            config_scenario, params = parse_config(args.config)
            if config_scenario != scenario:
                raise UsageError(f"config is for scenario {config_scenario!r}, not {scenario!r}")
        # flags win over the config; an unset flag is None
        params.update((k, v) for k, v in vars(args).items() if k in params and v is not None)
        for key, value in params.items():
            # float flags take "nan" and "inf", and json reads NaN and Infinity
            if isinstance(value, float) and not np.isfinite(value):
                raise UsageError(f"{key}={value} must be finite")
        outdir = Path(
            args.outdir
            or os.environ.get("LIOUSPACE_OUTDIR")
            or "runs"
        ) / scenario
        ctx = RunContext(scenario, params, outdir)
        RUNNERS[scenario](ctx)
        ctx.write_manifest()
        return EXIT_OK if all(ctx.checks.values()) else EXIT_VALIDATION
    except (UsageError, ValueError) as exc:  # ValueError: a parameter the library rejects
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ParseError as exc:  # UnknownKey included
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except TruncationLeak as exc:
        print(f"numerical guard abort: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except LiouspaceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except MemoryError as exc:  # numpy's names the size it could not allocate
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return EXIT_VALIDATION


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
