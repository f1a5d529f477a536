"""Benchmark of the liouspace command-line scenarios.

    python3 bench/run.py --workload grid-cl-n256 --seed 1 --seconds 20 --trace 0

--trace 0 calls ``liouspace.cli.run`` in-process and warm, one call after
another (a closed loop with one caller), for --seconds; then it times
set-up and measures peak memory in fresh child interpreters.  --trace 1
alternates untraced and traced calls for --seconds and reports per-layer
numbers instead.  The outputs of every call are checked against the
workload's oracle, computed before any timing.  The last line of stdout is
the JSON result.  DESIGN.md explains the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_runs"
# The keys of workloads.BUILDERS, which may load only after the thread
# variables are set (see main).
WORKLOADS = ("grid-cl-n256", "bipartite-n6", "jc-n12")
# A fixed BLAS/OpenMP thread count, at most the CPUs available, keeps runs
# comparable: bipartite-n6 takes about 3.8 s with two OpenBLAS threads and
# 6.6 s with one.
MAX_THREADS = 2
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 60


def closed_loop(seconds: float, step) -> list:
    """Call ``step`` back to back until ``seconds`` have passed, at least once."""
    results = []
    start = time.perf_counter()
    while not results or time.perf_counter() - start < seconds:
        results.append(step())
    return results


class Bench:
    """Invocations of one workload, with every failure counted."""

    def __init__(self, workload, cli, checker) -> None:
        self.workload = workload
        self.cli = cli
        self.check = checker
        self.outdir = OUT / workload.name
        self.argv = [*workload.argv, "--outdir", str(self.outdir)]
        self.attempted = 0
        self.failed = 0
        self.worst_error = {g.column: 0.0 for g in workload.gates}

    def _fail(self, problem: str) -> None:
        self.failed += 1
        print(f"{self.workload.name}: {problem}", file=sys.stderr)

    def _record(self, rc, outdir: Path) -> None:
        self.attempted += 1
        if rc != 0:
            self._fail(f"invocation returned {rc}")
            return
        problems, errors = self.check(self.workload, outdir)
        for col, err in errors.items():
            self.worst_error[col] = max(self.worst_error[col], err)
        if problems:
            self._fail("; ".join(problems))

    def invoke(self) -> float:
        """One in-process invocation; returns its wall time."""
        shutil.rmtree(self.outdir, ignore_errors=True)
        start = time.perf_counter()
        try:
            rc = self.cli.run(self.argv)
        except Exception:  # a crash is a failed invocation; keep measuring
            traceback.print_exc()
            rc = "an exception"
        elapsed = time.perf_counter() - start
        self._record(rc, self.outdir)
        return elapsed

    def _child(self, mode: str, argv: list[str]):
        """Run child.py in a fresh interpreter; None if it timed out."""
        try:
            return subprocess.run(
                [sys.executable, str(BENCH / "child.py"), mode, *argv],
                cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:  # run() has killed and reaped it
            return None

    def setup_times(self) -> list[float]:
        """Wall times of fresh interpreters that import the CLI and parse argv."""
        times = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            proc = self._child("setup", self.argv)
            times.append(time.perf_counter() - start)
            self.attempted += 1
            if proc is None or proc.returncode != 0:
                self._fail(f"set-up child failed: {proc and proc.stderr}")
        return times

    def peak_rss_mb(self) -> float:
        """Peak resident memory of a fresh interpreter running one invocation."""
        outdir = OUT / f"{self.workload.name}-rss"
        shutil.rmtree(outdir, ignore_errors=True)
        proc = self._child("rss", [*self.workload.argv, "--outdir", str(outdir)])
        try:
            report = json.loads(proc.stdout.splitlines()[-1])
        except (AttributeError, IndexError, ValueError):
            self.attempted += 1
            self._fail(f"memory child failed: {proc and proc.stderr}")
            return 0.0
        self._record(report["rc"], outdir)
        return report["peak_rss_kb"] / 1024.0


def untraced(bench: Bench, seconds: float) -> tuple[dict, list[str]]:
    run_s = closed_loop(seconds, bench.invoke)
    setup_s = bench.setup_times()
    rss = bench.peak_rss_mb()
    notes = [
        f"run_s median {statistics.median(run_s):.4f} s over {len(run_s)} calls: "
        + " ".join(f"{t:.4f}" for t in run_s),
        f"setup_s median {statistics.median(setup_s):.4f} s over {len(setup_s)} "
        "interpreters: " + " ".join(f"{t:.4f}" for t in setup_s),
        f"peak_rss_mb {rss:.2f} MB from 1 child",
    ]
    metrics = {
        "run_s": (statistics.median(run_s), "s"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    return metrics, notes


def _unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    return "bytes" if "bytes" in name else "count"


def traced(bench: Bench, seconds: float) -> tuple[dict, list[str]]:
    import tracing

    tracer = tracing.Tracer()
    plain, wall, layers = [], [], []

    def pair() -> None:
        plain.append(bench.invoke())
        with tracer.installed():
            tracer.reset()
            wall.append(bench.invoke())
        layers.append(tracer.layer_metrics(wall[-1]))

    closed_loop(seconds, pair)
    # median_low keeps counts whole: it always returns one of the values.
    metrics = {
        name: (statistics.median_low(layer[name] for layer in layers), _unit(name))
        for name in layers[0]
    }
    overhead = statistics.median(wall) - statistics.median(plain)
    metrics["trace.overhead_s"] = (overhead, "s")
    notes = [
        f"traced run_s median {statistics.median(wall):.4f} s, untraced "
        f"{statistics.median(plain):.4f} s, {len(layers)} calls each"
    ]
    return metrics, notes


def runtime_info(threads: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "threads_set": threads,
        "thread_vars": list(THREAD_VARS),
        "openblas_threads": _openblas_threads(),
    }


def _openblas_threads() -> dict[str, int]:
    """Thread count that each OpenBLAS loaded in this process reports."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return {}
    libs = sorted({ln.split()[-1] for ln in maps.splitlines() if "openblas" in ln.lower()})
    found = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                   "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, fn):
                found[Path(path).name] = getattr(lib, fn)()
                break
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "liouspace" / "cli.py").is_file():
        print(f"error: no liouspace sources under {SRC}", file=sys.stderr)
        return 2

    threads = min(MAX_THREADS, len(os.sched_getaffinity(0)))
    os.environ.update({var: str(threads) for var in THREAD_VARS})
    sys.path.insert(0, str(SRC))
    # numpy fixes its BLAS thread count when it loads, so nothing that
    # imports it may load before the variables above are set.
    import workloads
    from liouspace import cli

    workload = workloads.BUILDERS[args.workload](args.seed)
    bench = Bench(workload, cli, workloads.check)
    bench.invoke()  # warm-up: lazy imports, BLAS threads, file cache
    metrics, notes = (traced if args.trace else untraced)(bench, args.seconds)

    print("# env " + json.dumps(runtime_info(threads), sort_keys=True))
    print("# argv " + " ".join(bench.argv))
    for note in notes:
        print("# " + note)
    print(f"# fail_frac {bench.failed}/{bench.attempted} = "
          f"{bench.failed / bench.attempted:.4g} (ratio)")
    for gate in workload.gates:
        err = bench.worst_error[gate.column]
        verdict = "PASS" if err <= gate.tol else "FAIL"
        print(f"# oracle {gate.column}: max error {err:.3e}, gate {gate.tol:.3e} {verdict}")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
