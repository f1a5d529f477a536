"""How the benchmark sees the library.

``bench/workloads.py`` builds its oracles from library names and
``bench/tracing.py`` wraps library names by attribute; both are loaded here
as they are, so a renamed or removed name fails the test suite instead of
a benchmark run.
"""

import functools
import importlib.util
import sys
from pathlib import Path

import pytest

from liouspace import cli, evolution, liouvillian

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def workloads():
    return load("workloads")


@pytest.fixture(scope="module")
def built(workloads):
    """Each workload at seed 1, its oracle built once for the module."""
    return functools.cache(lambda name: workloads.BUILDERS[name](1))


@pytest.fixture(scope="module")
def tracing():
    return load("tracing")


@pytest.mark.parametrize("name", ["bipartite-n6", "jc-n12"])
def test_workload_passes_its_oracle(workloads, built, tmp_path, name):
    workload = built(name)
    assert cli.run([*workload.argv, "--outdir", str(tmp_path)]) == cli.EXIT_OK
    problems, _ = workloads.check(workload, tmp_path)
    assert problems == []


TRACED = [
    (evolution.ExactEvolver, "__init__"),
    (evolution.ExactEvolver, "propagate"),
    (liouvillian.BasisLiouvillian, "dense"),
]


def test_tracer_wraps_the_exact_route(tracing, built, tmp_path):
    """The tracer wraps the exact route's names and restores them; a traced
    bipartite run takes one eigh per kind."""
    originals = [vars(owner)[attr] for owner, attr in TRACED]
    workload = built("bipartite-n6")  # its oracle, untraced
    tracer = tracing.Tracer()
    with tracer.installed():
        for owner, attr in TRACED:
            assert getattr(vars(owner)[attr], "__wrapped__", None) is not None, attr
        assert cli.run([*workload.argv, "--outdir", str(tmp_path)]) == cli.EXIT_OK
    assert [vars(owner)[attr] for owner, attr in TRACED] == originals
    assert tracer.counts["evolution.exact_init"] == 2
    assert tracer.counts["evolution.eigh"] == 2
    assert tracer.counts["liouvillian.dense"] == 2


def test_tracer_attributes_the_jc_build(tracing, built, tmp_path):
    """A traced jc run builds its one generator through ``jc_liouvillian``,
    so the build is timed as a layer of its own."""
    workload = built("jc-n12")
    tracer = tracing.Tracer()
    with tracer.installed():
        assert cli.run([*workload.argv, "--outdir", str(tmp_path)]) == cli.EXIT_OK
    assert tracer.counts["jaynescummings.build"] == 1
