"""Per-layer spans for the traced benchmark run.

Each function is wrapped at the attribute its caller resolves, for example
``evolution.build_grid_liouvillian`` (the global ``evolve_trotter`` looks
up) and not ``liouvillian.build_grid_liouvillian``.  A wrapper at a name no
caller resolves records nothing, and the time shows up in
``cli.unattributed_s`` instead of in a layer.  ``numpy.linalg.eigh`` and
``scipy.linalg.expm`` are counted only as ``evolution`` calls them, through
stand-ins for that module's ``np`` and ``scipy`` globals.

Spans (name, start, end, parent) are kept in memory for one invocation at
a time; a span's self time is its duration minus that of its direct
children.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from liouspace import entangle, evolution, liouvillian, serialize, superspace
from liouspace import jaynescummings as jc


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    end: float = 0.0


class _Proxy:
    """Stands in for a module: ``overrides`` first, all else from ``target``."""

    def __init__(self, target, **overrides) -> None:
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


def _count_trotter_steps(counts: Counter, args, kwargs, _result) -> None:
    config = kwargs["config"] if "config" in kwargs else args[4]
    counts["evolution.trotter_steps"] += config.n_steps


def _count_dense_bytes(counts: Counter, _args, _kwargs, result) -> None:
    counts["liouvillian.dense_bytes"] += result.nbytes


def _count_bytes_written(counts: Counter, _args, _kwargs, result) -> None:
    paths = result if isinstance(result, tuple) else (result,)
    counts["serialize.bytes_written"] += sum(Path(p).stat().st_size for p in paths)


class Tracer:
    """Wraps the layer functions while installed and records their spans."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(Span(name, time.perf_counter(), parent))
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[idx].end = time.perf_counter()
            self.counts[name] += 1
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        return traced

    def _replace(self, owner, attr: str, make) -> None:
        """Set ``owner.attr`` to ``make(original)`` until uninstalled.

        A name the program no longer defines is skipped with a note: its
        time then shows up as unattributed instead of stopping the run.
        """
        # vars() gives the attribute defined on owner itself, so restoring
        # never shadows an inherited one.
        original = vars(owner).get(attr)
        if original is None:
            print(f"tracing: {owner.__name__}.{attr} not found, not traced", file=sys.stderr)
            return
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def _patch(self, owner, attr: str, span: str, count=None) -> None:
        self._replace(owner, attr, lambda fn: self._wrap(span, fn, count))

    @contextmanager
    def installed(self):
        """Wrap every layer function for the duration of the block."""
        try:
            self._patch(evolution, "evolve_trotter", "evolution.trotter", _count_trotter_steps)
            self._patch(evolution, "build_grid_liouvillian", "liouvillian.grid_build")
            self._patch(evolution.ExactEvolver, "__init__", "evolution.exact_init")
            self._patch(evolution.ExactEvolver, "propagate", "evolution.propagate")
            self._replace(evolution, "np", lambda mod: _Proxy(mod, linalg=_Proxy(
                mod.linalg, eigh=self._wrap("evolution.eigh", mod.linalg.eigh)
            )))
            self._replace(evolution, "scipy", lambda mod: _Proxy(mod, linalg=_Proxy(
                mod.linalg, expm=self._wrap("evolution.expm", mod.linalg.expm)
            )))
            self._patch(liouvillian.BasisLiouvillian, "dense", "liouvillian.dense", _count_dense_bytes)
            for name in ("trace", "purity", "expect_x", "expect_p", "expect_x2", "expect_xp_weyl"):
                self._patch(superspace, name, "superspace.observables")
            for name in ("save_super_density", "save_phase_density", "save_complex_matrix",
                         "save_real_matrix"):
                self._patch(serialize, name, "serialize.write", _count_bytes_written)
            self._patch(entangle, "compare_cl_qm_entanglement", "entangle.compare")
            self._patch(entangle, "build_bipartite_liouvillian", "entangle.build")
            self._patch(entangle, "entanglement_metrics", "entangle.metrics")
            self._patch(jc, "jc_liouvillian", "jaynescummings.build")
            self._patch(jc, "check_fock_truncation", "jaynescummings.truncation_check")
            yield self
        finally:
            while self._saved:
                owner, attr, original = self._saved.pop()
                setattr(owner, attr, original)

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer numbers of the invocation traced since the last reset.

        ``wall_s`` is the invocation's traced wall time; the part of it no
        top-level span covers is reported as ``cli.unattributed_s``.
        """
        own: defaultdict[str, float] = defaultdict(float)
        top = 0.0
        for span in self.spans:
            dur = span.end - span.start
            own[span.name] += dur
            if span.parent is None:
                top += dur
            else:
                own[self.spans[span.parent].name] -= dur
        c = self.counts
        steps = c["evolution.trotter_steps"]
        return {
            "evolution.trotter_s": own["evolution.trotter"],
            "evolution.trotter_calls": c["evolution.trotter"],
            "evolution.trotter_steps": steps,
            "evolution.step_ms": 1e3 * own["evolution.trotter"] / steps if steps else 0.0,
            "liouvillian.grid_build_s": own["liouvillian.grid_build"],
            "liouvillian.grid_build_calls": c["liouvillian.grid_build"],
            "superspace.observables_s": own["superspace.observables"],
            "superspace.observable_calls": c["superspace.observables"],
            "serialize.write_s": own["serialize.write"],
            "serialize.bytes_written": c["serialize.bytes_written"],
            "evolution.exact_init_s": own["evolution.exact_init"],
            "evolution.eigh_s": own["evolution.eigh"],
            "liouvillian.dense_s": own["liouvillian.dense"],
            "liouvillian.dense_bytes": c["liouvillian.dense_bytes"],
            "evolution.propagate_s": own["evolution.propagate"],
            "evolution.propagate_calls": c["evolution.propagate"],
            "evolution.expm_calls": c["evolution.expm"],
            "entangle.compare_s": own["entangle.compare"],
            "entangle.build_s": own["entangle.build"],
            "entangle.metrics_s": own["entangle.metrics"],
            "jaynescummings.build_s": own["jaynescummings.build"],
            "jaynescummings.truncation_check_s": own["jaynescummings.truncation_check"],
            "cli.unattributed_s": wall_s - top,
        }
