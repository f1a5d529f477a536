"""Time evolution of density matrices.

Covers the exact exponential exp(-i L t) of a ``BasisLiouvillian`` over a
time grid (``ExactEvolver``, whose route follows E: one eigh when E is
absent or real, else expm per time), a classical RK4 integrator for
time-dependent generators (an oracle for the exact route), split-step
Trotter evolution on (Q, q) grids with its one series of grid moments
(``grid_series``), and the classical method-of-characteristics ensemble,
which serves as the independent oracle for the grid dynamics.

The Strang loop splits the grid into ``strang_bands(n)`` bands of rows and
of columns: two where the process may run on two CPUs or more and the grid
has ``2 * MIN_BAND`` lines, else one.  The second band runs on a helper
thread when it gets a CPU in time, since numpy's FFT passes release the
GIL.  Each band repeats the one-band loop's operations in its order, so
the states are bit-identical whatever the band count; ``taskset`` pins a
run to one CPU, and hence one band.

The grid routes take hbar and the mass from ``EvolutionConfig``.  Every
generator is in units of hbar, i d/dt rho = L rho
(``liouvillian.grid_liouvillian`` divides by its hbar; in a basis, pass
h / hbar and E / hbar).

scipy is imported only where a route needs it (``ExactEvolver``'s expm of
a complex-E generator, the Sobol ensemble), so importing this module
loads no scipy.
"""

from __future__ import annotations

import contextlib
import contextvars
import enum
import os
import threading
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .errors import EnergyDriftExceeded
from .potential import PolynomialPotential, SuperPotentialKind
from .liouvillian import BasisLiouvillian, grid_super_potential
from .superspace import SuperDensity, SuperGrid, moments

# Largest per-sample energy drift rate of the leapfrog ensemble, per unit
# time and relative to the energy scale.
ENERGY_DRIFT_TOL = 1e-6
# Fewest grid lines in a band of the Strang loop.  Measured per step on 2
# CPUs, 2 bands against 1 (medians of 12 alternating calls): 0.24 against
# 0.09 ms at n = 64, even at n = 128 (0.34-0.37 against 0.35), 0.55-0.58
# against 0.70-0.71 ms at n = 192 and 0.95-0.98 against 1.33-1.36 ms at
# n = 256.
MIN_BAND = 96
# Most bands of the Strang loop.  Two is the only count measured against
# one band, on a 2-CPU host; a higher cap needs paired runs on more CPUs.
MAX_BANDS = 2


class EvolveMethod(enum.Enum):
    TROTTER_STRANG = "trotter_strang"
    RK4 = "rk4"


@dataclass(frozen=True)
class EvolutionConfig:
    t1: float
    n_steps: int = 128
    method: EvolveMethod = EvolveMethod.TROTTER_STRANG
    hbar: float = 1.0
    mass: float = 1.0

    def __post_init__(self) -> None:
        if not 0 < self.t1 < np.inf:
            raise ValueError(f"t1={self.t1} must be finite and > 0")
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if not (0 < self.mass < np.inf and 0 < self.hbar < np.inf):
            raise ValueError(f"mass={self.mass} and hbar={self.hbar} must be finite and > 0")


def output_times(t_end: float, steps: int) -> np.ndarray:
    """The steps + 1 evenly spaced output times from 0 to t_end.  Raises
    ValueError unless t_end is finite and > 0 and steps >= 1."""
    if not 0 < t_end < np.inf:
        raise ValueError(f"t_end={t_end} must be finite and > 0")
    if steps < 1:
        raise ValueError(f"steps={steps} must be >= 1")
    return np.linspace(0.0, t_end, steps + 1)


class ExactEvolver:
    """vec rho(t) = exp(-i L t) vec rho(0) of a ``BasisLiouvillian``, on any time grid.

    The route follows E; no tolerance picks it.  With h Hermitian and U real
    orthogonal (both checked by ``BasisLiouvillian``), L is Hermitian exactly
    when E is absent or real, and is then diagonalised once in its own dtype
    (a real symmetric L takes the real LAPACK driver).  A complex E, as in
    the complex-eps ``jaynescummings.jc_liouvillian``, is exponentiated by
    scipy's expm at each time: the dense oracle of ``validate``'s
    Jaynes-Cummings checks and of the tests.
    """

    def __init__(self, liouville: BasisLiouvillian) -> None:
        self._dense = liouville.dense()
        self._w = self._u = None
        if liouville.e is None or not np.any(np.imag(liouville.e)):
            self._w, self._u = np.linalg.eigh(self._dense)

    def propagate(self, rho0: np.ndarray, t_grid) -> np.ndarray:
        """The states rho(t_j) for each t_j of t_grid, shape
        (len(t_grid), N, N).

        The eigh route forms every output time from one (T, N^2) x
        (N^2, N^2) product: vec rho(t) = u (e^{-i w t} o u' vec rho0).
        """
        t_grid = np.asarray(t_grid, dtype=float).reshape(-1)
        rho0 = np.asarray(rho0, dtype=complex)
        vec = rho0.reshape(-1)
        if self._u is None:
            from scipy.linalg import expm

            out = [expm(-1j * self._dense * t) @ vec for t in t_grid]
            return np.array(out, dtype=complex).reshape(-1, *rho0.shape)
        phases = np.outer(t_grid, -self._w) * 1j
        np.exp(phases, out=phases)
        phases *= self._u.conj().T @ vec
        return (phases @ self._u.T).reshape(-1, *rho0.shape)


def evolve_ordered(
    family: Callable[[float], np.ndarray],
    rho0: np.ndarray,
    config: EvolutionConfig,
) -> np.ndarray:
    """Time-ordered evolution by the classical RK4 integrator (order 4).

    ``family(t)`` returns the generator (energy units) at time t, dense or
    sparse; the vectorized equation i hbar d/dt vec = L(t) vec is integrated
    from 0 to ``config.t1`` in ``config.n_steps`` equal steps.  Raises
    ValueError unless ``config.method`` is RK4.
    """
    if config.method is not EvolveMethod.RK4:
        raise ValueError("config.method must be RK4")
    shape = np.asarray(rho0).shape
    vec = np.asarray(rho0, dtype=complex).reshape(-1)
    dt = config.t1 / config.n_steps

    def rhs(t, v):
        return -1j * (family(t) @ v) / config.hbar

    t = 0.0
    for _ in range(config.n_steps):
        k1 = rhs(t, vec)
        k2 = rhs(t + dt / 2, vec + dt / 2 * k1)
        k3 = rhs(t + dt / 2, vec + dt / 2 * k2)
        k4 = rhs(t + dt, vec + dt * k3)
        vec = vec + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += dt
    return vec.reshape(shape)


def strang_bands(n: int) -> int:
    """The number of bands ``evolve_trotter`` splits an n-point grid into:
    one per CPU this process may run on, at most ``MAX_BANDS``, of at least
    ``MIN_BAND`` lines each, and at least one."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, MAX_BANDS, n // MIN_BAND))


def _helper(task: list, offer: threading.Lock, done: threading.Lock, errors: list) -> None:
    """The helper thread of ``_bands``: takes band 1 of each phase whose
    offer it wins, runs task[0](1) and releases done, until task[0] is None."""
    while True:
        offer.acquire()
        if task[0] is None:
            return
        try:
            task[0](1)
        except BaseException as exc:  # the caller raises it
            errors.append(exc)
        finally:
            done.release()


@contextlib.contextmanager
def _bands(count: int) -> Iterator[Callable[[Callable[[int], None]], None]]:
    """Yields ``on_bands(phase)``, which runs phase(b) for b = 0..count-1
    and returns when every band has.  One band runs on the calling thread.
    With two, the caller offers band 1 to a helper thread, runs band 0, and
    then takes band 1 back unless the helper has won it already: a helper
    that gets no CPU in time costs the caller one lock and no wait.  The
    offer is a lock, released to offer and acquired to win; a second lock
    tells the caller that the helper's band is done.  The helper starts
    here, is joined on exit, also after an exception, and runs in a copy of
    the caller's context, so its ``np.errstate`` holds in both bands; the
    first exception of its band is raised by ``on_bands``."""
    if count == 1:
        yield lambda phase: phase(0)
        return
    task: list = [None]
    errors: list[BaseException] = []
    offer, done = threading.Lock(), threading.Lock()
    offer.acquire()
    done.acquire()
    helper = threading.Thread(target=contextvars.copy_context().run,
                              args=(_helper, task, offer, done, errors), daemon=True)

    def on_bands(phase: Callable[[int], None]) -> None:
        task[0] = phase
        offer.release()
        try:
            phase(0)
        finally:  # band 1 is taken back or waited for: no phase outlives the call
            mine = offer.acquire(blocking=False)
            if not mine:
                done.acquire()
        if mine:
            phase(1)
        elif errors:
            raise errors[0]

    try:
        helper.start()
        yield on_bands
    finally:
        task[0] = None
        if offer.locked():  # else the helper is yet to win the last offer, and sees None
            offer.release()
        if helper.ident is not None:
            helper.join()


def evolve_trotter(
    v: PolynomialPotential, grid: SuperGrid, kind: SuperPotentialKind, rho0: SuperDensity,
    config: EvolutionConfig, *, observe: Callable[[int, SuperDensity], None] | None = None,
    observe_every: int = 1,
) -> SuperDensity:
    """Split-step evolution alternating exact kinetic and potential phases.

    Each substep composes one discretized factor of the superpropagator
    path integral: the kinetic factor is diagonal in the 2-d Fourier dual
    of (Q, q), the potential + E factor is diagonal in (Q, q).  A step is
    the Strang splitting (half potential, kinetic, half potential), second
    order.  The kinetic phase exp(-i dt (H_Q - H_q) / hbar) factorises as
    a[Q] conj(a)[q] with a = exp(-i dt hbar k^2 / 2m), so each 1-d FFT pass
    is followed by its axis's phase.  The half potential phase is formed
    from ``grid_super_potential`` V_kind(Q, q), with no generator; the loop
    holds the state and that phase, two n x n complex arrays.  The grid is
    periodic, so mass at its boundary wraps around; ``superspace.moments``
    reports it as the boundary mass.

    The loop runs on ``strang_bands(n)`` bands of grid lines, one or two.
    With two, band 0 runs on the calling thread and band 1 on a helper
    thread that lives for the call, unless the caller finishes band 0
    before the helper has taken band 1 and runs it itself.  A step takes two
    phases, each ended by a hand-off: on row bands, the closing inverse row
    FFT and half phase of the step before, then the half phase, row FFT and
    a[q] of this step; on column bands, the column FFT, a[Q] and inverse
    column FFT.  An observed or last step closes its rows in a phase of
    their own, so the observer and the caller see whole steps.  Every band
    does the serial loop's operations in its order, so the states are
    bit-identical to a one-band run's, whatever the band count and whichever
    thread runs a band.  The caller's ``np.errstate`` holds in both bands,
    and an exception of either band is raised here.

    ``observe(k, state)``, the hook of ``grid_series``, is called if given
    after every step k = 1..n_steps that is a multiple of ``observe_every``,
    with the state at k dt, bit-identical to the result of a separate k-step
    call with the same dt.  That state is a read-only view of the working
    array, valid during the call only: an observer that keeps it must copy
    it.  The returned state is the working array itself.  The phases are
    built once per call: one call covers a run.  Raises ValueError unless
    ``config.method`` is TROTTER_STRANG and ``observe_every >= 1``, and
    where V_kind overflows on the grid, before the first step.
    """
    if config.method is not EvolveMethod.TROTTER_STRANG:
        raise ValueError("config.method must be TROTTER_STRANG")
    if observe_every < 1:
        raise ValueError("observe_every must be >= 1")
    dt = config.t1 / config.n_steps
    half = grid_super_potential(v, grid, kind) * (-0.5j * dt / config.hbar)
    np.exp(half, out=half)
    k2 = (2.0 * np.pi * np.fft.fftfreq(grid.n, grid.dq)) ** 2
    a = np.exp(-0.5j * dt * config.hbar / config.mass * k2)
    a_conj, a_col = a.conj(), a[:, None]
    rho = np.array(rho0.values)  # a copy: the steps below overwrite it
    view = rho.view()
    view.flags.writeable = False
    count = strang_bands(grid.n)
    # band b holds rows, and in the column phase columns, lines[b]
    lines = [slice(grid.n * b // count, grid.n * (b + 1) // count) for b in range(count)]
    # in place one axis at a time: np.fft.ifft2(x, out=x) leaves x wrong
    # (numpy 2.4.6), while each 1-d out= transform is exact

    def open_rows(b: int) -> None:  # a step's half potential, row FFT and a[q]
        band = rho[lines[b]]
        band *= half[lines[b]]
        np.fft.fft(band, axis=1, out=band)
        band *= a_conj

    def close_rows(b: int) -> None:  # a step's inverse row FFT and half potential
        band = rho[lines[b]]
        np.fft.ifft(band, axis=1, out=band)
        band *= half[lines[b]]

    def close_and_open_rows(b: int) -> None:
        close_rows(b)
        open_rows(b)

    def columns(b: int) -> None:  # a step's column FFT, a[Q] and inverse
        band = rho[:, lines[b]]
        np.fft.fft(band, axis=0, out=band)
        band *= a_col
        np.fft.ifft(band, axis=0, out=band)

    with _bands(count) as on_bands:
        on_bands(open_rows)
        for k in range(1, config.n_steps + 1):
            on_bands(columns)
            observed = observe is not None and k % observe_every == 0
            if not observed and k < config.n_steps:
                on_bands(close_and_open_rows)
                continue
            on_bands(close_rows)
            if observed:
                observe(k, SuperDensity(grid, view))
            if k < config.n_steps:
                on_bands(open_rows)
    return SuperDensity(grid, rho)


def grid_series(
    v: PolynomialPotential, grid: SuperGrid, kind: SuperPotentialKind, rho0: SuperDensity,
    config: EvolutionConfig, n_out: int,
) -> tuple[dict[str, np.ndarray], str, dict[str, float], SuperDensity]:
    """(columns, "trotter_strang", margins, final_state) of one
    ``evolve_trotter`` run of rho0, with ``superspace.moments`` read at t = 0
    and after every n_steps / n_out steps.  The columns are t, trace, x_mean,
    p_mean, x2_mean and purity; the margins, the worst |trace - 1|,
    Hermiticity defect and boundary mass by np.max, which keeps a NaN of any
    row.  Raises ValueError unless n_out lies in 1..n_steps and divides it."""
    steps = config.n_steps
    if not 1 <= n_out <= steps or steps % n_out:
        raise ValueError(f"n_out={n_out} must lie in 1..steps and divide steps={steps}")
    rows = [(0.0, moments(rho0, config.hbar))]

    def observe(k: int, state: SuperDensity) -> None:
        rows.append((config.t1 * k / steps, moments(state, config.hbar)))

    # config in 5th place, where the benchmark's step counter reads it
    sd = evolve_trotter(v, grid, kind, rho0, config, observe=observe, observe_every=steps // n_out)
    table = np.array([(t, m.trace, m.x, m.p, m.x2, m.purity, abs(m.trace - 1.0),
                       m.hermiticity_defect, m.boundary_mass) for t, m in rows])
    columns = dict(zip(("t", "trace", "x_mean", "p_mean", "x2_mean", "purity"), table[:, :6].T))
    guards = ("max_trace_drift", "max_hermiticity_defect", "max_boundary_mass")
    return columns, "trotter_strang", dict(zip(guards, np.max(table[:, 6:], axis=0).tolist())), sd


@dataclass
class CharacteristicsEnsemble:
    """Equally weighted phase-space samples following Hamilton's equations."""

    x: np.ndarray
    p: np.ndarray

    def __post_init__(self) -> None:
        self.x = np.asarray(self.x, dtype=float)
        self.p = np.asarray(self.p, dtype=float)
        if self.x.shape != self.p.shape:
            raise ValueError("x and p must share a shape")

    def moments(self) -> tuple[float, float, float]:
        """Ensemble means (<x>, <p>, <x^2>)."""
        w = 1.0 / self.x.size
        return (
            float(np.sum(w * self.x)),
            float(np.sum(w * self.p)),
            float(np.sum(w * self.x**2)),
        )


def gaussian_ensemble(
    n: int,
    x0: float,
    p0: float,
    sigma_x: float,
    sigma_p: float,
    seed: int = 0,
) -> CharacteristicsEnsemble:
    """Gaussian ensemble from a scrambled Sobol sequence, n rounded up to a
    power of 2: far lower moment noise than pseudo-random draws of equal
    count.  Raises ValueError unless both widths are finite and > 0."""
    if not (0 < sigma_x < np.inf and 0 < sigma_p < np.inf):
        raise ValueError(f"sigma_x={sigma_x:g} and sigma_p={sigma_p:g} must be finite and > 0")
    from scipy.stats import norm, qmc

    m = int(np.ceil(np.log2(max(n, 2))))
    eng = qmc.Sobol(d=2, scramble=True, seed=seed)
    u = eng.random_base2(m)
    z = norm.ppf(u * (1 - 1e-12) + 0.5e-12)
    return CharacteristicsEnsemble(x=x0 + sigma_x * z[:, 0], p=p0 + sigma_p * z[:, 1])


def evolve_characteristics(
    v: PolynomialPotential,
    ensemble: CharacteristicsEnsemble,
    t: float,
    dt: float,
) -> CharacteristicsEnsemble:
    """Leapfrog (velocity Verlet) transport of every sample for time t, at
    mass 1, in round(t / dt) equal steps (at least one); t = 0 returns the
    ensemble itself.

    Raises ValueError unless t is finite and >= 0 and dt is finite and > 0,
    and EnergyDriftExceeded when the worst per-sample energy drift rate
    exceeds ``ENERGY_DRIFT_TOL``.
    """
    if not 0 <= t < np.inf:
        raise ValueError(f"t={t} must be finite and >= 0")
    if not 0 < dt < np.inf:
        raise ValueError(f"dt={dt} must be finite and > 0")
    if t == 0.0:
        return ensemble
    n_steps = max(1, int(round(t / dt)))
    dt = t / n_steps
    x = ensemble.x.copy()
    p = ensemble.p.copy()
    e0 = p**2 / 2 + v.value(x)
    dv, kick = v.derivative(), np.empty_like(x)
    for step in range(n_steps + 1):
        slope = dv.value(x)  # V'(x), minus the force
        if step > 0:  # the closing half kick of the step before
            p -= np.multiply(slope, 0.5 * dt, out=kick)
        if step < n_steps:
            p -= np.multiply(slope, 0.5 * dt, out=kick)
            x += np.multiply(p, dt, out=kick)
    e1 = p**2 / 2 + v.value(x)
    scale = max(1.0, float(np.max(np.abs(e0))))
    drift_rate = float(np.max(np.abs(e1 - e0))) / (scale * t)
    if drift_rate > ENERGY_DRIFT_TOL:
        raise EnergyDriftExceeded(
            f"energy drift {drift_rate:.3e} per unit time exceeds {ENERGY_DRIFT_TOL:g}; "
            "reduce dt"
        )
    return CharacteristicsEnsemble(x=x, p=p)
