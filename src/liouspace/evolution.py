"""Time evolution of density matrices.

Covers the exact exponential exp(-i L t / hbar) for dense superoperators,
commutator evolution from one N x N eigh, the matrix-free action of any
generator over a uniform time grid, a midpoint
time-ordered product for time-dependent generators, the interaction
picture (with optional truncation at first perturbative order),
split-step Trotter evolution on (Q, q) grids, and the classical
method-of-characteristics ensemble, which serves as the independent
oracle for the grid dynamics.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

from .errors import EnergyDriftExceeded
from .liouvillian import BasisLiouvillian, GridLiouvillian, build_grid_liouvillian
from .potential import PolynomialPotential, SuperPotentialKind
from .superspace import SuperDensity, SuperGrid, is_hermitian

BOUNDARY_MASS_TOL = 1e-10


class EvolveMethod(enum.Enum):
    TROTTER_LIE = "trotter_lie"
    TROTTER_STRANG = "trotter_strang"
    RK4 = "rk4"


@dataclass(frozen=True)
class EvolutionConfig:
    t1: float
    t0: float = 0.0
    n_steps: int = 128
    method: EvolveMethod = EvolveMethod.TROTTER_STRANG
    hbar: float = 1.0
    mass: float = 1.0

    def __post_init__(self) -> None:
        if self.t1 <= self.t0:
            raise ValueError("t1 must exceed t0")
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")


def _expi(mat: np.ndarray, prefactor: complex) -> np.ndarray:
    """exp(prefactor * mat), via eigendecomposition for Hermitian mat."""
    if is_hermitian(mat):
        w, u = np.linalg.eigh(mat)
        return (u * np.exp(prefactor * w)) @ u.conj().T
    return scipy.linalg.expm(prefactor * mat)


def evolve_exact(
    liouville: Union[BasisLiouvillian, GridLiouvillian],
    rho0: np.ndarray,
    t: float,
) -> np.ndarray:
    """rho(t) = exp(-i L t / hbar) rho(0) through the dense superoperator."""
    return ExactEvolver(liouville).propagate(rho0, t)


class ExactEvolver:
    """Reusable exact propagator for time series from one diagonalization."""

    def __init__(self, liouville) -> None:
        self._dense, self.hbar = liouville.dense(), liouville.hbar
        self._hermitian = is_hermitian(self._dense)
        if self._hermitian:
            self._w, self._u = np.linalg.eigh(self._dense)
        else:
            self._w = self._u = None

    def matrix(self, t: float) -> np.ndarray:
        """The dense propagator exp(-i L t / hbar)."""
        if self._hermitian:
            return (self._u * np.exp(-1j * self._w * t / self.hbar)) @ self._u.conj().T
        return scipy.linalg.expm(-1j * self._dense * t / self.hbar)

    def propagate(self, rho0: np.ndarray, t: float) -> np.ndarray:
        vec = np.asarray(rho0, dtype=complex).reshape(-1)
        return (self.matrix(t) @ vec).reshape(rho0.shape)


def evolve_commutator(h: np.ndarray, rho0: np.ndarray, t_grid, hbar: float) -> np.ndarray:
    """rho(t) = e^{-i h t / hbar} rho0 e^{+i h t / hbar} at every t of t_grid,
    shape (len(t_grid), N, N), for Hermitian N x N h: with one eigh
    h = u diag(w) u', rho(t) = u (e^{-i w t / hbar} o (u' rho0 u) o e^{+i w t / hbar}) u'.
    """
    w, u = np.linalg.eigh(h)
    phases = np.exp(-1j * np.outer(np.asarray(t_grid, dtype=float), w) / hbar)
    # two (len(t_grid), N, N) buffers at a time: long grids stay lean
    states = phases[:, :, None] * (u.conj().T @ np.asarray(rho0, dtype=complex) @ u)
    states *= phases.conj()[:, None, :]
    return np.matmul(u @ states, u.conj().T, out=states)


def evolve_uniform_grid(
    apply: Callable[[np.ndarray], np.ndarray],
    adjoint: Callable[[np.ndarray], np.ndarray],
    trace: complex,
    vec0: np.ndarray,
    t_grid,
    hbar: float = 1.0,
) -> np.ndarray:
    """exp(-i L t / hbar) vec0 at every t of a uniform grid, without forming L.

    ``apply(x)`` is L x, ``adjoint(x)`` is L^H x for x shaped as vec0, and
    ``trace`` is tr L.  The truncated Taylor scheme of Al-Mohy & Higham
    (SIAM J. Sci. Comput. 33, 2011), as scipy's ``expm_multiply``, steps the
    whole grid at double-precision tolerance.  Its 1-norm estimates call
    ``adjoint`` and draw from numpy's global random stream, so they run
    under a fixed seed, and the caller's stream is restored.  Returns shape
    (len(t_grid), *vec0.shape).  Raises ValueError unless ``t_grid`` is
    non-empty and evenly spaced.
    """
    t_grid = np.asarray(t_grid, dtype=float).reshape(-1)
    if t_grid.size == 0:
        raise ValueError("t_grid must not be empty")
    even = np.linspace(t_grid[0], t_grid[-1], t_grid.size)
    if np.max(np.abs(t_grid - even)) > 1e-12 * max(1.0, float(np.max(np.abs(t_grid)))):
        raise ValueError("t_grid must be evenly spaced")
    vec0 = np.asarray(vec0, dtype=complex)
    shape, n = vec0.shape, vec0.size

    def from_zero(vec: np.ndarray, stop: float, num: int) -> np.ndarray:
        # The scheme only steps forward from 0: a later start reuses the
        # step count of the interval and loses all accuracy, so shift
        # first; a negative stop runs -L forward.
        sign = -1.0 if stop < 0 else 1.0
        gen = scipy.sparse.linalg.LinearOperator(
            (n, n),
            matvec=lambda v: (-1j * sign / hbar) * apply(v.reshape(shape)).reshape(v.shape),
            rmatvec=lambda v: (1j * sign / hbar) * adjoint(v.reshape(shape)).reshape(v.shape),
            dtype=complex,
        )
        return scipy.sparse.linalg.expm_multiply(
            gen, vec, start=0.0, stop=abs(stop), num=num, endpoint=True,
            traceA=(-1j * sign / hbar) * trace,
        )

    caller_state = np.random.get_state()
    try:
        np.random.seed(0)
        vec0 = vec0.reshape(-1)
        if t_grid[0] != 0.0:
            vec0 = from_zero(vec0, t_grid[0], 2)[-1]
        # expm_multiply needs two samples; a single time is the end of [t, t]
        out = from_zero(vec0, t_grid[-1] - t_grid[0], max(t_grid.size, 2))
    finally:
        np.random.set_state(caller_state)
    return out[-t_grid.size:].reshape(-1, *shape)


def evolve_ordered(
    family: Callable[[float], np.ndarray],
    rho0: np.ndarray,
    config: EvolutionConfig,
) -> np.ndarray:
    """Time-ordered evolution by a midpoint-exponential product (order 2).

    ``family(t)`` returns the dense generator (energy units) at time t.
    With method RK4 the vectorized equation is integrated classically
    instead of exponentiated per substep.
    """
    shape = np.asarray(rho0).shape
    vec = np.asarray(rho0, dtype=complex).reshape(-1)
    dt = (config.t1 - config.t0) / config.n_steps
    if config.method is EvolveMethod.RK4:
        def rhs(t, v):
            return -1j * (family(t) @ v) / config.hbar

        t = config.t0
        for _ in range(config.n_steps):
            k1 = rhs(t, vec)
            k2 = rhs(t + dt / 2, vec + dt / 2 * k1)
            k3 = rhs(t + dt / 2, vec + dt / 2 * k2)
            k4 = rhs(t + dt, vec + dt * k3)
            vec = vec + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            t += dt
        return vec.reshape(shape)
    for j in range(config.n_steps):
        t_mid = config.t0 + (j + 0.5) * dt
        vec = _expi(family(t_mid), -1j * dt / config.hbar) @ vec
    return vec.reshape(shape)


def evolve_interaction_picture(
    liouville0,
    perturbation: Union[np.ndarray, Callable[[float], np.ndarray]],
    rho0: np.ndarray,
    config: EvolutionConfig,
    order: int | None = None,
) -> np.ndarray:
    """Evolution with L = L0 + L' in the Liouville-space interaction picture.

    L0 is exponentiated exactly; the rotated-frame generator
    L'_I(tau) = U0(tau)^-1 L'(tau) U0(tau) is integrated by the ordered
    product (order=None), or the time-ordered exponential is truncated at
    first order in L' (order=1), which is the starting point of
    perturbation theory.
    """
    ev = ExactEvolver(liouville0)
    if ev.hbar != config.hbar:
        raise ValueError("config.hbar must match the operator's hbar")
    pert = perturbation if callable(perturbation) else (lambda _t, _m=perturbation: _m)

    def family_rotated(tau: float) -> np.ndarray:
        return ev.matrix(config.t0 - tau) @ pert(tau) @ ev.matrix(tau - config.t0)

    vec0 = np.asarray(rho0, dtype=complex).reshape(-1)
    if order is None:
        rho_i = evolve_ordered(family_rotated, rho0, config)
        vec_i = rho_i.reshape(-1)
    elif order == 1:
        dt = (config.t1 - config.t0) / config.n_steps
        first = np.zeros((vec0.size, vec0.size), dtype=complex)
        for j in range(config.n_steps):
            first += family_rotated(config.t0 + (j + 0.5) * dt)
        vec_i = vec0 - (1j * dt / ev.hbar) * (first @ vec0)
    else:
        raise ValueError("order must be None or 1")
    return (ev.matrix(config.t1 - config.t0) @ vec_i).reshape(rho0.shape)


def boundary_mass(values: np.ndarray) -> float:
    """Largest |rho| on the outermost grid ring, relative to the peak."""
    peak = max(float(np.max(np.abs(values))), 1e-300)
    edge = max(
        float(np.max(np.abs(values[0, :]))),
        float(np.max(np.abs(values[-1, :]))),
        float(np.max(np.abs(values[:, 0]))),
        float(np.max(np.abs(values[:, -1]))),
    )
    return edge / peak


def evolve_trotter(
    v: PolynomialPotential,
    grid: SuperGrid,
    kind: SuperPotentialKind,
    rho0: SuperDensity,
    config: EvolutionConfig,
    *,
    observe: Callable[[int, SuperDensity], None] | None = None,
) -> SuperDensity:
    """Split-step evolution alternating exact kinetic and potential phases.

    Each substep composes one discretized factor of the superpropagator
    path integral: the kinetic factor is diagonal in the 2-d Fourier dual
    of (Q, q), the potential + E factor is diagonal in (Q, q).  Lie
    splitting is first order, Strang second order.

    ``observe(k, state)``, if given, is called after every step k =
    1..n_steps with the state at t0 + k dt, bit-identical to the result of
    a separate k-step call with the same dt; it must not modify the state.
    Generator and phases are built once per call: one call covers a run.
    """
    if config.method not in (EvolveMethod.TROTTER_LIE, EvolveMethod.TROTTER_STRANG):
        raise ValueError("config.method must be a Trotter variant")
    if boundary_mass(rho0.values) > BOUNDARY_MASS_TOL:
        warnings.warn(
            "initial density is not negligible at the grid boundary; "
            "periodic truncation artifacts are expected",
            stacklevel=2,
        )
    op = build_grid_liouvillian(v, grid, kind, mass=config.mass, hbar=config.hbar)
    dt = (config.t1 - config.t0) / config.n_steps
    kin_phase = np.exp(-1j * dt * (op.kinetic_diag / config.hbar))
    pot_gen = (op.potential_diag + op.e_diag) / config.hbar
    lie = config.method is EvolveMethod.TROTTER_LIE
    if lie:
        pot_phase = np.exp(-1j * dt * pot_gen)
    else:
        half = np.exp(-0.5j * dt * pot_gen)
    rho = rho0.values.copy()
    for k in range(1, config.n_steps + 1):
        if lie:
            rho = np.fft.ifft2(kin_phase * np.fft.fft2(pot_phase * rho))
        else:
            rho = half * np.fft.ifft2(kin_phase * np.fft.fft2(half * rho))
        if observe is not None:
            observe(k, SuperDensity(grid, rho))
    return SuperDensity(grid, rho)


@dataclass
class CharacteristicsEnsemble:
    """Weighted phase-space samples following Hamilton's equations."""

    x: np.ndarray
    p: np.ndarray
    weights: np.ndarray
    rng_seed: int = 0

    def __post_init__(self) -> None:
        self.x = np.asarray(self.x, dtype=float)
        self.p = np.asarray(self.p, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        if not (self.x.shape == self.p.shape == self.weights.shape):
            raise ValueError("x, p, weights must share a shape")
        if abs(self.weights.sum() - 1.0) > 1e-9:
            raise ValueError("weights must sum to 1")

    def moments(self) -> tuple[float, float, float]:
        """Weighted (<x>, <p>, <x^2>)."""
        w = self.weights
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
    sampler: str = "sobol",
) -> CharacteristicsEnsemble:
    """Gaussian ensemble; 'sobol' (scrambled, n rounded up to a power of 2)
    gives far lower moment noise than 'pseudo' at equal sample count."""
    if sampler == "sobol":
        from scipy.stats import norm, qmc

        m = int(np.ceil(np.log2(max(n, 2))))
        eng = qmc.Sobol(d=2, scramble=True, seed=seed)
        u = eng.random_base2(m)
        z = norm.ppf(u * (1 - 1e-12) + 0.5e-12)
    elif sampler == "pseudo":
        rng = np.random.Generator(np.random.Philox(seed))
        z = rng.standard_normal((n, 2))
    else:
        raise ValueError(f"unknown sampler {sampler!r}")
    x = x0 + sigma_x * z[:, 0]
    p = p0 + sigma_p * z[:, 1]
    w = np.full(x.shape, 1.0 / x.size)
    return CharacteristicsEnsemble(x=x, p=p, weights=w, rng_seed=seed)


def evolve_characteristics(
    v: PolynomialPotential,
    ensemble: CharacteristicsEnsemble,
    t: float,
    dt: float | None = None,
    mass: float = 1.0,
    drift_tol: float = 1e-6,
) -> CharacteristicsEnsemble:
    """Leapfrog (velocity Verlet) transport of every sample for time t.

    Raises EnergyDriftExceeded when the worst per-sample energy drift
    rate exceeds drift_tol per unit time (relative to the energy scale).
    """
    if t == 0.0:
        return ensemble
    if dt is None:
        dt = min(0.01, t / 100.0)
    n_steps = max(1, int(round(t / dt)))
    dt = t / n_steps
    x = ensemble.x.copy()
    p = ensemble.p.copy()
    e0 = p**2 / (2 * mass) + v.value(x)
    force = -v.derivative_value(x)
    for _ in range(n_steps):
        p_half = p + 0.5 * dt * force
        x = x + dt * p_half / mass
        force = -v.derivative_value(x)
        p = p_half + 0.5 * dt * force
    e1 = p**2 / (2 * mass) + v.value(x)
    scale = max(1.0, float(np.max(np.abs(e0))))
    drift_rate = float(np.max(np.abs(e1 - e0))) / (scale * abs(t))
    if drift_rate > drift_tol:
        raise EnergyDriftExceeded(
            f"energy drift {drift_rate:.3e} per unit time exceeds {drift_tol:g}; "
            "reduce dt"
        )
    return CharacteristicsEnsemble(
        x=x, p=p, weights=ensemble.weights.copy(), rng_seed=ensemble.rng_seed
    )
