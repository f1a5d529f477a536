"""Time evolution of density matrices.

Covers the exact exponential exp(-i L t / hbar) for dense superoperators,
the one evolve route of the structured N x N generators
L rho = H rho - rho H + U (E o (U^T rho U)) U^T with real E (one eigh
without E, matrix-free Krylov dense output with it), a classical RK4
integrator for time-dependent generators (an oracle for the exact routes),
split-step Trotter evolution on (Q, q) grids, and the classical
method-of-characteristics ensemble, which serves as the independent
oracle for the grid dynamics.

The grid routes take hbar and the mass from ``EvolutionConfig``.  The
structured generators are in hbar = 1, i d/dt rho = L rho: for another
hbar, pass h / hbar and E / hbar.

scipy is imported only where a route needs it (``ExactEvolver``'s expm of
a non-Hermitian generator, the Sobol ensemble), so importing this module
loads no scipy.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .errors import EnergyDriftExceeded
from .liouvillian import BasisLiouvillian, GridLiouvillian, build_grid_liouvillian
from .potential import PolynomialPotential, SuperPotentialKind
from .superspace import SuperDensity, SuperGrid, is_hermitian

BOUNDARY_MASS_TOL = 1e-10
# Largest per-sample energy drift rate of the leapfrog ensemble, per unit
# time and relative to the energy scale.
ENERGY_DRIFT_TOL = 1e-6
# Krylov route of evolve_basis: the largest a-posteriori error estimate of an
# output (2-norm of the vectorised state), the most basis vectors per block,
# and the vectors added between two estimates.  An estimate costs an eigh of
# the block's small matrix, which can cost more than the vectors it saves: on
# a 2-vCPU host, checking after every vector took 12.6 ms against 9.5 ms for
# a square bipartite n_levels 6 CL run.
KRYLOV_TOL = 1e-13
KRYLOV_MAX_DIM = 60
KRYLOV_CHECK_EVERY = 5


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
        if self.t1 <= 0:
            raise ValueError("t1 must be positive")
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")


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

    def propagate(self, rho0: np.ndarray, t: float) -> np.ndarray:
        vec = np.asarray(rho0, dtype=complex).reshape(-1)
        if self._hermitian:
            prop = (self._u * np.exp(-1j * self._w * t / self.hbar)) @ self._u.conj().T
        else:
            from scipy.linalg import expm

            prop = expm(-1j * self._dense * t / self.hbar)
        return (prop @ vec).reshape(rho0.shape)


def solver_path(e) -> str:
    """The route ``evolve_basis`` takes for the E mask ``e``: "eigh" when
    there is none, else the matrix-free "krylov"."""
    return "eigh" if e is None else "krylov"


def basis_action(h: np.ndarray, e=None, basis=None) -> Callable[[np.ndarray], np.ndarray]:
    """rho -> H rho - rho H + U (E o (U^T rho U)) U^T on N x N matrices.

    This is the structured generator (energy units) of ``evolve_basis``,
    and with a complex E that of ``jaynescummings.jc_generator``: ``e`` is
    the N x N mask of E, or None when there is no E, and ``basis`` the real
    orthogonal U in which E acts elementwise, or None for the identity.
    """

    def act(rho: np.ndarray) -> np.ndarray:
        out = h @ rho - rho @ h
        if e is None:
            return out
        if basis is None:
            return out + e * rho
        return out + basis @ (e * (basis.T @ rho @ basis)) @ basis.T

    return act


def _krylov_coefficients(hk: np.ndarray):
    """taus -> rows exp(-i tau H_k) e_1, one per tau, for the k x k
    Lanczos matrix H_k of a Hermitian action: real tridiagonal, so one eigh
    of it serves every tau."""
    # eigh reads the lower triangle: the diagonal and the subdiagonal
    lam, q = np.linalg.eigh(hk.real)
    return lambda taus: (np.exp(np.outer(taus, lam) / 1j) * q[0]) @ q.T


def _krylov_outputs(
    act: Callable[[np.ndarray], np.ndarray],
    v0: np.ndarray,
    t_grid: np.ndarray,
) -> tuple[np.ndarray, dict[str, float]]:
    """(out, margins): out[j] = exp(-i t_j A) v0 for each t_j of t_grid,
    where ``act`` applies the Hermitian A to a vector.

    Krylov dense output (Saad, SIAM J. Numer. Anal. 29, 209, 1992): from the
    state v at time s, beta = |v|, an Arnoldi basis V_k of
    span{v, A v, ..., A^{k-1} v} (two-pass classical Gram-Schmidt) with
    H_k = V_k' A V_k gives
    exp(-i tau A) v ~ beta V_k exp(-i tau H_k) e_1, with the a-posteriori
    error estimate beta h_{k+1,k} |[exp(-i tau H_k) e_1]_k|.
    The basis grows until that estimate at the farthest remaining output,
    checked every ``KRYLOV_CHECK_EVERY`` vectors, is at most ``KRYLOV_TOL``,
    or to ``KRYLOV_MAX_DIM`` vectors, or until it spans the space.  The
    block then writes the leading outputs whose estimates are at most
    ``KRYLOV_TOL`` as one product, and the next block starts from the last
    of them; a block that covers none takes a substep, halving from the
    first output until the estimate passes.  Any grid, start and direction
    of time work.
    ``margins`` holds the worst estimate of the outputs and substeps,
    ``max_krylov_error_estimate``, the number of ``act`` calls,
    ``krylov_generator_calls``, and the largest basis of a block,
    ``krylov_max_basis_dim`` (at most ``KRYLOV_MAX_DIM``).
    """
    n = v0.size
    out = np.zeros((t_grid.size, n), dtype=complex)
    vs = np.empty((min(KRYLOV_MAX_DIM, n), n), dtype=complex)
    hess = np.empty((len(vs) + 1, len(vs)), dtype=complex)
    done = int(t_grid.size > 0 and t_grid[0] == 0.0)  # an output at the start needs no basis
    out[:done] = v0
    start, v, worst, calls, max_dim = 0.0, v0, 0.0, 0, 0
    while done < t_grid.size:
        beta = np.linalg.norm(v)
        if beta == 0.0:  # the zero state stays zero
            break
        taus = t_grid[done:] - start
        far = taus[np.argmax(np.abs(taus))]
        hess[:] = 0.0
        vs[0] = v / beta
        for k in range(1, len(vs) + 1):
            w = act(vs[k - 1])
            calls += 1
            for _ in range(2):
                c = (vs[:k] @ w.conj()).conj()  # conjugate w, not the k x n block
                w -= c @ vs[:k]
                hess[:k, k - 1] += c
            # at k = n the basis spans the space, and the projection is exact
            h_next = hess[k, k - 1] = np.linalg.norm(w) if k < n else 0.0
            if k == len(vs) or k % KRYLOV_CHECK_EVERY == 0 or h_next == 0.0:
                coefficients = _krylov_coefficients(hess[:k, :k])
                if k == len(vs) or beta * h_next * abs(coefficients([far])[0, -1]) <= KRYLOV_TOL:
                    break
            vs[k] = w / h_next
        max_dim = max(max_dim, k)
        rows = coefficients(taus)
        est = beta * h_next * np.abs(rows[:, -1])
        over = np.flatnonzero(est > KRYLOV_TOL)
        q = over[0] if over.size else taus.size
        if q == 0:
            tau = taus[0]
            while est[0] > KRYLOV_TOL:
                tau /= 2
                rows = coefficients([tau])
                est = beta * h_next * np.abs(rows[:, -1])
            v, start, worst = beta * rows[0] @ vs[:k], start + tau, max(worst, est[0])
            continue
        out[done:done + q] = beta * rows[:q] @ vs[:k]
        done += q
        v, start, worst = out[done - 1], t_grid[done - 1], max(worst, est[:q].max())
    return out, {
        "max_krylov_error_estimate": float(worst),
        "krylov_generator_calls": calls,
        "krylov_max_basis_dim": max_dim,
    }


def evolve_basis(
    h: np.ndarray, rho0: np.ndarray, t_grid, e=None, basis=None
) -> tuple[np.ndarray, dict[str, float]]:
    """(states, margins) of i d/dt rho = ``basis_action(h, e, basis)`` rho
    (hbar = 1) for Hermitian N x N h and real E: states[j] = rho(t_j) for
    each t_j of t_grid, shape (len(t_grid), N, N).

    Without E, one eigh h = u diag(w) u' gives
    rho(t) = u (e^{-i w t} o (u' rho0 u) o e^{+i w t}) u'
    and ``margins`` is empty.  With E, sigma = U^T rho U follows
    h' sigma - sigma h' + E o sigma (h' = U^T h U), evolved without forming
    L by Krylov dense output (Saad 1992) to an a-posteriori error estimate of
    at most ``KRYLOV_TOL`` per output, with at most ``KRYLOV_MAX_DIM`` basis
    vectors per block.  A real E makes that action Hermitian, so the small
    exponentials are one eigh per block; a complex E raises ValueError.
    ``margins`` then holds the worst estimate, ``max_krylov_error_estimate``,
    the number of generator calls, ``krylov_generator_calls``, and the
    largest basis of a block, ``krylov_max_basis_dim``.  Either route takes
    any grid.  ``solver_path(e)`` names the route.
    """
    t_grid = np.asarray(t_grid, dtype=float).reshape(-1)
    rho0 = np.asarray(rho0, dtype=complex)
    if solver_path(e) == "eigh":
        w, u = np.linalg.eigh(h)
        # cos + i sin of the real angles: the values of a complex exp, in about
        # half its time
        angle = np.outer(t_grid, -w)
        phases = np.empty(angle.shape, dtype=complex)
        np.cos(angle, out=phases.real)
        np.sin(angle, out=phases.imag)
        # two (len(t_grid), N, N) buffers at a time: long grids stay lean
        states = phases[:, :, None] * (u.conj().T @ rho0 @ u)
        states *= phases.conj()[:, None, :]
        return np.matmul(u @ states, u.conj().T, out=states), {}
    if not np.isreal(e).all():
        raise ValueError("E must be real: a complex E makes the generator non-Hermitian")
    if basis is not None:
        h, rho0 = basis.T @ h @ basis, basis.T @ rho0 @ basis
    act, shape = basis_action(h, e), rho0.shape
    out, margins = _krylov_outputs(
        lambda vec: act(vec.reshape(shape)).reshape(-1), rho0.reshape(-1), t_grid
    )
    states = out.reshape(-1, *shape)
    if basis is not None:
        states = np.matmul(basis @ states, basis.T, out=states)
    return states, margins


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
    observe_every: int = 1,
) -> SuperDensity:
    """Split-step evolution alternating exact kinetic and potential phases.

    Each substep composes one discretized factor of the superpropagator
    path integral: the kinetic factor is diagonal in the 2-d Fourier dual
    of (Q, q), the potential + E factor is diagonal in (Q, q).  Strang
    splitting (half potential, kinetic, half potential) is second order.
    The closing half potential phase of one step and the opening one of
    the next are fused into one full phase, so a step is one forward FFT,
    the kinetic phase, one inverse FFT and the full potential phase; the
    closing half phase is applied only to a state that is handed out.

    ``observe(k, state)``, if given, is called after every step k =
    1..n_steps that is a multiple of ``observe_every``, with the state at
    k dt, bit-identical to the result of a separate k-step call with the
    same dt; it must not modify the state.  Generator and phases are built
    once per call: one call covers a run.  Raises ValueError unless
    ``config.method`` is TROTTER_STRANG and ``observe_every >= 1``.
    """
    if config.method is not EvolveMethod.TROTTER_STRANG:
        raise ValueError("config.method must be TROTTER_STRANG")
    if observe_every < 1:
        raise ValueError("observe_every must be >= 1")
    if boundary_mass(rho0.values) > BOUNDARY_MASS_TOL:
        warnings.warn(
            "initial density is not negligible at the grid boundary; "
            "periodic truncation artifacts are expected",
            stacklevel=2,
        )
    op = build_grid_liouvillian(v, grid, kind, mass=config.mass, hbar=config.hbar)
    dt = config.t1 / config.n_steps
    kin_phase = np.exp(-1j * dt * (op.kinetic_diag / config.hbar))
    half = np.exp(-0.5j * dt * ((op.potential_diag + op.e_diag) / config.hbar))
    full = half * half
    rho = half * rho0.values  # a fresh array: the FFTs below overwrite it
    for k in range(1, config.n_steps + 1):
        if k > 1:
            rho *= full
        # in place one axis at a time: np.fft.ifft2(x, out=x) leaves x wrong
        # (numpy 2.4.6), while each 1-d out= transform is exact
        np.fft.fft(rho, axis=1, out=rho)
        np.fft.fft(rho, axis=0, out=rho)
        rho *= kin_phase
        np.fft.ifft(rho, axis=0, out=rho)
        np.fft.ifft(rho, axis=1, out=rho)
        observed = observe is not None and k % observe_every == 0
        if observed or k == config.n_steps:
            state = SuperDensity(grid, half * rho)
            if observed:
                observe(k, state)
    return state


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
    count."""
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
    dt: float | None = None,
    mass: float = 1.0,
) -> CharacteristicsEnsemble:
    """Leapfrog (velocity Verlet) transport of every sample for time t.

    Raises EnergyDriftExceeded when the worst per-sample energy drift
    rate exceeds ``ENERGY_DRIFT_TOL``.
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
    # force = -V'(x) in place, by the Horner steps of polyval
    neg_dv = [-c for c in v.derivative().coefficients]
    force, kick = np.empty_like(x), np.empty_like(x)
    for step in range(n_steps + 1):
        force.fill(neg_dv[-1])
        for c in neg_dv[-2::-1]:
            force *= x
            force += c
        if step > 0:  # the closing half kick of the step before
            p += np.multiply(force, 0.5 * dt, out=kick)
        if step < n_steps:
            p += np.multiply(force, 0.5 * dt, out=kick)
            x += np.divide(np.multiply(p, dt, out=kick), mass, out=kick)
    e1 = p**2 / (2 * mass) + v.value(x)
    scale = max(1.0, float(np.max(np.abs(e0))))
    drift_rate = float(np.max(np.abs(e1 - e0))) / (scale * abs(t))
    if drift_rate > ENERGY_DRIFT_TOL:
        raise EnergyDriftExceeded(
            f"energy drift {drift_rate:.3e} per unit time exceeds {ENERGY_DRIFT_TOL:g}; "
            "reduce dt"
        )
    return CharacteristicsEnsemble(x=x, p=p)
