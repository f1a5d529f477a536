"""Jaynes-Cummings model with the classical Coulomb superoperator.

The two-level-atom / single-cavity-mode Hamiltonian is

    H_JC = omega_e |e><e| + omega (a'a + 1/2) + i d_eg (a |e><g| - |g><e| a'),

with the ground level at zero energy.  The classical evolution differs
from the von Neumann equation by a superoperator acting on the atomic
indices only; in the two-level subspace the model keeps E_{eg,eg} and
E_{ge,ge} = -conj(E_{eg,eg}).  The (ee, gg) pair is left out: E(Q, Q) = 0
gives the trace sum rule sum_a E_{aa,cd} = 0, which the two-level
truncation breaks with E_{ee,gg} alone, so that element would not keep the
trace.

With eps = E_{eg,eg}, E-hat multiplies the eg block of rho by eps and the
ge block by -conj(eps) and leaves the populations, so the trace, alone.
Its Hermitian part is the commutator with Re(eps) P_e (x) 1, a shift of
omega_e; the rest, i Im(eps) on both coherence blocks, is anti-Hermitian:
Im(eps) < 0 damps the eg coherence as exp(Im(eps) t) (hbar = 1), Im(eps) > 0
amplifies it.  ``jc_liouvillian``, the model's one generator, writes it as
CL = QM + E in that split.

H_JC conserves the excitation number N = a'a + |e><e|, and E acts
elementwise on the atomic index, so the generator maps each block of rho
between the sectors {|g,k>, |e,k-1>} (k = 0..n_max+1, each of size 1 or 2)
into itself (Jaynes & Cummings, Proc. IEEE 51, 89, 1963; Shore & Knight,
J. Mod. Opt. 40, 1195, 1993).  ``jc_series`` evolves the blocks of that
generator as (n_max + 2)^2 independent problems of size at most 4; its
dense form, through ``evolution.ExactEvolver``, is their oracle.

Perturbation theory comes from the same generator: split it as L0 + L1,
L0 the commutator with the free energies (the diagonal of H_JC) and L1
the dipole commutator plus E-hat, and ``jc_evolve_first_order`` returns
exp(-i L0 t) (rho0 - i t L1 rho0), first order in d_eg and eps_egeg for
any initial state.

Matrix elements E_{ab,cd} over hydrogen-like orbitals are estimated by
importance-sampled Monte Carlo over the six-dimensional (Q, q) domain;
a mixture proposal oversamples the |Q + q| -> 0 shell where the Coulomb
superoperator is singular, keeping the estimator variance finite.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import TruncationLeak
from .evolution import output_times
from .liouvillian import BasisLiouvillian
from .potential import COULOMB_EPS_REG, coulomb_e_of_radii

ATOM_G, ATOM_E = 0, 1
# A run aborts once more population than LEAK_THRESHOLD reaches the top
# FOCK_LEAK_LEVELS Fock levels (or, in ``entangle``, the relative mode's top level).
LEAK_THRESHOLD = 1e-6
FOCK_LEAK_LEVELS = 2


def truncation_margin(populations: np.ndarray, t_grid: np.ndarray, label: str) -> float:
    """The worst of a series' per-time top-level ``populations`` at the times
    ``t_grid``: the run's truncation margin.

    Raises TruncationLeak, naming ``label`` and the time, at the first
    population that is not <= ``LEAK_THRESHOLD``, so a NaN fails too.
    """
    bad = ~(populations <= LEAK_THRESHOLD)
    if bad.any():
        j = int(np.argmax(bad))
        raise TruncationLeak(
            f"{label}: the run leaked {populations[j]:.3e} at t={t_grid[j]:g}, "
            f"not <= {LEAK_THRESHOLD:g}"
        )
    return float(np.max(populations))


@dataclass(frozen=True)
class JCParams:
    """Model parameters; omega_g == 0, omega_e is the transition frequency."""

    omega_e: float
    omega: float
    d_eg: float
    n_max: int
    eps_egeg: complex = 0.0

    def __post_init__(self) -> None:
        if self.n_max < FOCK_LEAK_LEVELS:
            # below it the leak guard watches every Fock level, the vacuum too
            raise ValueError(
                f"n_max={self.n_max} must be >= FOCK_LEAK_LEVELS = {FOCK_LEAK_LEVELS}"
            )
        for name in ("omega_e", "omega", "d_eg", "eps_egeg"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise ValueError(f"{name}={value} must be finite")

    @property
    def fock_dim(self) -> int:
        return self.n_max + 1

    @property
    def dim(self) -> int:
        return 2 * self.fock_dim


def fock_annihilation(n_max: int) -> np.ndarray:
    """Real ladder operator a on Fock levels 0..n_max."""
    return np.diag(np.sqrt(np.arange(1, n_max + 1)), k=1)


def build_jc_hamiltonian(p: JCParams) -> np.ndarray:
    f = p.fock_dim
    a = fock_annihilation(p.n_max)
    eye_f = np.eye(f)
    proj_e = np.diag([0.0, 1.0]).astype(complex)
    sig_plus = np.zeros((2, 2), dtype=complex)
    sig_plus[ATOM_E, ATOM_G] = 1.0  # |e><g|
    number = np.diag(np.arange(f, dtype=float))
    h = (
        p.omega_e * np.kron(proj_e, eye_f)
        + p.omega * np.kron(np.eye(2), number + 0.5 * eye_f)
        + 1j
        * p.d_eg
        * (np.kron(sig_plus, a) - np.kron(sig_plus.conj().T, a.conj().T))
    )
    return h


def jc_liouvillian(p: JCParams) -> BasisLiouvillian:
    """The model's generator as CL = QM + E: h = H_JC + Re(eps_egeg) P_e (x) 1
    and E = i Im(eps_egeg) on both coherence blocks, elementwise in the
    product basis, or None for real eps_egeg (a Hermitian generator).  It
    acts as H_JC with E-hat whole, eps_egeg on the eg block and
    -conj(eps_egeg) on the ge block, to rounding."""
    shift = p.eps_egeg.real * np.kron(np.diag([0.0, 1.0]), np.eye(p.fock_dim))
    h = build_jc_hamiltonian(p) + shift
    if p.eps_egeg.imag == 0:
        return BasisLiouvillian(h)
    f = p.fock_dim
    e = np.zeros((2, f, 2, f), dtype=complex)  # 0 on the atom-diagonal blocks
    e[ATOM_E, :, ATOM_G, :] = e[ATOM_G, :, ATOM_E, :] = 1j * p.eps_egeg.imag
    return BasisLiouvillian(h, e.reshape(p.dim, p.dim))


def jc_evolve_first_order(p: JCParams, rho0: np.ndarray, t: float) -> np.ndarray:
    """Short-time first order in the dipole coupling and the superoperator:
    rho(t) = exp(-i L0 t) (rho0 - i t L1 rho0) for any initial state.

    L0 is the commutator with the diagonal of H_JC, the free energies, and
    L1 the generator of the model with omega_e = omega = 0: the dipole
    commutator plus E-hat (``jc_liouvillian``).
    """
    if not 0 <= t < np.inf:
        raise ValueError(f"t={t} must be finite and >= 0")
    energy = np.diagonal(build_jc_hamiltonian(p)).real
    rho1 = jc_liouvillian(replace(p, omega_e=0.0, omega=0.0)).apply(rho0)
    return np.exp(-1j * t * np.subtract.outer(energy, energy)) * (rho0 - 1j * t * rho1)


def _sector_blocks(p: JCParams, rho0: np.ndarray):
    """(valid, h, E, rho0) by excitation-number sector, gathered from
    ``jc_liouvillian``.

    Slot a of sector k holds |g,k> (a = ATOM_G) or |e,k-1> (a = ATOM_E);
    ``valid`` (S, 2), S = n_max + 2, marks the slots that exist (sector 0
    has no |e,-1>, sector n_max + 1 no |g,n_max+1>).  h comes as its
    (S, 2, 2) diagonal blocks, E (None for real eps_egeg) and rho0 as their
    (S, S, 2, 2) blocks between sectors k and l, each zero in the padded
    slots.
    """
    f, k = p.fock_dim, np.arange(p.n_max + 2)
    valid = np.stack([k <= p.n_max, k >= 1], axis=1)
    index = np.where(valid, np.stack([ATOM_G * f + k, ATOM_E * f + k - 1], axis=1), 0)
    keep = valid[:, None, :, None] & valid[None, :, None, :]
    rows, cols = index[:, None, :, None], index[None, :, None, :]

    def gather(m):
        return np.where(keep, np.asarray(m)[rows, cols], 0)

    gen = jc_liouvillian(p)
    e = None if gen.e is None else gather(gen.e)
    return valid, gather(gen.h)[k, k], e, gather(rho0)


def _phase_series(hb: np.ndarray, rb: np.ndarray, weights: np.ndarray, t_grid: np.ndarray):
    """(values, rho_{e0,g0}) of the unitary evolution in closed form,
    without a linear-algebra library call.

    Each Hermitian sector block is h_k = m_k + w_k K_k with K_k^2 = 1
    (K_k = 0 where w_k = 0), so exp(-i t h_k) = e^{-i m_k t} (c - i s K_k)
    with c = cos(w_k t), s = sin(w_k t).  A population of a diagonal block
    is then rho_aa + s^2 (K rho K - rho)_aa + sin(2 w_k t) Im(K rho)_aa, and
    values[t, j] sums them with weights[k, a, j].  Sector 0 is |g,0> alone,
    of energy E_0, so rho_{e0,g0} = e^{i E_0 t} [exp(-i t h_1) r]_e for the
    column r = rho0[sector 1, g0].
    """
    m = 0.5 * (hb[:, 0, 0] + hb[:, 1, 1]).real
    w = np.hypot(0.5 * (hb[:, 0, 0] - hb[:, 1, 1]).real, np.abs(hb[:, 0, 1]))
    # a subnormal w overflows the division and turns no phase: count it as 0
    w[w < np.finfo(float).tiny] = 0.0
    kk = (hb - m[:, None, None] * np.eye(2)) / np.where(w > 0, w, 1.0)[:, None, None]
    kk[w == 0] = 0.0
    diag = rb[np.arange(len(rb)), np.arange(len(rb))]
    pops = np.einsum("kaa->ka", diag).real
    k_rho = kk @ diag
    sq = np.einsum("kaa->ka", k_rho @ kk).real - pops
    cross = np.einsum("kaa->ka", k_rho).imag
    # two (T, S) arrays: the angles turn into cos, then into 2 sin cos
    angle = np.outer(t_grid, w)
    sin = np.sin(angle)
    sin_cos = np.cos(angle, out=angle)
    cos1, sin1 = sin_cos[:, 1].copy(), sin[:, 1].copy()  # sector 1, for rho_{e0,g0}
    sin_cos *= sin
    sin_cos *= 2  # the bits of (2 sin) cos: doubling is exact
    sin *= sin
    # full-length products: row blocks of them can round differently
    values = np.einsum("ka,kaj->j", pops, weights) + sin @ np.einsum(
        "ka,kaj->kj", sq, weights
    ) + sin_cos @ np.einsum("ka,kaj->kj", cross, weights)
    r = rb[1, 0, :, ATOM_G]
    coherence = np.exp(-1j * (m[1] - hb[0, ATOM_G, ATOM_G].real) * t_grid) * (
        cos1 * r[ATOM_E] - 1j * sin1 * (kk[1] @ r)[ATOM_E]
    )
    return values, coherence


# Taylor degree and 1-norm bound of the scaled blocks in ``_expm_stack``:
# the remainder 0.25^13 / 13! = 2.4e-18 lies below the double precision
# unit roundoff.
EXPM_TAYLOR_DEGREE = 12
EXPM_NORM_BOUND = 0.25


def _expm_stack(a: np.ndarray) -> np.ndarray:
    """exp of each matrix of the (K, m, m) stack a, by scaling and squaring:
    the Taylor polynomial of a / 2^s, with s the least power that brings
    the largest 1-norm of the stack to ``EXPM_NORM_BOUND`` or below,
    squared s times."""
    norm = float(np.max(np.abs(a).sum(axis=-2)))
    s = int(np.ceil(np.log2(norm / EXPM_NORM_BOUND))) if norm > EXPM_NORM_BOUND else 0
    a = a / 2.0**s
    eye = np.eye(a.shape[-1])
    out = eye + a / EXPM_TAYLOR_DEGREE
    for j in range(EXPM_TAYLOR_DEGREE - 1, 0, -1):  # Horner
        out = eye + (a @ out) / j
    for _ in range(s):
        out = out @ out
    return out


def _sector_powers(hb: np.ndarray, eb, rb: np.ndarray, dt: float, steps: int):
    """Yield the (S, S, 2, 2) blocks of rho(j dt) for j = 0..steps; ``eb``
    may be None.

    Block (k, l) follows i d/dt X = h_k X - X h_l + E_kl o X, a 4 x 4
    generator on the row-major vec X.  One batched expm of all of them at
    dt advances every block by powers.  The yielded array is overwritten
    two steps later.
    """
    n, eye = len(hb), np.eye(2)
    # vec(h_k X) = kron(h_k, 1) vec X and vec(X h_l) = kron(1, h_l^T) vec X
    gen = (
        np.einsum("kia,jb->kijab", hb, eye)[:, None]
        - np.einsum("ia,lbj->lijab", eye, hb)[None, :]
    ).reshape(n * n, 4, 4)
    if eb is not None:
        gen[:, np.arange(4), np.arange(4)] += eb.reshape(n * n, 4)
    x = rb.reshape(n * n, 4, 1).astype(complex)
    step = _expm_stack(-1j * dt * gen)
    spare = np.empty_like(x)
    for j in range(steps + 1):
        if j:
            x, spare = np.matmul(step, x, out=spare), x
        yield x.reshape(n, n, 2, 2)


def jc_series(
    p: JCParams, rho0: np.ndarray, t_end: float, steps: int
) -> tuple[dict[str, np.ndarray], str, dict[str, float]]:
    """Evolve rho0 over ``evolution.output_times(t_end, steps)``; return
    (columns, solver_path, margins).

    ``columns`` holds the series t, P_e, abs_rho_eg00, trace and purity, one
    entry per time, read off the sector blocks (see the module docstring)
    without forming a state: P_e, the trace and the top-Fock population are
    sums of diagonal-block populations, and rho_{e0,g0} is one element of
    block (1, 0); the purity is the sum of the squared block norms.
    ``solver_path`` names the route.  Real eps_egeg takes "sector_phases":
    each sector rotates in closed form, and the purity stays that of rho0,
    exact for that unitary evolution.  Complex eps_egeg takes
    "sector_powers", powers of one batched expm of the block generators at
    the step t_end / steps.  ``output_times`` raises ValueError unless t_end
    is finite and > 0 and steps >= 1.  ``margins`` holds the worst top-Fock
    population (``max_fock_leak``), |trace - 1| (``max_trace_drift``) and
    purity (``max_purity``) over the output times.

    Raises TruncationLeak (``truncation_margin``) if the top
    ``FOCK_LEAK_LEVELS`` Fock levels hold more than ``LEAK_THRESHOLD``, or a
    NaN, at any output time, t = 0 included; "sector_powers" stops there.
    """
    t_grid = output_times(t_end, steps)
    valid, hb, eb, rb = _sector_blocks(p, rho0)
    fock = np.arange(p.n_max + 2)[:, None] - np.arange(2)  # of each slot: k, k - 1
    # per slot, the weights of P_e, the trace and the top-Fock population
    weights = np.stack(
        [valid & (np.arange(2) == ATOM_E), valid, valid & (fock >= p.fock_dim - FOCK_LEAK_LEVELS)],
        axis=-1,
    ).astype(float)
    label = f"population in the top {FOCK_LEAK_LEVELS} Fock levels"
    if eb is None:
        path = "sector_phases"
        values, coherence = _phase_series(hb, rb, weights, t_grid)
        purity = np.full(t_grid.size, np.vdot(rb, rb).real)
    else:
        path, n, flat = "sector_powers", t_grid.size, weights.reshape(-1, 3)
        pops, coherence, purity = np.empty((n, *valid.shape)), np.empty(n, complex), np.empty(n)
        for j, blocks in enumerate(_sector_powers(hb, eb, rb, t_end / steps, steps)):
            pops[j] = np.einsum("kkaa->ka", blocks).real
            # stop at the first leak instead of powering NaN blocks to the end
            truncation_margin(pops[j : j + 1].reshape(1, -1) @ flat[:, 2], t_grid[j : j + 1], label)
            coherence[j] = blocks[1, 0, ATOM_E, ATOM_G]
            purity[j] = np.vdot(blocks, blocks).real
        values = pops.reshape(n, -1) @ flat
    columns = {
        "t": t_grid,
        "P_e": values[:, 0],
        "abs_rho_eg00": np.abs(coherence),
        "trace": values[:, 1],
        "purity": purity,
    }
    margins = {
        "max_fock_leak": truncation_margin(values[:, 2], t_grid, label),
        "max_trace_drift": float(np.max(np.abs(values[:, 1] - 1.0))),
        "max_purity": float(np.max(purity)),
    }
    return columns, path, margins


def coherent_field_density(alpha: complex, n_max: int) -> np.ndarray:
    """|alpha><alpha| truncated to n_max and renormalized.

    The amplitudes alpha^n / sqrt(n!) are formed as logarithms and scaled
    by the largest before exponentiating, so no |alpha| overflows them or
    underflows all of them; alpha = 0 gives the vacuum exactly.
    """
    if not np.isfinite(alpha):
        raise ValueError(f"alpha={alpha} must be finite")
    n = np.arange(n_max + 1)
    if alpha == 0:
        amp = (n == 0).astype(complex)
    else:
        log_amp = n * np.log(complex(alpha)) - 0.5 * np.cumsum(np.log(np.maximum(n, 1)))
        amp = np.exp(log_amp - np.max(log_amp.real))
    psi = amp / np.linalg.norm(amp)
    return np.outer(psi, psi.conj())


def initial_jc_state(spec: str, n_max: int) -> np.ndarray:
    """Parse "e0", "g1", "coherent:alpha" into a factorized density matrix."""
    f = n_max + 1
    atom = np.zeros((2, 2), dtype=complex)
    if spec.startswith("coherent:"):
        alpha = complex(spec.split(":", 1)[1])
        atom[ATOM_G, ATOM_G] = 1.0
        return np.kron(atom, coherent_field_density(alpha, n_max))
    if len(spec) < 2 or spec[0] not in "eg":
        raise ValueError(f"unknown initial state {spec!r}")
    atom_idx = ATOM_E if spec[0] == "e" else ATOM_G
    n_photon = int(spec[1:])
    if not 0 <= n_photon <= n_max:
        raise ValueError("photon number outside the truncated space")
    atom[atom_idx, atom_idx] = 1.0
    fld = np.zeros((f, f), dtype=complex)
    fld[n_photon, n_photon] = 1.0
    return np.kron(atom, fld)


# ---------------------------------------------------------------------------
# Hydrogen-like orbitals (desk-scale bundle, n <= 3) and MC matrix elements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HydrogenState:
    """Quantum numbers of a bundled hydrogen orbital (a0 = 1)."""

    n: int
    l: int
    m: int

    def __post_init__(self) -> None:
        if not 1 <= self.n <= 3:
            raise ValueError("bundled orbitals cover n = 1..3")
        if not 0 <= self.l < self.n:
            raise ValueError("need 0 <= l < n")
        if abs(self.m) > self.l:
            raise ValueError("need |m| <= l")

    @property
    def parity(self) -> int:
        return -1 if self.l % 2 else 1

    @property
    def radial_rate(self) -> float:
        """Exponential decay rate of R_nl, i.e. 1/n."""
        return 1.0 / self.n


_S1, _S2, _S3 = 1.0, 1.0 / np.sqrt(2.0), 1.0 / np.sqrt(3.0)


def _radial(n: int, l: int, r: np.ndarray) -> np.ndarray:
    if (n, l) == (1, 0):
        return 2.0 * np.exp(-r)
    if (n, l) == (2, 0):
        return (1.0 / (2.0 * np.sqrt(2.0))) * (2.0 - r) * np.exp(-r / 2.0)
    if (n, l) == (2, 1):
        return (1.0 / (2.0 * np.sqrt(6.0))) * r * np.exp(-r / 2.0)
    if (n, l) == (3, 0):
        return (2.0 / (81.0 * np.sqrt(3.0))) * (27.0 - 18.0 * r + 2.0 * r**2) * np.exp(
            -r / 3.0
        )
    if (n, l) == (3, 1):
        return (8.0 / (27.0 * np.sqrt(6.0))) * r * (1.0 - r / 6.0) * np.exp(-r / 3.0)
    if (n, l) == (3, 2):
        return (4.0 / (81.0 * np.sqrt(30.0))) * r**2 * np.exp(-r / 3.0)
    raise ValueError(f"no bundled radial function for (n, l) = ({n}, {l})")


def _sph_harm(l: int, m: int, xyz: np.ndarray, r: np.ndarray) -> np.ndarray:
    x, y, z = xyz[..., 0], xyz[..., 1], xyz[..., 2]
    if l == 0:
        return np.full(r.shape, 0.5 / np.sqrt(np.pi), dtype=complex)
    if l == 1:
        if m == 0:
            return np.sqrt(3.0 / (4 * np.pi)) * z / r + 0j
        sign = -1.0 if m == 1 else 1.0
        return sign * np.sqrt(3.0 / (8 * np.pi)) * (x + 1j * m * y) / r
    if l == 2:
        if m == 0:
            return np.sqrt(5.0 / (16 * np.pi)) * (3 * z**2 - r**2) / r**2 + 0j
        if abs(m) == 1:
            sign = -1.0 if m == 1 else 1.0
            return sign * np.sqrt(15.0 / (8 * np.pi)) * z * (x + 1j * m * y) / r**2
        return np.sqrt(15.0 / (32 * np.pi)) * ((x + 1j * np.sign(m) * y) ** 2) / r**2
    raise ValueError("bundled spherical harmonics cover l <= 2")


def hydrogen_psi(state: HydrogenState, xyz: np.ndarray, r=None) -> np.ndarray:
    """psi_nlm at Cartesian points of shape (..., 3), of radius ``r`` if given."""
    xyz = np.asarray(xyz, dtype=float)
    r = np.maximum(np.linalg.norm(xyz, axis=-1) if r is None else r, 1e-300)
    return _radial(state.n, state.l, r) * _sph_harm(state.l, state.m, xyz, r)


@dataclass
class MCResult:
    value: complex
    stderr: float
    n_samples: int
    n_excluded: int


def _sample_radial_exponential(rng, n: int, rate: float, shape_k: int) -> np.ndarray:
    """Isotropic 3-d points with radius ~ Gamma(shape_k, rate)."""
    r = rng.gamma(shape_k, 1.0 / rate, size=n)
    z = rng.uniform(-1.0, 1.0, size=n)
    phi = rng.uniform(0.0, 2.0 * np.pi, size=n)
    s = np.sqrt(1.0 - z**2)
    return r[:, None] * np.stack([s * np.cos(phi), s * np.sin(phi), z], axis=-1)


def _gamma3_density(r: np.ndarray, rate: float) -> np.ndarray:
    """3-d density of the shape-3 radial draws at radius r: rate^3 exp(-rate r)/(8 pi)."""
    return rate**3 * np.exp(-rate * r) / (8.0 * np.pi)


def _exp_shell_density(r: np.ndarray, rate: float) -> np.ndarray:
    """3-d density of the shape-1 radial draws at radius r: rate exp(-rate r)/(4 pi r^2)."""
    r = np.maximum(r, 1e-300)
    return rate * np.exp(-rate * r) / (4.0 * np.pi * r**2)


SINGULAR_MIX = 0.4
# Independently seeded sample blocks of one Monte Carlo estimate.
MC_BLOCKS = 16


def _mixture_density(r_q, r_k, r_sum, r_diff, rate_q, rate_k, rate_uv) -> np.ndarray:
    """Proposal density at the radii |Q|, |q|, |Q + q| and |Q - q|."""
    ga = _gamma3_density(r_q, rate_q) * _gamma3_density(r_k, rate_k)
    # (u, v) -> (Q, q) carries Jacobian 8
    gb = 8.0 * _exp_shell_density(r_sum, rate_uv) * _gamma3_density(r_diff, rate_uv)
    return (1.0 - SINGULAR_MIX) * ga + SINGULAR_MIX * gb


def coulomb_superop_element(
    a: HydrogenState,
    b: HydrogenState,
    c: HydrogenState,
    d: HydrogenState,
    mc_samples: int = 10**5,
    seed: int = 0,
) -> MCResult:
    """Monte Carlo estimate of E_{ab,cd} over hydrogen orbitals.

    E_{ab,cd} = int d3Q d3q psi_a*(Q) psi_b(q) E(Q, q) psi_c(Q) psi_d*(q),
    E(Q, q) = 4 (Q^2 - q^2)/|Q + q|^3 + 1/|Q| - 1/|q|,

    with e2 = 1, the charge that matches the a0 = 1 orbitals.

    The proposal is a stratified mixture: orbital-matched radial
    exponentials in Q and q, plus a relative-coordinate component whose
    1/r^2 radial law flattens the |Q + q| singularity.  The samples come in
    ``MC_BLOCKS`` independently seeded blocks.  Points inside the
    ``COULOMB_EPS_REG`` shells contribute zero and are counted in
    ``n_excluded``.
    """
    if mc_samples < 10**4:
        raise ValueError("mc_samples must be at least 1e4")
    rate_q = a.radial_rate + c.radial_rate
    rate_k = b.radial_rate + d.radial_rate
    rate_uv = 0.5 * min(rate_q, rate_k)

    children = np.random.SeedSequence(seed).spawn(MC_BLOCKS)
    per_block = mc_samples // MC_BLOCKS
    block_vals = np.empty(MC_BLOCKS, dtype=complex)
    sum_sq = 0.0
    n_total = 0
    n_excluded = 0
    for blk, child in enumerate(children):
        rng = np.random.Generator(np.random.Philox(child))
        n_sing = int(round(SINGULAR_MIX * per_block))
        n_prod = per_block - n_sing
        q_a = _sample_radial_exponential(rng, n_prod, rate_q, 3)
        k_a = _sample_radial_exponential(rng, n_prod, rate_k, 3)
        u = _sample_radial_exponential(rng, n_sing, rate_uv, 1)
        w = _sample_radial_exponential(rng, n_sing, rate_uv, 3)
        q_b = 0.5 * (u + w)
        k_b = 0.5 * (u - w)
        q_pts = np.concatenate([q_a, q_b])
        k_pts = np.concatenate([k_a, k_b])

        # each radius once per block, shared by E, the orbitals and the proposal
        r_q = np.linalg.norm(q_pts, axis=-1)
        r_k = np.linalg.norm(k_pts, axis=-1)
        r_sum = np.linalg.norm(q_pts + k_pts, axis=-1)
        eps = COULOMB_EPS_REG
        ok = (r_q > eps) & (r_k > eps) & (r_sum > eps)
        n_excluded += int(np.sum(~ok))
        e_val = coulomb_e_of_radii(
            1.0, np.maximum(r_q, eps), np.maximum(r_k, eps), np.maximum(r_sum, eps)
        )
        f = (
            np.conj(hydrogen_psi(a, q_pts, r_q))
            * hydrogen_psi(c, q_pts, r_q)
            * hydrogen_psi(b, k_pts, r_k)
            * np.conj(hydrogen_psi(d, k_pts, r_k))
            * e_val
        )
        f = np.where(ok, f, 0.0)
        r_diff = np.linalg.norm(q_pts - k_pts, axis=-1)
        weights = f / _mixture_density(r_q, r_k, r_sum, r_diff, rate_q, rate_k, rate_uv)
        block_vals[blk] = weights.mean()
        sum_sq += float(np.sum(np.abs(weights - weights.mean()) ** 2))
        n_total += per_block
    value = complex(np.mean(block_vals))
    stderr = float(np.sqrt(sum_sq / max(n_total - 1, 1) / n_total))
    return MCResult(value=value, stderr=stderr, n_samples=n_total, n_excluded=n_excluded)
