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

Matrix elements E_{ab,cd} over hydrogen-like orbitals are estimated by
importance-sampled Monte Carlo over the six-dimensional (Q, q) domain;
a mixture proposal oversamples the |Q + q| -> 0 shell where the Coulomb
superoperator is singular, keeping the estimator variance finite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotConverged, NotFactorized, TruncationLeak
from .liouvillian import BasisLiouvillian, build_basis_liouvillian
from .evolution import evolve_commutator, evolve_uniform_grid
from .potential import coulomb_e_of_radii

ATOM_G, ATOM_E = 0, 1


@dataclass(frozen=True)
class JCParams:
    """Model parameters; omega_g == 0, omega_e is the transition frequency."""

    omega_e: float
    omega: float
    d_eg: float
    n_max: int
    eps_egeg: complex = 0.0
    hbar: float = 1.0

    def __post_init__(self) -> None:
        if self.n_max < 1:
            raise ValueError("n_max must be >= 1")

    @property
    def fock_dim(self) -> int:
        return self.n_max + 1

    @property
    def dim(self) -> int:
        return 2 * self.fock_dim

    @property
    def hermitian(self) -> bool:
        """Real eps_egeg: see ``jc_element_table``."""
        return self.eps_egeg.imag == 0.0


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


def jc_element_table(p: JCParams) -> np.ndarray:
    """E_{ab,cd} on the atom indices, as an array indexed [a, b, c, d].

    (E rho)_{ab|nn'} = sum_{cd} E_{ab,cd} rho_{cd|nn'}; the Fock factor is
    the identity.  The enforced relation E_{ge,ge} = -conj(E_{eg,eg}) only
    keeps rho Hermitian.  The Hermitian part of E-hat is
    Re(eps_egeg) [P_e (x) 1, .], a shift of omega_e; the rest,
    i Im(eps_egeg) on both coherence blocks, is anti-Hermitian.  So the
    generator is Hermitian only for real eps_egeg (``JCParams.hermitian``).
    No element acts on the populations, so the trace is kept.  Im eps_egeg < 0
    damps the eg coherence as exp(Im eps_egeg t / hbar), and
    Im eps_egeg > 0 amplifies it.
    """
    table = np.zeros((2, 2, 2, 2), dtype=complex)
    table[ATOM_E, ATOM_G, ATOM_E, ATOM_G] = p.eps_egeg
    table[ATOM_G, ATOM_E, ATOM_G, ATOM_E] = -np.conj(p.eps_egeg)
    return table


def jc_superoperator_matrix(p: JCParams) -> np.ndarray | None:
    """Vectorized (row-major) matrix of E-hat (see ``jc_element_table``),
    or None when every element vanishes; for audits and spectra."""
    table = jc_element_table(p)
    if not table.any():
        return None
    eye_f = np.eye(p.fock_dim)
    s = np.einsum("abcd,nm,kl->anbkcmdl", table, eye_f, eye_f)
    return s.reshape(p.dim**2, p.dim**2)


def jc_liouvillian(p: JCParams) -> BasisLiouvillian:
    return build_basis_liouvillian(
        build_jc_hamiltonian(p), s_add=jc_superoperator_matrix(p), hbar=p.hbar
    )


def evolve_jc(p: JCParams, rho0: np.ndarray, t_grid) -> np.ndarray:
    """rho(t) under i hbar d/dt rho = [H_JC, rho] + E-hat rho at every t of
    t_grid, shape (len(t_grid), dim, dim), from dim x dim pieces only.

    For ``p.hermitian`` E-hat is Re(eps_egeg) [P_e (x) 1, .]: the commutator
    with H_JC at omega_e + Re(eps_egeg), by ``evolve_commutator``.  Otherwise
    ``evolve_uniform_grid`` steps the action, E-hat acting on the atom
    indices only, and t_grid must be evenly spaced (ValueError otherwise).
    """
    h = build_jc_hamiltonian(p)
    f = p.fock_dim
    if p.hermitian:
        shift = p.eps_egeg.real * np.kron(np.diag([0.0, 1.0]), np.eye(f))
        return evolve_commutator(h + shift, rho0, t_grid, p.hbar)
    table = jc_element_table(p)

    def action(elements: np.ndarray):
        return lambda rho: h @ rho - rho @ h + np.einsum(
            "abcd,cndm->anbm", elements, rho.reshape(2, f, 2, f)
        ).reshape(rho.shape)

    adjoint = table.conj().transpose(2, 3, 0, 1)
    trace = f**2 * np.einsum("abab->", table)  # the commutator is traceless
    return evolve_uniform_grid(action(table), action(adjoint), trace, rho0, t_grid, p.hbar)


def atom_field_factors(rho: np.ndarray, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Partial traces (atom 2x2, field FxF) of a density on atom (x) Fock."""
    f = n_max + 1
    blocks = rho.reshape(2, f, 2, f)
    rho_atom = np.einsum("anbn->ab", blocks)
    rho_field = np.einsum("anam->nm", blocks)
    return rho_atom, rho_field


def jc_evolve_first_order(p: JCParams, rho0: np.ndarray, t: float) -> np.ndarray:
    """Short-time first order in the dipole coupling and the superoperator.

    rho_{eg|nn'}(t) = exp(-i t [w_e + w (n - n')]) * (
        [1 - i t E_{eg,eg}] rho_eg rho^f_{nn'}
        + d_eg t [ sqrt(n+1) rho_gg rho^f_{n+1,n'} - sqrt(n') rho_ee rho^f_{n,n'-1} ] )

    for a factorized initial state rho_atom (x) rho_field; the ge block is
    fixed by hermiticity and the diagonal atom blocks carry free phases
    only at this order.  That last step needs rho_atom[e, g] = 0 whenever
    d_eg != 0: the dipole moves the diagonal blocks of an atom coherence at
    first order, so such a state raises ValueError (|rho_atom[e, g]| above
    1e-10 max|rho0|).  With d_eg = 0 any atom state is allowed.
    """
    if t < 0:
        raise ValueError("t must be non-negative")
    f = p.fock_dim
    rho_atom, rho_field = atom_field_factors(rho0, p.n_max)
    scale = max(float(np.max(np.abs(rho0))), 1e-300)
    if np.max(np.abs(rho0 - np.kron(rho_atom, rho_field))) > 1e-10 * scale:
        raise NotFactorized("initial state is not atom (x) field to 1e-10")
    if p.d_eg != 0 and abs(rho_atom[ATOM_E, ATOM_G]) > 1e-10 * scale:
        raise ValueError(
            "with d_eg != 0 the formula is first-order exact only for an atom "
            "without eg coherence"
        )

    n = np.arange(f)
    phase_diag = np.exp(-1j * p.omega * np.subtract.outer(n, n) * t)
    phase_eg = np.exp(-1j * (p.omega_e + p.omega * np.subtract.outer(n, n)) * t)

    rho_f_up = np.zeros((f, f), dtype=complex)  # rho^f_{n+1, n'}
    rho_f_up[:-1, :] = rho_field[1:, :]
    rho_f_down = np.zeros((f, f), dtype=complex)  # rho^f_{n, n'-1}
    rho_f_down[:, 1:] = rho_field[:, :-1]
    sq_up = np.sqrt(n + 1.0)[:, None]
    sq_dn = np.sqrt(n)[None, :]

    eg = phase_eg * (
        (1.0 - 1j * t * complex(p.eps_egeg)) * rho_atom[ATOM_E, ATOM_G] * rho_field
        + p.d_eg
        * t
        * (
            sq_up * rho_atom[ATOM_G, ATOM_G].real * rho_f_up
            - sq_dn * rho_atom[ATOM_E, ATOM_E].real * rho_f_down
        )
    )
    out = np.zeros((p.dim, p.dim), dtype=complex)
    out_blocks = out.reshape(2, f, 2, f)
    out_blocks[ATOM_E, :, ATOM_G, :] = eg
    out_blocks[ATOM_G, :, ATOM_E, :] = eg.conj().T
    out_blocks[ATOM_G, :, ATOM_G, :] = (
        phase_diag * rho_atom[ATOM_G, ATOM_G] * rho_field
    )
    out_blocks[ATOM_E, :, ATOM_E, :] = (
        phase_diag * rho_atom[ATOM_E, ATOM_E] * rho_field
    )
    return out


def excited_population(rho: np.ndarray, n_max: int) -> float:
    f = n_max + 1
    return float(np.trace(rho.reshape(2, f, 2, f)[ATOM_E, :, ATOM_E, :]).real)


def check_fock_truncation(
    rho: np.ndarray, n_max: int, threshold: float = 1e-6, levels: int = 2
) -> None:
    """Abort when population reaches the top `levels` Fock levels."""
    f = n_max + 1
    blocks = rho.reshape(2, f, 2, f)
    pop = sum(
        float(blocks[a, nn, a, nn].real)
        for a in (ATOM_G, ATOM_E)
        for nn in range(max(0, f - levels), f)
    )
    if pop > threshold:
        raise TruncationLeak(
            f"population {pop:.3e} in the top {levels} Fock levels exceeds "
            f"{threshold:g}; increase n_max"
        )


def coherent_field_density(alpha: complex, n_max: int) -> np.ndarray:
    """|alpha><alpha| truncated to n_max and renormalized."""
    n = np.arange(n_max + 1)
    log_fact = np.cumsum(np.log(np.maximum(n, 1)))
    amp = np.exp(-0.5 * abs(alpha) ** 2 + n * np.log(complex(alpha)) - 0.5 * log_fact) \
        if alpha != 0 else np.eye(n_max + 1)[0].astype(complex)
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


def hydrogen_psi(state: HydrogenState, xyz: np.ndarray) -> np.ndarray:
    """psi_nlm evaluated at Cartesian points of shape (..., 3)."""
    xyz = np.asarray(xyz, dtype=float)
    r = np.linalg.norm(xyz, axis=-1)
    r = np.maximum(r, 1e-300)
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


def _gamma3_density(pts: np.ndarray, rate: float) -> np.ndarray:
    """3-d density of the shape-3 radial sampler: rate^3 exp(-rate r)/(8 pi)."""
    r = np.linalg.norm(pts, axis=-1)
    return rate**3 * np.exp(-rate * r) / (8.0 * np.pi)


def _exp_shell_density(pts: np.ndarray, rate: float) -> np.ndarray:
    """3-d density of the shape-1 radial sampler: rate exp(-rate r)/(4 pi r^2)."""
    r = np.maximum(np.linalg.norm(pts, axis=-1), 1e-300)
    return rate * np.exp(-rate * r) / (4.0 * np.pi * r**2)


SINGULAR_MIX = 0.4


def _mixture_density(
    q_pts: np.ndarray, k_pts: np.ndarray, rate_q: float, rate_k: float, rate_uv: float
) -> np.ndarray:
    ga = _gamma3_density(q_pts, rate_q) * _gamma3_density(k_pts, rate_k)
    u = q_pts + k_pts
    w = q_pts - k_pts
    # (u, v) -> (Q, q) carries Jacobian 8
    gb = 8.0 * _exp_shell_density(u, rate_uv) * _gamma3_density(w, rate_uv)
    return (1.0 - SINGULAR_MIX) * ga + SINGULAR_MIX * gb


def coulomb_superop_element(
    a: HydrogenState,
    b: HydrogenState,
    c: HydrogenState,
    d: HydrogenState,
    e2: float = 1.0,
    mc_samples: int = 10**5,
    seed: int = 0,
    eps_reg: float = 1e-6,
    tol: float | None = None,
    n_blocks: int = 16,
) -> MCResult:
    """Monte Carlo estimate of E_{ab,cd} over hydrogen orbitals.

    E_{ab,cd} = int d3Q d3q psi_a*(Q) psi_b(q) E(Q, q) psi_c(Q) psi_d*(q),
    E(Q, q) = 4 e2 (Q^2 - q^2)/|Q + q|^3 + e2/|Q| - e2/|q|.

    The proposal is a stratified mixture: orbital-matched radial
    exponentials in Q and q, plus a relative-coordinate component whose
    1/r^2 radial law flattens the |Q + q| singularity.  Points inside the
    eps_reg shells contribute zero and are counted in ``n_excluded``.
    Raises NotConverged when ``tol`` is given and the standard error
    stays above it.
    """
    if mc_samples < 10**4:
        raise ValueError("mc_samples must be at least 1e4")
    rate_q = a.radial_rate + c.radial_rate
    rate_k = b.radial_rate + d.radial_rate
    rate_uv = 0.5 * min(rate_q, rate_k)

    children = np.random.SeedSequence(seed).spawn(n_blocks)
    per_block = mc_samples // n_blocks
    block_vals = np.empty(n_blocks, dtype=complex)
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

        r_q = np.linalg.norm(q_pts, axis=-1)
        r_k = np.linalg.norm(k_pts, axis=-1)
        r_sum = np.linalg.norm(q_pts + k_pts, axis=-1)
        ok = (r_q > eps_reg) & (r_k > eps_reg) & (r_sum > eps_reg)
        n_excluded += int(np.sum(~ok))
        e_val = coulomb_e_of_radii(
            e2,
            np.maximum(r_q, eps_reg),
            np.maximum(r_k, eps_reg),
            np.maximum(r_sum, eps_reg),
        )
        f = (
            np.conj(hydrogen_psi(a, q_pts))
            * hydrogen_psi(c, q_pts)
            * hydrogen_psi(b, k_pts)
            * np.conj(hydrogen_psi(d, k_pts))
            * e_val
        )
        f = np.where(ok, f, 0.0)
        weights = f / _mixture_density(q_pts, k_pts, rate_q, rate_k, rate_uv)
        block_vals[blk] = weights.mean()
        sum_sq += float(np.sum(np.abs(weights - weights.mean()) ** 2))
        n_total += per_block
    value = complex(np.mean(block_vals))
    stderr = float(np.sqrt(sum_sq / max(n_total - 1, 1) / n_total))
    if tol is not None and stderr > tol:
        raise NotConverged(
            f"stderr {stderr:.3e} above requested tolerance {tol:g} "
            f"after {n_total} samples"
        )
    return MCResult(value=value, stderr=stderr, n_samples=n_total, n_excluded=n_excluded)
