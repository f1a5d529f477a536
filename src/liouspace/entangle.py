"""Bipartite evolution under the quartic coupling, CL vs QM side by side.

Both generators share the harmonic basis term.  The quantum kind is the
commutator with the pure-bra polynomial of the bipartite superpotential
(the shared quartic enters the classical form at half the bare coupling,
so the commutator comparator uses the matched normalization); the
classical kind realizes every classified monomial as a left/right
position-operator product,

    c * Q1^i q1^j Q2^k q2^l  ->  c * (X1^i X2^k) rho (X1^j X2^l),

so inter-space cross terms act on one subsystem from the left and the
other from the right simultaneously.  The CL - QM generator difference
is then exactly the operator sum of the non-pure monomials.

The dense generators built here serve audits and spectra; evolution goes
through N x N pieces instead (N = n_levels^2).  The QM kind is the
commutator with one N x N matrix, so one N x N eigendecomposition evolves
it.  For the CL kind, every monomial acts through powers of the *truncated*
position matrix X, and X = V diag(xi) V^T, so each power is diagonal in the
eigenbasis of X: with R = V (x) V,

    sum_m c_m (X1^i X2^k) rho (X1^j X2^l) = R (Phi o (R^T rho R)) R^T,

    Phi_(ab),(cd) = superpotential(Q1 = xi_a, q1 = xi_c, Q2 = xi_b, q2 = xi_d),

which is exact in the truncated basis, not a quadrature (the
discrete-variable idea of Light, Hamilton & Lill, J. Chem. Phys. 82,
1985).  The free part is the commutator with the diagonal H0.  This action
is propagated matrix-free by ``evolution.evolve_uniform_grid``.

No quantitative "inter-space entanglement" measure is defined here: the
module reports the generator audit, standard intra-space metrics
(reduced purity, spectra) and their CL/QM differences as raw data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import TruncationLeak
from .evolution import evolve_commutator, evolve_uniform_grid
from .liouvillian import BasisLiouvillian, build_basis_liouvillian
from .jaynescummings import coherent_field_density, fock_annihilation
from .potential import (
    MonomialClass,
    SuperPotentialKind,
    bipartite_super_potential,
    classify_bipartite_terms,
)


@dataclass(frozen=True)
class BipartiteBasis:
    """Truncated oscillator ladder basis for each of the two subsystems."""

    n_levels: int
    omega: float = 1.0
    mass: float = 1.0
    hbar: float = 1.0

    def __post_init__(self) -> None:
        if self.n_levels < 2:
            raise ValueError("n_levels must be >= 2")

    @property
    def dim(self) -> int:
        return self.n_levels**2

    def position_operator(self) -> np.ndarray:
        """Single-mode x = sqrt(hbar / 2 m omega) (a + a')."""
        a = fock_annihilation(self.n_levels - 1)
        return np.sqrt(self.hbar / (2.0 * self.mass * self.omega)) * (a + a.T)

    def free_hamiltonian(self) -> np.ndarray:
        """omega (n + 1/2) for each subsystem."""
        n = self.n_levels
        h1 = self.omega * self.hbar * np.diag(np.arange(n) + 0.5)
        eye = np.eye(n)
        return np.kron(h1, eye) + np.kron(eye, h1)


def _monomial_operators(
    basis: BipartiteBasis, exponents: tuple[int, int, int, int]
) -> tuple[np.ndarray, np.ndarray]:
    """(left, right) operators for Q1^i q1^j Q2^k q2^l on the tensor space."""
    x = basis.position_operator()
    i, j, k, l = exponents
    left = np.kron(np.linalg.matrix_power(x, i), np.linalg.matrix_power(x, k))
    right = np.kron(np.linalg.matrix_power(x, j), np.linalg.matrix_power(x, l))
    return left, right


def interaction_terms(
    basis: BipartiteBasis, lam: float, classes: set[MonomialClass] | None = None
) -> np.ndarray:
    """Superoperator sum of the classified monomial actions, as vec matrix."""
    dim = basis.dim
    out = np.zeros((dim * dim, dim * dim), dtype=complex)
    for mono, cls in classify_bipartite_terms(lam):
        if classes is not None and cls not in classes:
            continue
        left, right = _monomial_operators(basis, mono.exponents)
        out += mono.coefficient * np.kron(left, right.T)
    return out


def pure_bra_polynomial(basis: BipartiteBasis, lam: float) -> np.ndarray:
    """Operator sum of the PURE_BRA monomials, i.e. (lam/2)(X1 - X2)^4."""
    dim = basis.dim
    w = np.zeros((dim, dim), dtype=complex)
    for mono, cls in classify_bipartite_terms(lam):
        if cls is not MonomialClass.PURE_BRA:
            continue
        left, _ = _monomial_operators(basis, mono.exponents)
        w += mono.coefficient * left
    return w


def build_bipartite_liouvillian(
    basis: BipartiteBasis, lam: float, kind
) -> BasisLiouvillian:
    """Generator of i hbar d/dt rho for the chosen kind ("cl" or "qm")."""
    from .potential import SuperPotentialKind

    kind = SuperPotentialKind(kind) if not isinstance(kind, SuperPotentialKind) else kind
    h0 = basis.free_hamiltonian()
    if kind is SuperPotentialKind.QM:
        return build_basis_liouvillian(
            h0 + pure_bra_polynomial(basis, lam), hbar=basis.hbar
        )
    s_add = interaction_terms(basis, lam)
    return build_basis_liouvillian(h0, s_add=s_add, hbar=basis.hbar)


def _cl_action(
    basis: BipartiteBasis, lam: float
) -> tuple[Callable[[np.ndarray], np.ndarray], float]:
    """The structured CL action on N x N matrices, and its trace sum(Phi)."""
    e = np.diag(basis.free_hamiltonian()).real
    de = e[:, None] - e[None, :]
    xi, v = np.linalg.eigh(basis.position_operator())
    r = np.kron(v, v)
    bra1 = np.repeat(xi, basis.n_levels)[:, None]  # xi_a of the joint index (a, b)
    bra2 = np.tile(xi, basis.n_levels)[:, None]  # xi_b
    phi = bipartite_super_potential(lam, bra1, bra1.T, bra2, bra2.T)
    return (lambda rho: de * rho + r @ (phi * (r.T @ rho @ r)) @ r.T), float(np.sum(phi))


def bipartite_action(
    basis: BipartiteBasis, lam: float, kind
) -> Callable[[np.ndarray], np.ndarray]:
    """rho -> L rho from N x N pieces; equals the dense generator's action.

    CL: Delta E o rho + R (Phi o (R^T rho R)) R^T.  QM: the commutator
    with H0 + W.
    """
    if SuperPotentialKind(kind) is SuperPotentialKind.CL:
        return _cl_action(basis, lam)[0]
    return build_bipartite_liouvillian(basis, lam, kind).apply


def evolve_bipartite(
    basis: BipartiteBasis, lam: float, kind, rho0: np.ndarray, t_grid
) -> np.ndarray:
    """rho(t) for every t of the grid, shape (len(t_grid), N, N).

    QM: ``evolution.evolve_commutator`` with H0 + W.  CL: the structured
    action under ``evolve_uniform_grid``, so ``t_grid`` must be evenly
    spaced (ValueError otherwise).
    """
    if SuperPotentialKind(kind) is SuperPotentialKind.QM:
        h = build_bipartite_liouvillian(basis, lam, kind).h
        return evolve_commutator(h, rho0, t_grid, basis.hbar)
    act, trace = _cl_action(basis, lam)
    return evolve_uniform_grid(act, act, trace, rho0, t_grid, hbar=basis.hbar)


def reduced_density(rho: np.ndarray, subsystem: int, n_levels: int) -> np.ndarray:
    """Partial trace over the other subsystem (subsystem is 1 or 2)."""
    blocks = np.asarray(rho).reshape(n_levels, n_levels, n_levels, n_levels)
    if subsystem == 1:
        return np.einsum("anbn->ab", blocks)
    if subsystem == 2:
        return np.einsum("nanb->ab", blocks)
    raise ValueError("subsystem must be 1 or 2")


def entanglement_metrics(rho: np.ndarray, n_levels: int) -> tuple[float, np.ndarray]:
    """(purity of reduced subsystem 1, full eigenvalue list of rho).

    Eigenvalues are reported unclipped: classical evolution may push them
    negative, which is data, not an error.
    """
    red = reduced_density(rho, 1, n_levels)
    pur = float(np.trace(red @ red).real)
    sym = 0.5 * (rho + rho.conj().T)
    eig = np.linalg.eigvalsh(sym)[::-1]
    return pur, eig


def top_level_population(rho: np.ndarray, n_levels: int) -> float:
    """Total population of the highest ladder level of either subsystem."""
    blocks = np.asarray(rho).reshape(n_levels, n_levels, n_levels, n_levels)
    top = n_levels - 1
    pop1 = float(np.einsum("nn->", blocks[top, :, top, :]).real)
    pop2 = float(np.einsum("nn->", blocks[:, top, :, top]).real)
    return max(pop1, pop2)


@dataclass
class ComparisonRow:
    t: float
    purity_cl: float
    purity_qm: float
    min_eig_cl: float
    min_eig_qm: float
    trace_drift_cl: float
    trace_drift_qm: float


def compare_cl_qm_entanglement(
    basis: BipartiteBasis,
    lam: float,
    rho0: np.ndarray,
    t_grid,
    leak_threshold: float = 1e-6,
) -> list[ComparisonRow]:
    """Evolve rho0 under both generators and report metrics per time.

    ``t_grid`` must be evenly spaced (ValueError otherwise).  Raises
    TruncationLeak if either run populates the top ladder level of a
    subsystem beyond ``leak_threshold``.
    """
    states_cl = evolve_bipartite(basis, lam, SuperPotentialKind.CL, rho0, t_grid)
    states_qm = evolve_bipartite(basis, lam, SuperPotentialKind.QM, rho0, t_grid)
    rows = []
    for t, rho_cl, rho_qm in zip(t_grid, states_cl, states_qm):
        for tag, rho in (("cl", rho_cl), ("qm", rho_qm)):
            leak = abs(top_level_population(rho, basis.n_levels))
            if leak > leak_threshold:
                raise TruncationLeak(
                    f"{tag} run leaked {leak:.3e} into the top level at t={t:g}"
                )
        p_cl, eig_cl = entanglement_metrics(rho_cl, basis.n_levels)
        p_qm, eig_qm = entanglement_metrics(rho_qm, basis.n_levels)
        rows.append(
            ComparisonRow(
                t=float(t),
                purity_cl=p_cl,
                purity_qm=p_qm,
                min_eig_cl=float(eig_cl[-1]),
                min_eig_qm=float(eig_qm[-1]),
                trace_drift_cl=abs(float(np.trace(rho_cl).real) - 1.0),
                trace_drift_qm=abs(float(np.trace(rho_qm).real) - 1.0),
            )
        )
    return rows


def separable_state(
    basis: BipartiteBasis, alpha1: complex = 0.0, alpha2: complex = 0.0
) -> np.ndarray:
    return np.kron(
        coherent_field_density(alpha1, basis.n_levels - 1),
        coherent_field_density(alpha2, basis.n_levels - 1),
    )
