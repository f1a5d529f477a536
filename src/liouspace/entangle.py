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

No quantitative "inter-space entanglement" measure is defined here: the
module reports the generator audit, standard intra-space metrics
(reduced purity, spectra) and their CL/QM differences as raw data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import TruncationLeak
from .liouvillian import BasisLiouvillian, build_basis_liouvillian
from .evolution import ExactEvolver
from .jaynescummings import coherent_field_density, fock_annihilation
from .potential import MonomialClass, classify_bipartite_terms


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

    Raises TruncationLeak if either run populates the top ladder level of
    a subsystem beyond ``leak_threshold``.
    """
    from .potential import SuperPotentialKind

    ev_cl = ExactEvolver(build_bipartite_liouvillian(basis, lam, SuperPotentialKind.CL))
    ev_qm = ExactEvolver(build_bipartite_liouvillian(basis, lam, SuperPotentialKind.QM))
    rows = []
    for t in t_grid:
        rho_cl = ev_cl.propagate(rho0, float(t))
        rho_qm = ev_qm.propagate(rho0, float(t))
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
