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

The dense generators built here serve audits, spectra and oracles;
evolution goes through N x N pieces instead (N = n_levels^2), in the form
CL = QM + E.  Every monomial acts through powers of the *truncated* position
matrix X, and X = V diag(xi) V^T, so each power is diagonal in the
eigenbasis of X, the discrete-variable (DVR) basis of Light, Hamilton &
Lill, J. Chem. Phys. 82 (1985).  With R = V (x) V,

    sum_m c_m (X1^i X2^k) rho (X1^j X2^l) = R (Phi o (R^T rho R)) R^T,

    Phi_(ab),(cd) = superpotential(Q1 = xi_a, q1 = xi_c, Q2 = xi_b, q2 = xi_d),

exact in the truncated basis, not a quadrature.  The pure-bra and pure-ket
monomials of Phi are w_bra - w_ket, w_ab = (lam/2)(xi_a - xi_b)^4, which is
the commutator with W = R diag(w) R^T, the QM kind's interaction.  So both
kinds share h = H0 + W, and CL adds E = Phi - (w_bra - w_ket), the
cross monomials, elementwise in the DVR basis (``bipartite_generator``).
QM evolves by one N x N eigh, CL matrix-free by Krylov dense output
through ``evolution.evolve_basis``.

No quantitative "inter-space entanglement" measure is defined here: the
module reports the generator audit, standard intra-space metrics
(reduced purity, spectra) and their CL/QM differences as raw data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import TruncationLeak
from .evolution import evolve_basis, solver_path
from .liouvillian import BasisLiouvillian, build_basis_liouvillian, check_dense_dim
from .jaynescummings import (
    LEAK_THRESHOLD, coherent_field_density, fock_annihilation, partial_trace,
)
from .potential import (
    MonomialClass,
    SuperPotentialKind,
    bipartite_super_potential,
    classify_bipartite_terms,
)


@dataclass(frozen=True)
class BipartiteBasis:
    """Truncated oscillator ladder basis for each of the two subsystems,
    in hbar = m = 1."""

    n_levels: int
    omega: float = 1.0

    def __post_init__(self) -> None:
        if self.n_levels < 2:
            raise ValueError("n_levels must be >= 2")

    @property
    def dim(self) -> int:
        return self.n_levels**2

    def position_operator(self) -> np.ndarray:
        """Single-mode x = sqrt(1 / 2 omega) (a + a')."""
        a = fock_annihilation(self.n_levels - 1)
        return np.sqrt(0.5 / self.omega) * (a + a.T)

    def free_hamiltonian(self) -> np.ndarray:
        """omega (n + 1/2) for each subsystem."""
        n = self.n_levels
        h1 = self.omega * np.diag(np.arange(n) + 0.5)
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
    check_dense_dim(dim * dim)
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
    """Dense generator of i d/dt rho for the chosen kind ("cl" or "qm"),
    from the monomial operators; for audits, spectra and oracles."""
    h0 = basis.free_hamiltonian()
    if SuperPotentialKind(kind) is SuperPotentialKind.QM:
        return build_basis_liouvillian(h0 + pure_bra_polynomial(basis, lam))
    return build_basis_liouvillian(h0, s_add=interaction_terms(basis, lam))


def bipartite_generator(
    basis: BipartiteBasis, lam: float, kind
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """(h, E, R) of the structured generator for ``evolution.evolve_basis``.

    Both kinds share h = H0 + W (W the pure-bra polynomial).  QM has no E
    (E and R are None); CL adds E = Phi - (w_bra - w_ket), elementwise in the
    DVR basis R = V (x) V (see the module docstring).
    """
    h = basis.free_hamiltonian() + pure_bra_polynomial(basis, lam)
    xi, v = np.linalg.eigh(basis.position_operator())
    bra1 = np.repeat(xi, basis.n_levels)[:, None]  # xi_a of the joint index (a, b)
    bra2 = np.tile(xi, basis.n_levels)[:, None]  # xi_b
    phi = bipartite_super_potential(lam, bra1, bra1.T, bra2, bra2.T)
    w = 0.5 * lam * (bra1 - bra2) ** 4  # W in the DVR basis
    return _kinds(h, phi - (w - w.T), np.kron(v, v))[SuperPotentialKind(kind)]


def _kinds(h, e, r) -> dict[SuperPotentialKind, tuple]:
    """Both kinds' (h, E, R) from CL's: QM is CL's h without E."""
    return {SuperPotentialKind.CL: (h, e, r), SuperPotentialKind.QM: (h, None, None)}


def entanglement_metrics(rho: np.ndarray, n_levels: int):
    """(purity of reduced subsystem 1, eigenvalues of the Hermitian part of
    rho in descending order), per density of a (..., N, N) stack.

    Eigenvalues are reported unclipped: classical evolution may push them
    negative, which is data, not an error.
    """
    red = partial_trace(rho, (n_levels, n_levels), 0)
    pur = np.einsum("...ij,...ji->...", red, red).real
    sym = np.swapaxes(rho, -1, -2).conj()  # one copy of rho, then in place
    sym += rho
    sym *= 0.5
    return pur, np.linalg.eigvalsh(sym)[..., ::-1]


def top_level_population(rho: np.ndarray, n_levels: int):
    """Population of the highest ladder level of either subsystem, the
    larger of the two, per density of a (..., N, N) stack."""
    dims = (n_levels, n_levels)
    pop1, pop2 = (partial_trace(rho, dims, keep)[..., -1, -1].real for keep in (0, 1))
    return np.maximum(pop1, pop2)


# The columns of compare_cl_qm_entanglement, in CSV order.
SERIES_COLUMNS = (
    "t", "purity_cl", "purity_qm", "min_eig_cl", "min_eig_qm",
    "trace_drift_cl", "trace_drift_qm",
)


def compare_cl_qm_entanglement(
    basis: BipartiteBasis, lam: float, rho0: np.ndarray, t_grid
) -> tuple[dict[str, np.ndarray], dict[str, str], dict[str, float]]:
    """Evolve rho0 under both generators; return (columns, solver_path,
    margins).

    ``columns`` holds the ``SERIES_COLUMNS`` arrays by name, one entry per
    time; ``solver_path`` names the route of each kind: QM takes one eigh,
    CL the Krylov route of ``evolution.evolve_basis``, whose Lanczos
    matrices are real tridiagonal because CL's E is real.  ``margins`` holds
    ``max_top_level_population_<kind>``, the worst top-ladder population of
    each run over the output times, and for CL the Krylov run's worst
    a-posteriori error estimate ``max_krylov_error_estimate_cl``, its
    generator-call count ``krylov_generator_calls_cl`` and its largest
    Arnoldi basis ``krylov_max_basis_dim_cl``.  ``t_grid`` must be
    evenly spaced (ValueError otherwise).  Raises TruncationLeak if either
    run populates the top ladder level of a subsystem beyond
    ``LEAK_THRESHOLD`` at any time of the grid.
    """
    t = np.asarray(t_grid, dtype=float)
    columns, paths, margins = {"t": t}, {}, {}
    # CL = QM + E: one build gives both kinds
    generators = _kinds(*bipartite_generator(basis, lam, SuperPotentialKind.CL))
    for kind, (h, e, r) in generators.items():
        tag = kind.value
        states, krylov = evolve_basis(h, rho0, t_grid, e, r)
        leak = np.abs(top_level_population(states, basis.n_levels))
        worst = int(np.argmax(leak))
        if leak[worst] > LEAK_THRESHOLD:
            raise TruncationLeak(
                f"{tag} run leaked {leak[worst]:.3e} into the top level at t={t[worst]:g}"
            )
        paths[tag] = solver_path(e)
        margins[f"max_top_level_population_{tag}"] = float(leak[worst])
        margins.update({f"{name}_{tag}": value for name, value in krylov.items()})
        columns[f"purity_{tag}"], eig = entanglement_metrics(states, basis.n_levels)
        columns[f"min_eig_{tag}"] = eig[:, -1]
        columns[f"trace_drift_{tag}"] = np.abs(np.trace(states, axis1=1, axis2=2).real - 1.0)
    return {name: columns[name] for name in SERIES_COLUMNS}, paths, margins


def separable_state(
    basis: BipartiteBasis, alpha1: complex = 0.0, alpha2: complex = 0.0
) -> np.ndarray:
    return np.kron(
        coherent_field_density(alpha1, basis.n_levels - 1),
        coherent_field_density(alpha2, basis.n_levels - 1),
    )
