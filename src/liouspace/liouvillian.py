"""Finite-dimensional Liouville superoperators.

``BasisLiouvillian`` is the one generator class.  It acts on an N x N
density matrix in a basis:
L rho = H rho - rho H + U (E o (U^T rho U)) U^T, the commutator plus, for
a classical kind, a superoperator E that acts elementwise in the
orthogonal basis U.  It is the generator of the basis models
(Jaynes-Cummings, the bipartite square and relative-mode generators) and,
with U = 1 and E entrywise on the grid, of rho(Q, q) sampled on a
SuperGrid (``grid_liouvillian``).

Every generator is in units of hbar, i d/dt rho = L rho: the grid
generator takes hbar and the mass as arguments and divides by hbar, and
the basis models work in hbar = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DimensionTooLarge, NonHermitianInput
from .potential import PolynomialPotential, SuperPotentialKind, super_potential
from .superspace import SuperGrid, spectral_derivative_matrix

MAX_DENSE_VEC_DIM = 4096


@dataclass
class BasisLiouvillian:
    """L rho = h rho - rho h + U (E o (U^T rho U)) U^T in an N-dim basis.

    ``h`` is the N x N Hamiltonian, Hermitian to 1e-12 of max|h|
    (NonHermitianInput otherwise), ``e`` the N x N mask of E or None, and
    ``basis`` the U in which E acts elementwise, real orthogonal to 1e-12
    (ValueError otherwise), or None for the identity.  So L is Hermitian
    exactly when E is absent or real, and ``ExactEvolver``'s route follows E.
    """

    h: np.ndarray
    e: Optional[np.ndarray] = None
    basis: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        h = self.h = np.asarray(self.h)
        if not np.max(np.abs(h - h.conj().T)) <= 1e-12 * np.max(np.abs(h)):  # a NaN fails
            raise NonHermitianInput("Hamiltonian is not Hermitian to 1e-12")
        for name in ("e", "basis"):
            value = getattr(self, name)
            if value is not None:
                if np.shape(value) != h.shape:
                    raise ValueError(f"{name} must be N x N like h")
                setattr(self, name, np.asarray(value))
        u = self.basis
        ok = u is None or (np.isrealobj(u) and np.all(abs(u.T @ u - np.eye(self.n)) <= 1e-12))
        if not ok:  # a NaN fails too
            raise ValueError("basis must be real orthogonal to 1e-12")

    @property
    def n(self) -> int:
        return self.h.shape[0]

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """L rho through N x N products, without the dense superoperator."""
        out = self.h @ rho - rho @ self.h
        if self.e is None:
            return out
        if self.basis is None:
            return out + self.e * rho
        u = self.basis
        return out + u @ (self.e * (u.T @ rho @ u)) @ u.T

    def dense(self) -> np.ndarray:
        """The N^2 x N^2 matrix on the row-major vec:
        kron(h, 1) - kron(1, h^T) + K diag(E) K^T with K = kron(U, U).

        It keeps the dtype of its inputs, so a real h, E and U give a real
        symmetric matrix.  Raises DimensionTooLarge above the dense cap,
        before allocating.
        """
        n = self.n
        if n * n > MAX_DENSE_VEC_DIM:
            raise DimensionTooLarge(f"vectorized dimension {n * n} exceeds {MAX_DENSE_VEC_DIM}")
        eye = np.eye(n)
        gen = np.kron(self.h, eye) - np.kron(eye, self.h.T)
        if self.e is None:
            return gen
        if self.basis is None:
            return gen + np.diag(np.ravel(self.e))
        k = np.kron(self.basis, self.basis)
        return gen + (k * np.ravel(self.e)) @ k.T


def grid_liouvillian(
    v: PolynomialPotential,
    grid: SuperGrid,
    kind: SuperPotentialKind,
    mass: float = 1.0,
    hbar: float = 1.0,
) -> BasisLiouvillian:
    """The grid generator L / hbar on rho(Q, q), with U = 1.

    ``h`` is the single-axis Hamiltonian (-(hbar^2/2m) D2 + diag V(chi)) / hbar
    with the spectral second-derivative matrix D2, and ``e`` the entrywise
    E(Q_a, q_b) / hbar = (V_CL - V_QM) / hbar for CL, None for QM.  Raises
    ValueError (``grid_super_potential``) where V_QM, or for CL V_CL, overflows.
    """
    v_qm = grid_super_potential(v, grid, SuperPotentialKind.QM)  # so V(chi) is finite
    d2 = spectral_derivative_matrix(grid.n, grid.dq, 2)
    h = (-(hbar**2 / (2.0 * mass)) * d2 + np.diag(v.value(grid.points))) / hbar
    e = None
    if kind is SuperPotentialKind.CL:
        e = (grid_super_potential(v, grid, kind) - v_qm) / hbar
    return BasisLiouvillian(h, e)


def grid_super_potential(
    v: PolynomialPotential, grid: SuperGrid, kind: SuperPotentialKind
) -> np.ndarray:
    """``super_potential`` V_kind(Q_a, q_b) on the grid points.  Raises
    ValueError, where numpy would warn and go on in NaN, unless every value
    is finite; a finite V_QM means a finite V at every point, its diagonal
    being V(Q) - V(Q)."""
    pts = grid.points
    with np.errstate(over="ignore", invalid="ignore"):
        out = super_potential(v, kind, pts[:, None], pts[None, :])
    if not np.isfinite(out).all():
        spec = "poly:" + ",".join(map(repr, v.coefficients))
        raise ValueError(
            f"potential {spec} overflows on the grid [{grid.q_min:g}, {grid.q_max:g}): "
            f"V_{kind.name} is not finite there"
        )
    return out


def spectral_symmetry_defect(eigvals: np.ndarray) -> float:
    """How far the eigenvalue multiset is from equalling its own negation.

    Both multisets are sorted lexicographically by (re, im); the defect is
    the largest pointwise distance after greedy pairing of lambda with
    -lambda', normalized by the spectral radius.
    """
    vals = np.sort_complex(np.asarray(eigvals))
    neg = np.sort_complex(-np.asarray(eigvals))
    radius = max(float(np.max(np.abs(vals))), 1e-300)
    return float(np.max(np.abs(vals - neg))) / radius
