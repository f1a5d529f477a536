"""Finite-dimensional Liouville superoperators.

Two representations are provided:

* ``GridLiouvillian`` acts on rho(Q, q) sampled on a SuperGrid.  Its
  action is the commutator with the single-axis Hamiltonian
  H = -(hbar^2/2m) d^2/dchi^2 + V(chi) (spectral kinetic term) plus, for
  the classical kind, the entrywise superoperator E(Q_a, q_b).
* ``BasisLiouvillian`` acts on an N x N density matrix in a basis:
  L rho = H rho - rho H + U (E o (U^T rho U)) U^T, the commutator plus,
  for a classical kind, a superoperator E that acts elementwise in the
  orthogonal basis U.  It is the one generator of the basis models
  (Jaynes-Cummings, the bipartite square and relative-mode generators)
  and, with U = 1, of the grid's dense form.

Both are stated in energy units: i hbar d/dt rho = L rho, with the hbar
and mass of the grid as fields and hbar = 1 in a basis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DimensionTooLarge, NonHermitianInput
from .potential import PolynomialPotential, SuperPotentialKind, e_superoperator, super_potential
from .superspace import SuperGrid, is_hermitian, spectral_derivative_matrix

MAX_DENSE_VEC_DIM = 4096


def check_dense_dim(vec_dim: int) -> None:
    """Refuse a dense (vec_dim x vec_dim) superoperator above the cap;
    call before allocating it."""
    if vec_dim > MAX_DENSE_VEC_DIM:
        raise DimensionTooLarge(f"vectorized dimension {vec_dim} exceeds {MAX_DENSE_VEC_DIM}")


def _wavenumbers(n: int, dq: float) -> np.ndarray:
    return 2.0 * np.pi * np.fft.fftfreq(n, dq)


@dataclass
class GridLiouvillian:
    """Liouville operator on a (Q, q) grid, kind CL (with E) or QM (E = 0)."""

    grid: SuperGrid
    kind: SuperPotentialKind
    potential: PolynomialPotential
    mass: float = 1.0
    hbar: float = 1.0
    potential_diag: np.ndarray = field(init=False)
    e_diag: np.ndarray = field(init=False)
    kinetic_diag: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        pts = self.grid.points
        qq = pts[:, None]
        qk = pts[None, :]
        self.potential_diag = np.asarray(
            super_potential(self.potential, SuperPotentialKind.QM, qq, qk)
        )
        if self.kind is SuperPotentialKind.CL:
            e = np.asarray(e_superoperator(self.potential, qq, qk))
            self.e_diag = 0.5 * (e - e.T)  # enforce exact antisymmetry
        else:
            self.e_diag = np.zeros((self.grid.n, self.grid.n))
        # kinetic part of H_Q - H_q, diagonal in the Fourier dual of (Q, q)
        k2 = _wavenumbers(self.grid.n, self.grid.dq) ** 2
        self.kinetic_diag = (self.hbar**2 / (2.0 * self.mass)) * (k2[:, None] - k2[None, :])

    @property
    def n(self) -> int:
        return self.grid.n

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """L rho = (H_Q - H_q + E) rho with the spectral kinetic term."""
        kin = np.fft.ifft2(self.kinetic_diag * np.fft.fft2(rho))
        return kin + (self.potential_diag + self.e_diag) * rho

    def h_matrix(self) -> np.ndarray:
        """Dense single-axis Hamiltonian -(hbar^2/2m) D2 + diag(V)."""
        d2 = spectral_derivative_matrix(self.grid.n, self.grid.dq, 2)
        return -(self.hbar**2 / (2.0 * self.mass)) * d2 + np.diag(
            self.potential.value(self.grid.points)
        )

    def dense(self) -> np.ndarray:
        """(n^2 x n^2) real matrix acting on row-major vec(rho): the basis
        generator of ``h_matrix()`` with E elementwise on the grid."""
        return BasisLiouvillian(self.h_matrix(), self.e_diag).dense()


@dataclass
class BasisLiouvillian:
    """L rho = h rho - rho h + U (E o (U^T rho U)) U^T in an N-dim basis.

    ``h`` is the Hermitian N x N Hamiltonian (NonHermitianInput otherwise),
    ``e`` the N x N mask of the superoperator E, or None when there is none,
    and ``basis`` the real orthogonal U in which E acts elementwise, or None
    for the identity.  A real E with real U gives a Hermitian generator; a
    complex E (``jaynescummings.jc_liouvillian``) a non-normal one.
    """

    h: np.ndarray
    e: Optional[np.ndarray] = None
    basis: Optional[np.ndarray] = None
    hbar = 1.0  # a class constant, not a field: the basis routes work in hbar = 1

    def __post_init__(self) -> None:
        self.h = np.asarray(self.h)
        if not is_hermitian(self.h):
            raise NonHermitianInput("Hamiltonian is not Hermitian to 1e-12")
        for name in ("e", "basis"):
            value = getattr(self, name)
            if value is not None:
                if np.shape(value) != self.h.shape:
                    raise ValueError(f"{name} must be N x N like h")
                setattr(self, name, np.asarray(value))

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
        check_dense_dim(n * n)
        eye = np.eye(n)
        gen = np.kron(self.h, eye) - np.kron(eye, self.h.T)
        if self.e is None:
            return gen
        if self.basis is None:
            return gen + np.diag(np.ravel(self.e))
        k = np.kron(self.basis, self.basis)
        return gen + (k * np.ravel(self.e)) @ k.T


def build_grid_liouvillian(
    v: PolynomialPotential,
    grid: SuperGrid,
    kind: SuperPotentialKind,
    mass: float = 1.0,
    hbar: float = 1.0,
) -> GridLiouvillian:
    return GridLiouvillian(grid=grid, kind=kind, potential=v, mass=mass, hbar=hbar)


def spectrum(liouville) -> np.ndarray:
    """Eigenvalues of the dense superoperator (complex, unsorted)."""
    return np.linalg.eigvals(liouville.dense())


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
