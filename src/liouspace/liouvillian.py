"""Finite-dimensional Liouville superoperators.

Two representations are provided:

* ``GridLiouvillian`` acts on rho(Q, q) sampled on a SuperGrid.  Its
  action is the commutator with the single-axis Hamiltonian
  H = -(hbar^2/2m) d^2/dchi^2 + V(chi) (spectral kinetic term) plus, for
  the classical kind, the entrywise superoperator E(Q_a, q_b).
* ``BasisLiouvillian`` acts on an N x N density matrix in an abstract
  basis: L_{jk,lm} = H_{jl} delta_{km} - conj(H_{km}) delta_{jl}, i.e.
  L rho = H rho - rho H, optionally augmented by an explicit
  superoperator matrix S acting on vec(rho).

Both are stated in energy units: i hbar d/dt rho = L rho.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DimensionTooLarge, NonHermitianInput
from .potential import PolynomialPotential, SuperPotentialKind, e_superoperator, super_potential
from .superspace import SuperGrid, is_hermitian, spectral_derivative_matrix

MAX_DENSE_VEC_DIM = 4096


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
        """(n^2 x n^2) matrix acting on row-major vec(rho)."""
        n = self.grid.n
        if n * n > MAX_DENSE_VEC_DIM:
            raise DimensionTooLarge(
                f"vectorized dimension {n * n} exceeds {MAX_DENSE_VEC_DIM}"
            )
        h = self.h_matrix()
        eye = np.eye(n)
        return (
            np.kron(h, eye) - np.kron(eye, h) + np.diag(self.e_diag.ravel())
        ).astype(complex)


@dataclass
class BasisLiouvillian:
    """L rho = H rho - rho H (+ S rho) for Hermitian H in an N-dim basis."""

    h: np.ndarray
    s_add: Optional[np.ndarray] = None
    hbar: float = 1.0

    def __post_init__(self) -> None:
        self.h = np.asarray(self.h, dtype=complex)
        if self.s_add is not None:
            self.s_add = np.asarray(self.s_add, dtype=complex)

    @property
    def n(self) -> int:
        return self.h.shape[0]

    def apply(self, rho: np.ndarray) -> np.ndarray:
        out = self.h @ rho - rho @ self.h
        if self.s_add is not None:
            out = out + (self.s_add @ rho.reshape(-1)).reshape(rho.shape)
        return out

    def dense(self) -> np.ndarray:
        n = self.n
        if n * n > MAX_DENSE_VEC_DIM:
            raise DimensionTooLarge(
                f"vectorized dimension {n * n} exceeds {MAX_DENSE_VEC_DIM}"
            )
        eye = np.eye(n)
        out = np.kron(self.h, eye) - np.kron(eye, self.h.conj())
        if self.s_add is not None:
            out = out + self.s_add
        return out


def build_grid_liouvillian(
    v: PolynomialPotential,
    grid: SuperGrid,
    kind: SuperPotentialKind,
    mass: float = 1.0,
    hbar: float = 1.0,
) -> GridLiouvillian:
    return GridLiouvillian(grid=grid, kind=kind, potential=v, mass=mass, hbar=hbar)


def build_basis_liouvillian(
    h: np.ndarray,
    s_add: Optional[np.ndarray] = None,
    hbar: float = 1.0,
) -> BasisLiouvillian:
    h = np.asarray(h, dtype=complex)
    if not is_hermitian(h):
        raise NonHermitianInput("Hamiltonian is not Hermitian to 1e-12")
    if s_add is not None:
        s_add = np.asarray(s_add, dtype=complex)
        if s_add.shape != (h.shape[0] ** 2, h.shape[0] ** 2):
            raise ValueError("s_add must be (N^2, N^2)")
    return BasisLiouvillian(h=h, s_add=s_add, hbar=hbar)


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
