"""Superspace density matrices rho(Q, q) on a uniform grid, and their moments.

A classical phase density rho(x, p) becomes a density matrix rho(Q, q) by a
Fourier transform p -> y followed by the rotation Q = x + y/2, q = x - y/2.
Every run starts from a Gaussian, whose transform has the closed form
``gaussian_super_density``.

Only densities are measured for Hermiticity here: ``BasisLiouvillian`` checks
its h and that its U is orthogonal, and the exact route follows its E.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import HermiticityViolation

HERMITICITY_TOL = 1e-6
# Rows per block of the reductions over a density in ``moments``: their
# temporaries stay at ROW_BLOCK x n instead of n x n.
ROW_BLOCK = 32


@dataclass(frozen=True)
class SuperGrid:
    """Uniform (Q, q) grid; both axes share range and size.

    Points are q_min + a*d for a = 0..n-1 with d = (q_max - q_min)/n
    (periodic convention, right endpoint excluded).  n must be even.
    """

    q_min: float
    q_max: float
    n: int

    def __post_init__(self) -> None:
        if not -np.inf < self.q_min < self.q_max < np.inf:
            raise ValueError(f"q_min={self.q_min} < q_max={self.q_max} must both be finite")
        if self.n < 2 or self.n % 2:
            raise ValueError("n must be a positive even integer")

    @property
    def dq(self) -> float:
        return (self.q_max - self.q_min) / self.n

    @property
    def points(self) -> np.ndarray:
        return self.q_min + self.dq * np.arange(self.n)

    @classmethod
    def centered(cls, half_span: float, n: int) -> "SuperGrid":
        return cls(-half_span, half_span, n)


@dataclass
class SuperDensity:
    """Complex rho(Q_a, q_b) samples on a SuperGrid."""

    grid: SuperGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != (self.grid.n, self.grid.n):
            raise ValueError("values shape does not match grid")


def spectral_derivative_matrix(n: int, dq: float, order: int) -> np.ndarray:
    """Dense periodic spectral d/dx (order 1) or d^2/dx^2 (order 2) on n points.

    The matrix is circulant, D[a, c] = col[(a - c) mod n], and its column is
    one inverse FFT of (i k)^order.  Order 1 drops the unpaired Nyquist
    mode, so it is real antisymmetric; order 2 is real symmetric.  The
    column is (anti)symmetrised so the matrix has that symmetry exactly.
    """
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    k = 2.0 * np.pi * np.fft.fftfreq(n, dq)
    if order == 1:
        k[n // 2] = 0.0
    col = np.fft.ifft(1j * k if order == 1 else -(k**2)).real
    mirror = np.roll(col[::-1], 1)  # col[(-m) mod n]
    col = 0.5 * (col - mirror if order == 1 else col + mirror)
    a = np.arange(n)
    return col[np.subtract.outer(a, a) % n]


@functools.lru_cache(maxsize=8)
def _first_derivative_matrix(n: int, dq: float) -> np.ndarray:
    """spectral_derivative_matrix(n, dq, 1), built once per grid and shared
    read-only by every caller."""
    d = spectral_derivative_matrix(n, dq, 1)
    d.flags.writeable = False
    return d


def _row_blocks(n: int) -> list[slice]:
    """Slices of ``ROW_BLOCK`` rows covering 0..n-1."""
    return [slice(i, i + ROW_BLOCK) for i in range(0, n, ROW_BLOCK)]


@dataclass(frozen=True)
class Moments:
    """Moments and grid guards of one superspace density; see `moments`."""

    trace: float
    x: float
    p: float
    x2: float
    purity: float
    hermiticity_defect: float
    boundary_mass: float


def moments(sd: SuperDensity, hbar: float = 1.0) -> Moments:
    """Moments and grid guards of rho(Q, q) in one pass.

    With X = diag(q_a) and P = -i hbar D, D the spectral first derivative:
    Tr rho = sum_a rho_aa dq, <x^k> = sum_a q_a^k rho_aa dq,
    <p> = Re sum_ac P_ac rho_ca dq and Tr rho^2 = dq^2 sum |rho|^2.
    The same formulas hold for CL and QM densities.  The sums over the
    matrix run over blocks of ``ROW_BLOCK`` rows, so no n x n temporary is
    made, and np.max keeps a NaN of any block.

    Raises HermiticityViolation when max|rho - rho^H| exceeds
    HERMITICITY_TOL * max|rho|, or when the trace has an imaginary part above
    1e-10 of its modulus.  The defect max|rho - rho^H| is returned, with the
    boundary mass: the largest |rho| on the outermost grid ring over
    max|rho|, which bounds the periodic wrap-around of the grid routes.
    """
    rho, dq, q = sd.values, sd.grid.dq, sd.grid.points
    d = _first_derivative_matrix(sd.grid.n, dq)
    peak, asym, purity, p = [], [], 0.0, 0.0
    for r in _row_blocks(len(rho)):
        block, col = rho[r], rho[:, r].T
        peak.append(np.max(np.abs(block)))
        asym.append(np.max(np.abs(block - col.conj())))
        purity += np.vdot(block, block).real
        # Re(P_ac rho_ca) = hbar D_ac Im(rho_ca), since D is real
        p += (d[r] * col.imag).sum()
    defect, scale = float(np.max(asym)), max(float(np.max(peak)), 1e-300)
    if defect > HERMITICITY_TOL * scale:
        raise HermiticityViolation(
            f"hermiticity defect {defect:.3e} exceeds {HERMITICITY_TOL:g} of max|rho| {scale:.3e}"
        )
    diag = np.diagonal(rho)
    tr = diag.sum() * dq
    if abs(tr.imag) > 1e-10 * max(abs(tr), 1e-12):
        raise HermiticityViolation(f"trace has imaginary part {tr.imag:.3e}")
    ring = (rho[0, :], rho[-1, :], rho[:, 0], rho[:, -1])
    return Moments(
        trace=float(tr.real),
        x=float((q @ diag).real * dq),
        p=float(hbar * p * dq),
        x2=float((q**2 @ diag).real * dq),
        purity=float(purity * dq**2),
        hermiticity_defect=defect,
        boundary_mass=float(np.max([np.max(np.abs(edge)) for edge in ring])) / scale,
    )


def gaussian_super_density(
    sgrid: SuperGrid,
    x0: float,
    p0: float,
    sigma_x: float,
    sigma_p: float,
    hbar: float = 1.0,
) -> SuperDensity:
    """(Q, q) form of the Gaussian phase density
    W(x, p) = (hbar / (sx sp)) exp(-(x - x0)^2 / 2 sx^2 - (p - p0)^2 / 2 sp^2),
    normalised to integral dx dp / (2 pi hbar) W = 1:

    rho(Q, q) = N exp(-(m - x0)^2 / 2 sx^2) exp(i p0 y / hbar - sp^2 y^2 / 2 hbar^2)
    with m = (Q+q)/2, y = Q - q, N = 1/(sqrt(2 pi) sx).  It is a quantum
    state only when sx sp >= hbar / 2.  Raises ValueError unless x0 and p0
    are finite, both widths are finite and positive, and hbar is finite and
    positive.
    """
    if not (np.isfinite(x0) and np.isfinite(p0)):
        raise ValueError(f"x0={x0:g} and p0={p0:g} must be finite")
    if not (np.isfinite(sigma_x) and np.isfinite(sigma_p) and sigma_x > 0 and sigma_p > 0):
        raise ValueError(f"sigma_x={sigma_x:g} and sigma_p={sigma_p:g} must be finite and > 0")
    if not (np.isfinite(hbar) and hbar > 0):
        raise ValueError(f"hbar={hbar:g} must be finite and > 0")
    pts = sgrid.points
    mid = 0.5 * np.add.outer(pts, pts)
    y = np.subtract.outer(pts, pts)
    vals = (
        np.exp(-((mid - x0) ** 2) / (2 * sigma_x**2))
        * np.exp(1j * p0 * y / hbar - sigma_p**2 * y**2 / (2 * hbar**2))
        / (np.sqrt(2 * np.pi) * sigma_x)
    )
    return SuperDensity(sgrid, vals)
