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
        _square("grid step dq", self.dq)  # moments scales the purity by dq^2

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


@functools.lru_cache(maxsize=8)
def spectral_derivative_matrix(n: int, dq: float, order: int) -> np.ndarray:
    """Periodic spectral d/dx (order 1) or d^2/dx^2 (order 2) on n points.

    The matrix is circulant, D[a, c] = col[(a - c) mod n], and its column is
    one inverse FFT of (i k)^order.  Order 1 drops the unpaired Nyquist
    mode, so it is real antisymmetric; order 2 is real symmetric.  The
    column is (anti)symmetrised so the matrix has that symmetry exactly.
    Row a is ext[n - a : 2n - a], ext = concat(D[0], D[0]): the matrix is a
    read-only view of that length-2n vector, built once per grid and order.
    """
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    k = 2.0 * np.pi * np.fft.fftfreq(n, dq)
    if order == 1:
        k[n // 2] = 0.0
    col = np.fft.ifft(1j * k if order == 1 else -(k**2)).real
    mirror = np.roll(col[::-1], 1)  # col[(-m) mod n]
    col = 0.5 * (col - mirror if order == 1 else col + mirror)
    row0 = np.roll(col[::-1], 1)  # D[0, c] = col[(-c) mod n]
    return np.lib.stride_tricks.sliding_window_view(np.concatenate((row0, row0)), n)[n:0:-1]


def _square(name: str, value: float) -> float:
    """value**2 of a finite value > 0 whose square is finite, else ValueError naming ``name``."""
    if not 0 < value < np.inf:  # a NaN fails too
        raise ValueError(f"{name}={value:g} must be finite and > 0")
    try:
        return float(value) ** 2
    except OverflowError:
        raise ValueError(f"{name}={value:g} is too large: its square overflows") from None


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
    d = spectral_derivative_matrix(sd.grid.n, dq, 1)
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
    sgrid: SuperGrid, x0: float, p0: float, sigma_x: float, sigma_p: float, hbar: float = 1.0
) -> SuperDensity:
    """(Q, q) form of the Gaussian phase density
    W(x, p) = (hbar / (sx sp)) exp(-(x - x0)^2 / 2 sx^2 - (p - p0)^2 / 2 sp^2),
    normalised to integral dx dp / (2 pi hbar) W = 1:

    rho(Q, q) = N exp(-(m - x0)^2 / 2 sx^2) exp(i p0 y / hbar - sp^2 y^2 / 2 hbar^2)
    with m = (Q+q)/2, y = Q - q, N = 1/(sqrt(2 pi) sx).  It is a quantum
    state only when sx sp >= hbar / 2.  Raises ValueError unless x0 and p0
    are finite and sx, sp and hbar are finite and positive with finite
    squares.
    """
    if not (np.isfinite(x0) and np.isfinite(p0)):
        raise ValueError(f"x0={x0:g} and p0={p0:g} must be finite")
    sx2, sp2 = _square("sigma_x", sigma_x), _square("sigma_p", sigma_p)
    hbar2 = _square("hbar", hbar)
    # the formula's operations in place, in one float and one complex array
    pts = sgrid.points
    buf = np.subtract.outer(pts, pts)  # y
    vals = 1j * p0 * buf
    vals /= hbar
    buf **= 2
    buf *= sp2
    buf /= 2 * hbar2
    vals -= buf
    np.exp(vals, out=vals)
    np.add.outer(pts, pts, out=buf)
    buf *= 0.5  # m
    buf -= x0
    buf **= 2
    buf /= -2 * sx2  # -(t / d) == t / -d exactly
    vals *= np.exp(buf, out=buf)
    vals /= np.sqrt(2 * np.pi) * sigma_x
    return SuperDensity(sgrid, vals)
