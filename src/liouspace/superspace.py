"""Phase-space densities, superspace density matrices, and the maps between them.

A classical distribution rho(x, p) is carried to a density-matrix
representation rho(Q, q) by a Fourier transform p -> y followed by the
rotation Q = x + y/2, q = x - y/2.  Grids are *constructed* so the
rotation lands exactly on grid points: the x grid coincides with the Q
grid (spacing d), the y grid has spacing 2d, and the p grid is the
discrete Fourier dual of the y grid (dp * dy = 2*pi*hbar / n).  Entries
of rho(Q, q) whose midpoint (Q+q)/2 falls between x points are filled by
spectral (band-limited) interpolation, which is exact for inputs whose x
spectrum is resolved by the grid.

The inverse transform reads the same-parity entries back, so the round
trip phase -> super -> phase is an exact discrete inverse pair up to the
clipped corners of the (Q, q) square (negligible for states that decay
before the domain boundary).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch, HermiticityViolation

HERMITICITY_TOL = 1e-6


def is_hermitian(mat: np.ndarray, tol: float = 1e-12) -> bool:
    """Relative Hermiticity test max|M - M^H| <= tol * max|M|.

    The default 1e-12 is the bound for generators and Hamiltonians, where
    it selects the eigh route of the exact evolution; densities are held to
    the looser HERMITICITY_TOL.
    """
    scale = max(float(np.max(np.abs(mat))), 1e-300)
    return bool(np.max(np.abs(mat - mat.conj().T)) <= tol * scale)


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
        if self.q_max <= self.q_min:
            raise ValueError("q_max must exceed q_min")
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

    def matched_phase_grid(self, hbar: float = 1.0) -> "PhaseGrid":
        """The unique PhaseGrid compatible with this grid's exact rotation."""
        d = self.dq
        dp = 2.0 * np.pi * hbar / (self.n * 2.0 * d)
        p_lo = -(self.n - 1) / 2.0 * dp
        return PhaseGrid(
            x_min=self.q_min,
            x_max=self.q_max,
            p_min=p_lo,
            p_max=p_lo + self.n * dp,
            n_x=self.n,
            n_p=self.n,
        )


@dataclass(frozen=True)
class PhaseGrid:
    """Uniform rectangular (x, p) grid; x points x_min + i*dx, i = 0..n_x-1."""

    x_min: float
    x_max: float
    p_min: float
    p_max: float
    n_x: int
    n_p: int

    def __post_init__(self) -> None:
        if self.x_max <= self.x_min or self.p_max <= self.p_min:
            raise ValueError("grid bounds must be increasing")
        if self.n_x % 2 or self.n_p % 2 or self.n_x < 2 or self.n_p < 2:
            raise ValueError("n_x and n_p must be positive even integers")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n_x

    @property
    def dp(self) -> float:
        return (self.p_max - self.p_min) / self.n_p

    @property
    def x(self) -> np.ndarray:
        return self.x_min + self.dx * np.arange(self.n_x)

    @property
    def p(self) -> np.ndarray:
        return self.p_min + self.dp * np.arange(self.n_p)


@dataclass
class PhaseDensity:
    """Real-valued rho(x_i, p_j) samples on a PhaseGrid."""

    grid: PhaseGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.n_x, self.grid.n_p):
            raise ValueError("values shape does not match grid")

    def norm(self, hbar: float = 1.0) -> float:
        """Integral dx dp / (2 pi hbar) of the density."""
        return float(
            self.values.sum() * self.grid.dx * self.grid.dp / (2.0 * np.pi * hbar)
        )

    def moment(self, fxp, hbar: float = 1.0) -> float:
        """Phase-space average of f(x, p) against the density."""
        xx, pp = np.meshgrid(self.grid.x, self.grid.p, indexing="ij")
        w = self.grid.dx * self.grid.dp / (2.0 * np.pi * hbar)
        return float(np.sum(fxp(xx, pp) * self.values) * w)


@dataclass
class SuperDensity:
    """Complex rho(Q_a, q_b) samples on a SuperGrid."""

    grid: SuperGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != (self.grid.n, self.grid.n):
            raise ValueError("values shape does not match grid")

    def hermiticity_defect(self) -> float:
        return float(np.max(np.abs(self.values - self.values.conj().T)))


def _require_matched(pgrid: PhaseGrid, sgrid: SuperGrid, hbar: float) -> None:
    ref = sgrid.matched_phase_grid(hbar)
    scale = max(abs(sgrid.q_max), abs(sgrid.q_min), 1.0)
    for got, want, name in (
        (pgrid.n_x, ref.n_x, "n_x"),
        (pgrid.n_p, ref.n_p, "n_p"),
    ):
        if got != want:
            raise GridMismatch(f"{name}: expected {want}, got {got}")
    for got, want, name in (
        (pgrid.x_min, ref.x_min, "x_min"),
        (pgrid.x_max, ref.x_max, "x_max"),
        (pgrid.p_min, ref.p_min, "p_min"),
        (pgrid.p_max, ref.p_max, "p_max"),
    ):
        if abs(got - want) > 1e-9 * scale:
            raise GridMismatch(
                f"{name}: expected {want:.12g}, got {got:.12g} "
                "(grids must satisfy dy*dp = 2*pi*hbar/n_p with dy = 2*dx)"
            )


def _y_transform_matrix(pgrid: PhaseGrid, sgrid: SuperGrid, hbar: float) -> np.ndarray:
    """Matrix E[j, c] = (dp / 2 pi hbar) exp(i p_j y_c / hbar) for y_c = (c-n+1)*d."""
    n = sgrid.n
    y = sgrid.dq * (np.arange(2 * n - 1) - (n - 1))
    return (pgrid.dp / (2.0 * np.pi * hbar)) * np.exp(
        1j * np.outer(pgrid.p, y) / hbar
    )


def _half_shift(values: np.ndarray, axis: int = 0) -> np.ndarray:
    """Band-limited interpolation of real samples to midpoints x_i + dx/2."""
    n = values.shape[axis]
    k = np.fft.fftfreq(n)  # cycles per sample
    phase = np.exp(1j * np.pi * k)  # shift by half a sample
    phase[n // 2] = 0.0  # real-symmetric treatment of the Nyquist mode
    shape = [1] * values.ndim
    shape[axis] = n
    spec = np.fft.fft(values, axis=axis) * phase.reshape(shape)
    return np.fft.ifft(spec, axis=axis).real


def phase_to_super(pd: PhaseDensity, sgrid: SuperGrid, hbar: float = 1.0) -> SuperDensity:
    """Fourier transform p -> y, then rotate (x, y) -> (Q, q) = (x+y/2, x-y/2)."""
    _require_matched(pd.grid, sgrid, hbar)
    n = sgrid.n
    emat = _y_transform_matrix(pd.grid, sgrid, hbar)
    rows_on = pd.values @ emat                      # rho(x_i, y_c)
    rows_half = _half_shift(pd.values, axis=0) @ emat  # rho(x_i + d/2, y_c)

    a = np.arange(n)
    s = np.add.outer(a, a)          # a + b
    c = np.subtract.outer(a, a) + (n - 1)  # y index for y = (a-b)*d
    even = s % 2 == 0
    vals_even = rows_on[s // 2, c]
    vals_odd = rows_half[np.clip((s - 1) // 2, 0, n - 1), c]
    return SuperDensity(sgrid, np.where(even, vals_even, vals_odd))


def super_to_phase(
    sd: SuperDensity,
    hbar: float = 1.0,
    herm_tol: float = HERMITICITY_TOL,
) -> PhaseDensity:
    """Inverse of phase_to_super (reads the exactly-rotated entries back).

    Raises HermiticityViolation if the input is not Hermitian to herm_tol
    (relative to its largest magnitude); the output's imaginary residue is
    checked and discarded.
    """
    if not is_hermitian(sd.values, herm_tol):
        raise HermiticityViolation(
            f"hermiticity defect {sd.hermiticity_defect():.3e} exceeds tolerance"
        )
    n = sd.grid.n
    pgrid = sd.grid.matched_phase_grid(hbar)
    k = np.arange(-n // 2, n // 2)
    i = np.arange(n)
    aa = np.add.outer(i, k)
    bb = np.subtract.outer(i, k)
    valid = (aa >= 0) & (aa < n) & (bb >= 0) & (bb < n)
    rows = np.where(
        valid, sd.values[np.clip(aa, 0, n - 1), np.clip(bb, 0, n - 1)], 0.0
    )  # rho(x_i, y = 2kd); clipped corners assumed negligible
    y = 2.0 * sd.grid.dq * k
    inv = 2.0 * sd.grid.dq * np.exp(-1j * np.outer(y, pgrid.p) / hbar)
    out = rows @ inv
    if np.max(np.abs(out.imag)) > 1e-10 * max(float(np.max(np.abs(out.real))), 1e-300):
        raise HermiticityViolation("inverse transform produced a non-real density")
    return PhaseDensity(pgrid, out.real)


def trace(sd: SuperDensity) -> float:
    """Tr rho = sum_a rho(Q_a, Q_a) * dq."""
    tr = np.trace(sd.values) * sd.grid.dq
    scale = max(abs(tr), 1e-12)
    if abs(tr.imag) > 1e-10 * scale:
        raise HermiticityViolation(f"trace has imaginary part {tr.imag:.3e}")
    return float(tr.real)


def purity(sd: SuperDensity) -> float:
    """Tr rho^2 = dq^2 * sum |rho(Q,q)|^2 for Hermitian rho."""
    return float(np.sum(np.abs(sd.values) ** 2) * sd.grid.dq**2)


def _spectral_derivative(values: np.ndarray, dq: float, axis: int) -> np.ndarray:
    n = values.shape[axis]
    k = 2.0 * np.pi * np.fft.fftfreq(n, dq)
    k[n // 2] = 0.0  # odd-order derivative: drop the unpaired Nyquist mode
    shape = [1] * values.ndim
    shape[axis] = n
    spec = np.fft.fft(values, axis=axis) * (1j * k).reshape(shape)
    return np.fft.ifft(spec, axis=axis)


def _diag_trace(mat: np.ndarray, dq: float) -> complex:
    return complex(np.trace(mat) * dq)


def expect_x(sd: SuperDensity) -> float:
    """<x> = sum_a ((Q_a + q_a)/2) rho(Q_a, Q_a) dq."""
    if not is_hermitian(sd.values, HERMITICITY_TOL):
        raise HermiticityViolation("density is not Hermitian")
    val = _diag_trace(sd.grid.points[:, None] * sd.values, sd.grid.dq)
    return float(val.real)


def _apply_p_left(sd: SuperDensity, hbar: float) -> np.ndarray:
    """(P rho)(Q, q) = -i hbar d/dQ rho(Q, q)."""
    return -1j * hbar * _spectral_derivative(sd.values, sd.grid.dq, axis=0)


def expect_p(sd: SuperDensity, hbar: float = 1.0) -> float:
    """<p> via -i hbar (d_Q - d_q)/2 restricted to the diagonal."""
    if not is_hermitian(sd.values, HERMITICITY_TOL):
        raise HermiticityViolation("density is not Hermitian")
    d_bra = _spectral_derivative(sd.values, sd.grid.dq, axis=0)
    d_ket = _spectral_derivative(sd.values, sd.grid.dq, axis=1)
    val = _diag_trace(-0.5j * hbar * (d_bra - d_ket), sd.grid.dq)
    return float(val.real)


def expect_xp_weyl(sd: SuperDensity, hbar: float = 1.0) -> float:
    """(1/2) Tr((XP + PX) rho), built from the X and P stencils above."""
    if not is_hermitian(sd.values, HERMITICITY_TOL):
        raise HermiticityViolation("density is not Hermitian")
    q = sd.grid.points[:, None]
    p_rho = _apply_p_left(sd, hbar)
    xp = _diag_trace(q * p_rho, sd.grid.dq)
    x_rho = SuperDensity(sd.grid, q * sd.values)
    px = _diag_trace(_apply_p_left(x_rho, hbar), sd.grid.dq)
    return float((0.5 * (xp + px)).real)


def expect_x2(sd: SuperDensity) -> float:
    """<x^2> from the diagonal."""
    if not is_hermitian(sd.values, HERMITICITY_TOL):
        raise HermiticityViolation("density is not Hermitian")
    val = _diag_trace(sd.grid.points[:, None] ** 2 * sd.values, sd.grid.dq)
    return float(val.real)


def gaussian_phase_density(
    grid: PhaseGrid,
    x0: float,
    p0: float,
    sigma_x: float,
    sigma_p: float,
    hbar: float = 1.0,
) -> PhaseDensity:
    """Normalized Gaussian: integral dx dp/(2 pi hbar) rho = 1 (continuum)."""
    xx, pp = np.meshgrid(grid.x, grid.p, indexing="ij")
    vals = np.exp(
        -((xx - x0) ** 2) / (2 * sigma_x**2) - (pp - p0) ** 2 / (2 * sigma_p**2)
    )
    vals *= hbar / (sigma_x * sigma_p)
    return PhaseDensity(grid, vals)


def gaussian_super_density(
    sgrid: SuperGrid,
    x0: float,
    p0: float,
    sigma_x: float,
    sigma_p: float,
    hbar: float = 1.0,
) -> SuperDensity:
    """Exact (Q, q) form of the Gaussian phase density above.

    rho(Q, q) = N exp(-(m - x0)^2 / 2 sx^2) exp(i p0 y / hbar - sp^2 y^2 / 2 hbar^2)
    with m = (Q+q)/2, y = Q - q, N = 1/(sqrt(2 pi) sx).
    """
    pts = sgrid.points
    mid = 0.5 * np.add.outer(pts, pts)
    y = np.subtract.outer(pts, pts)
    vals = (
        np.exp(-((mid - x0) ** 2) / (2 * sigma_x**2))
        * np.exp(1j * p0 * y / hbar - sigma_p**2 * y**2 / (2 * hbar**2))
        / (np.sqrt(2 * np.pi) * sigma_x)
    )
    return SuperDensity(sgrid, vals)
