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


@dataclass(frozen=True)
class Moments:
    """Moments of one superspace density; see `moments`."""

    trace: float
    x: float
    p: float
    x2: float
    xp_weyl: float
    purity: float
    hermiticity_defect: float


def moments(sd: SuperDensity, hbar: float = 1.0) -> Moments:
    """Trace, <x>, <p>, <x^2>, Weyl <xp> and purity of rho(Q, q) in one pass.

    With X = diag(q_a) and P = -i hbar D, D the spectral first derivative:
    Tr rho = sum_a rho_aa dq, <x^k> = sum_a q_a^k rho_aa dq,
    <p> = Re sum_ac P_ac rho_ca dq, <xp>_Weyl = (1/2) Tr((XP + PX) rho)
    = Re sum_ac P_ac (q_a + q_c)/2 rho_ca dq, and Tr rho^2 = dq^2 sum |rho|^2.
    The same formulas hold for CL and QM densities.

    Raises HermiticityViolation when max|rho - rho^H| exceeds
    HERMITICITY_TOL * max|rho|, or when the trace has an imaginary part above
    1e-10 of its modulus.  The defect max|rho - rho^H| is returned.
    """
    rho, dq, q = sd.values, sd.grid.dq, sd.grid.points
    defect = sd.hermiticity_defect()
    scale = max(float(np.max(np.abs(rho))), 1e-300)
    if defect > HERMITICITY_TOL * scale:
        raise HermiticityViolation(
            f"hermiticity defect {defect:.3e} exceeds {HERMITICITY_TOL:g} of max|rho| {scale:.3e}"
        )
    diag = np.diagonal(rho)
    tr = diag.sum() * dq
    if abs(tr.imag) > 1e-10 * max(abs(tr), 1e-12):
        raise HermiticityViolation(f"trace has imaginary part {tr.imag:.3e}")
    # Re(P_ac rho_ca) = hbar D_ac Im(rho_ca), since D is real
    w = spectral_derivative_matrix(sd.grid.n, dq, 1) * rho.imag.T
    return Moments(
        trace=float(tr.real),
        x=float((q @ diag).real * dq),
        p=float(hbar * w.sum() * dq),
        x2=float((q**2 @ diag).real * dq),
        # sum_ac w_ac (q_a + q_c) from the row and column sums of w
        xp_weyl=float(0.5 * hbar * (q @ w.sum(axis=1) + w.sum(axis=0) @ q) * dq),
        purity=float(np.sum(np.abs(rho) ** 2) * dq**2),
        hermiticity_defect=defect,
    )


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
