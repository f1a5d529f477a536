"""Bipartite evolution under the quartic coupling, CL vs QM side by side.

Two oscillators of one frequency omega (hbar = m = 1) couple through the
one potential V(d) = lam d^4 of d = x1 - x2 (``PolynomialPotential.quartic``).
As on the grid, QM is the commutator with h0 + V, and CL adds
E = V_CL - V_QM (``potential.e_superoperator``).  The square generators on
n_levels levels per mode serve audits, spectra and oracles.  X1 - X2 is
diagonal in the product of the position (discrete-variable) bases of the
truncated x (Light, Hamilton & Lill, J. Chem. Phys. 82, 1985), so both
kinds are built there by ``_difference_quartic``: h = h0 + V(d), and E
acts elementwise on the bra and ket values d and d'.  At those points
``validate`` checks E against the classified monomials of V_CL
(``potential.classify_bipartite_terms``): the pure ones sum to V_QM / 2,
so E is the mixed ones, intra-subsystem and inter-space, less V_QM / 2.

Evolution goes through the relative mode x_r = (x1 - x2)/sqrt 2.  V and
V_CL depend on d = sqrt 2 x_r alone, so the centre mode (x1 + x2)/sqrt 2
stays free and the whole CL - QM difference lives in the relative mode:
h_r = omega (n + 1/2) + 4 lam x_r^4, and CL adds E = Phi_r - (w - w'),
Phi_r = 2 lam (xi - xi')(xi + xi')^3 and w = 4 lam xi^4, elementwise and
exactly in the eigenbasis of the truncated x_r: ``_difference_quartic``
again, at d = sqrt 2 xi.  A coherent product |alpha1>|alpha2> is
|alpha_c>|alpha_r>, alpha_c,r = (alpha1 +- alpha2)/sqrt 2, so

    rho(t) = U_BS (|alpha_c e^{-i omega t}><.| (x) rho_r(t)) U_BS',

U_BS the 50:50 beam splitter from modes (c, r) to (1, 2): the inter-mode
entanglement is rho_r seen through it (Kim, Son, Buzek & Knight, Phys.
Rev. A 65, 032323, 2002).  Either mode's reduced state is rho_r through a
50% pure-loss channel, displaced, and the two-mode spectrum is rho_r's
plus zeros.  Each kind evolves rho_r by one eigh of its real symmetric
n_r^2 x n_r^2 generator (``evolution.ExactEvolver``).

No quantitative "inter-space entanglement" measure is defined here: the
module reports the generator audit, standard intra-space metrics
(reduced purity, spectra) and their CL/QM differences as raw data.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .evolution import ExactEvolver, output_times
from .liouvillian import BasisLiouvillian
from .jaynescummings import coherent_field_density, fock_annihilation, truncation_margin
from .potential import PolynomialPotential, SuperPotentialKind, e_superoperator


@dataclass(frozen=True)
class BipartiteBasis:
    """Truncated oscillator ladder basis for each of the two subsystems,
    in hbar = m = 1.  The relative-mode route of
    ``compare_cl_qm_entanglement`` reads n_levels as the ladder size n_r of
    the one relative mode."""

    n_levels: int
    omega: float = 1.0

    def __post_init__(self) -> None:
        if self.n_levels < 2:
            raise ValueError("n_levels must be >= 2")
        if not 0 < self.omega < np.inf:
            raise ValueError(f"omega={self.omega} must be finite and > 0")

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


def _difference_quartic(h_free, v, d, lam: float):
    """(h, E) of V(d) = lam d^4 in d = X1 - X2, diagonal in the orthogonal
    DVR basis v with the values d: h = h_free + v diag(V(d)) v^T, and
    E = e_superoperator(V, d, d') elementwise in v, d and d' the bra and ket
    values.  QM is the commutator with h, and CL adds E."""
    pot = PolynomialPotential.quartic(lam)
    return h_free + (v * pot.value(d)) @ v.T, e_superoperator(pot, d[:, None], d[None, :])


def build_bipartite_liouvillian(
    basis: BipartiteBasis, lam: float, kind
) -> BasisLiouvillian:
    """Square generator of i d/dt rho on n_levels^2 states for the chosen
    kind ("cl" or "qm"), for audits, spectra and oracles.  X1 - X2 is
    diagonal in kron(v, v), v the eigenbasis of the truncated x, with the
    values xi_a - xi_b, so both kinds come from ``_difference_quartic``
    there (see the module docstring)."""
    xi, v = np.linalg.eigh(basis.position_operator())
    u, d = np.kron(v, v), np.subtract.outer(xi, xi).ravel()
    h, e = _difference_quartic(basis.free_hamiltonian(), u, d, lam)
    if SuperPotentialKind(kind) is SuperPotentialKind.QM:
        return BasisLiouvillian(h)
    return BasisLiouvillian(h, e, u)


def relative_generator(basis: BipartiteBasis, lam: float) -> BasisLiouvillian:
    """CL generator of the relative mode on ``basis.n_levels`` levels, h_r
    = omega (n + 1/2) + 4 lam x_r^4 with E elementwise in the DVR basis V
    of the truncated x_r = V diag(xi) V^T (see the module docstring); QM
    is the commutator with its ``h`` alone."""
    xi, v = np.linalg.eigh(basis.position_operator())
    h_free = basis.omega * np.diag(np.arange(basis.n_levels) + 0.5)
    # X1 = -X2 = x_r/sqrt 2 puts sqrt 2 x_r in X1 - X2
    return BasisLiouvillian(*_difference_quartic(h_free, v, np.sqrt(2.0) * xi, lam), v)


def loss_purity(states: np.ndarray) -> np.ndarray:
    """Tr[L(rho)^2] per density of a (..., n, n) stack, L the 50% pure-loss
    channel A_k |m> = sqrt(C(m, k) 2^-m) |m - k>, summed as diagonal shifts
    L(rho)_ij = sum_k b_k[i] b_k[j] rho_{i+k,j+k}, b_k[i] = <i|A_k|i+k>: for
    rho_r, the purity of either mode's reduced state (see the module docstring)."""
    n = states.shape[-1]
    out = np.zeros_like(states)
    for k in range(n):
        b = np.sqrt([comb(i + k, k) / 2.0 ** (i + k) for i in range(n - k)])
        out[..., : n - k, : n - k] += np.outer(b, b) * states[..., k:, k:]
    return np.einsum("...ij,...ji->...", out, out).real


# The columns of compare_cl_qm_entanglement, in CSV order.
SERIES_COLUMNS = (
    "t", "purity_cl", "purity_qm", "min_eig_cl", "min_eig_qm",
    "trace_drift_cl", "trace_drift_qm",
)


def compare_cl_qm_entanglement(
    basis: BipartiteBasis, lam: float, alpha1: complex, alpha2: complex, t_end: float, steps: int
) -> tuple[dict[str, np.ndarray], str, dict[str, float]]:
    """Evolve the coherent product |alpha1>|alpha2> under both generators
    through the relative mode over ``evolution.output_times(t_end, steps)``
    (ValueError unless t_end is finite and > 0 and steps >= 1); return
    (columns, solver_path, margins).

    Only rho_r, on ``basis.n_levels`` = n_r levels, is evolved, from the
    truncated |alpha_r>; taking the alphas, not a state, admits no input
    outside the reduction.  ``columns`` holds the ``SERIES_COLUMNS`` arrays
    by name, one entry per time: ``purity_<kind>`` is ``loss_purity(rho_r)``,
    ``min_eig_<kind>`` the least eigenvalue of Herm(rho_r), and
    ``trace_drift_<kind>`` |tr rho_r - 1|.  ``solver_path`` is "eigh": each
    kind takes one eigh of its real symmetric n_r^2 x n_r^2 generator
    (``evolution.ExactEvolver``), so n_r is held to 64 by the dense cap
    (DimensionTooLarge above it).  ``margins`` holds
    ``max_top_level_population_<kind>``, the worst top-level population of
    rho_r over the output times, and ``max_trace_drift`` that of either
    kind's ``trace_drift``.  Raises TruncationLeak
    (``jaynescummings.truncation_margin``) if either run puts more than
    ``LEAK_THRESHOLD``, or a NaN, in rho_r's top level at any output time.
    """
    t = output_times(t_end, steps)
    alpha_r = (complex(alpha1) - complex(alpha2)) / np.sqrt(2.0)
    rho0 = coherent_field_density(alpha_r, basis.n_levels - 1)
    cl = relative_generator(basis, lam)
    columns, margins = {"t": t}, {}
    for tag, gen in (("cl", cl), ("qm", BasisLiouvillian(cl.h))):  # CL = QM + E
        states = ExactEvolver(gen).propagate(rho0, t)
        margins[f"max_top_level_population_{tag}"] = truncation_margin(
            np.abs(states[:, -1, -1].real), t, f"{tag} population in the top level of rho_r"
        )
        columns[f"purity_{tag}"] = loss_purity(states)
        herm = 0.5 * (states + np.swapaxes(states, 1, 2).conj())
        columns[f"min_eig_{tag}"] = np.linalg.eigvalsh(herm)[:, 0]
        columns[f"trace_drift_{tag}"] = np.abs(np.trace(states, axis1=1, axis2=2).real - 1.0)
    drifts = [columns["trace_drift_cl"], columns["trace_drift_qm"]]
    margins["max_trace_drift"] = float(np.max(drifts))
    return {name: columns[name] for name in SERIES_COLUMNS}, "eigh", margins


def separable_state(
    basis: BipartiteBasis, alpha1: complex = 0.0, alpha2: complex = 0.0
) -> np.ndarray:
    return np.kron(
        coherent_field_density(alpha1, basis.n_levels - 1),
        coherent_field_density(alpha2, basis.n_levels - 1),
    )
