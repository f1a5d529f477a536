"""Free superpropagator and first-order perturbation theory.

The free superpropagator factorizes into forward and conjugated free
Feynman propagators,

    G0(Qf, qf; T | Qi, qi) = G0(Qf, Qi; T) * conj(G0(qf, qi; T)),

identical for classical and quantum propagation.  For the quartic
potential the first-order correction is

    G = G0 * (1 - (i/hbar) lam [C1 Gamma_QM + C2 Gamma_CL]) + O(lam^2),

with (C1, C2) = (1, 0) for quantum and (1/2, 1/2) for classical
dynamics.  ``dyson_first_order_numeric`` evaluates the defining triple
integral independently: the oscillatory-Gaussian x and y integrals are
reduced exactly to complex Gaussian moments, which leaves a polynomial in
the interaction time tau; a Gauss-Legendre rule integrates it exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .potential import PolynomialPotential, SuperPotentialKind, super_potential_monomials
from .superspace import SuperDensity


@dataclass(frozen=True)
class PropagatorPoint:
    """Endpoints and duration for a superpropagator evaluation."""

    q_bra_f: float
    q_ket_f: float
    q_bra_i: float
    q_ket_i: float
    duration: float
    mass: float = 1.0
    hbar: float = 1.0

    def __post_init__(self) -> None:
        if not (0 < self.mass < np.inf and 0 < self.hbar < np.inf):
            raise ValueError(f"mass={self.mass} and hbar={self.hbar} must be finite and > 0")


def free_propagator(x, y, duration: float, mass: float = 1.0, hbar: float = 1.0):
    """G0(x, y; T) = (m / 2 pi i hbar T)^(1/2) exp(i m (x-y)^2 / 2 hbar T).

    Principal branch: (1/i)^(1/2) = exp(-i pi/4).
    """
    if not 0 < duration < np.inf:
        raise ValueError(f"free propagator duration T={duration} must be finite and > 0")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    amp = np.sqrt(mass / (2.0 * np.pi * hbar * duration)) * np.exp(-0.25j * np.pi)
    return amp * np.exp(1j * mass * (x - y) ** 2 / (2.0 * hbar * duration))


def free_superpropagator(pt: PropagatorPoint) -> complex:
    """G0(bra endpoints) * conj(G0(ket endpoints)); kind-independent."""
    g_bra = free_propagator(pt.q_bra_f, pt.q_bra_i, pt.duration, pt.mass, pt.hbar)
    g_ket = free_propagator(pt.q_ket_f, pt.q_ket_i, pt.duration, pt.mass, pt.hbar)
    return complex(g_bra * np.conj(g_ket))


def _p4(a: float, b: float) -> float:
    return a**4 + a**3 * b + a**2 * b**2 + a * b**3 + b**4


def gamma_qm(pt: PropagatorPoint) -> complex:
    """Quartic first-order function with the commutator-type superpotential.

    (T/5)[ (i hbar T / 2m)(3Q^2 + 4QQ' + 3Q'^2) + Q^4 + Q^3 Q' + Q^2 Q'^2
    + Q Q'^3 + Q'^4 ] minus the same bracket at (q, q'), conjugated.
    """
    big_q, small_q = pt.q_bra_f, pt.q_ket_f
    big_qp, small_qp = pt.q_bra_i, pt.q_ket_i
    t, m, hb = pt.duration, pt.mass, pt.hbar

    def bracket(a: float, b: float) -> complex:
        return (t / 5.0) * (
            0.5 * (1j * hb * t / m) * (3 * a**2 + 4 * a * b + 3 * b**2) + _p4(a, b)
        )

    return complex(bracket(big_q, big_qp) - np.conj(bracket(small_q, small_qp)))


def gamma_cl(pt: PropagatorPoint) -> complex:
    """Additional quartic first-order terms specific to classical dynamics."""
    big_q, small_q = pt.q_bra_f, pt.q_ket_f
    big_qp, small_qp = pt.q_bra_i, pt.q_ket_i
    t, m, hb = pt.duration, pt.mass, pt.hbar
    sym = (
        3 * big_q * small_q
        + 2 * big_q * small_qp
        + 2 * big_qp * small_q
        + 3 * big_qp * small_qp
    )

    def bracket(a: float, ap: float, b: float, bp: float) -> float:
        return (
            a**3 * (4 * b + bp)
            + a**2 * ap * (3 * b + 2 * bp)
            + a * ap**2 * (2 * b + 3 * bp)
            + ap**3 * (b + 4 * bp)
        )

    return complex(
        (t / 5.0)
        * (
            (1j * hb * t / m) * sym
            + 0.5 * bracket(big_q, big_qp, small_q, small_qp)
            - 0.5 * bracket(small_q, small_qp, big_q, big_qp)
        )
    )


def first_order_superpropagator(
    pt: PropagatorPoint, lam: float, kind: SuperPotentialKind
) -> complex:
    """G0 * (1 - (i/hbar) lam [C1 Gamma_QM + C2 Gamma_CL]), with
    (C1, C2) = (1, 0) for quantum and (1/2, 1/2) for classical dynamics."""
    if kind is SuperPotentialKind.QM:
        combo = gamma_qm(pt)
    else:
        combo = 0.5 * gamma_qm(pt) + 0.5 * gamma_cl(pt)
    return free_superpropagator(pt) * (1.0 - 1j * lam * combo / pt.hbar)


def free_moment_integral(
    a: float, b: float, t1: float, t2: float, k: int, mass: float, hbar: float
) -> complex:
    """int dx G0(a,x;t1) x^k G0(x,b;t2), divided by G0(a,b;t1+t2).

    Exact complex-Gaussian moment reduction: the pinched quadratic phase
    has stationary point xbar = (a t2 + b t1)/(t1+t2) and inverse width
    i/(2 beta) = i hbar t1 t2 / (m (t1+t2)).
    """
    total = t1 + t2
    xbar = (a * t2 + b * t1) / total
    half_inv = 1j * hbar * t1 * t2 / (mass * total)  # i / (2 beta)
    out = 0.0 + 0.0j
    for j in range(0, k + 1, 2):
        double_fact = 1
        for v in range(j - 1, 0, -2):
            double_fact *= v
        out += comb(k, j) * xbar ** (k - j) * double_fact * half_inv ** (j // 2)
    return out


def dyson_first_order_numeric(
    pt: PropagatorPoint,
    lam: float,
    kind: SuperPotentialKind,
) -> complex:
    """First-order Dyson correction -(i/hbar) int dtau dx dy G0 V G0.

    Serves as the independent oracle for the Gamma closed forms: the
    superpotential is expanded into monomials x^i y^j by the potential
    module, and each (x, y) integral is reduced to Gaussian moments.  The
    moment of x^k is a polynomial of degree k in tau, so the tau integrand
    has the monomials' largest total degree, and a Gauss-Legendre rule
    with deg // 2 + 1 nodes (exact to degree 2 (deg // 2) + 1) integrates
    it exactly.  Returns the correction term alone (zero for lam = 0).
    """
    if not 0 < pt.duration < np.inf:
        raise ValueError(f"T={pt.duration} must be finite and > 0")
    monomials = super_potential_monomials(PolynomialPotential.quartic(lam), kind)
    t_tot, m, hb = pt.duration, pt.mass, pt.hbar

    def reduced(tau: float) -> complex:
        acc = 0.0 + 0.0j
        for (i, j), c in monomials.items():
            mx = free_moment_integral(pt.q_bra_f, pt.q_bra_i, t_tot - tau, tau, i, m, hb)
            my = free_moment_integral(pt.q_ket_f, pt.q_ket_i, t_tot - tau, tau, j, m, hb)
            acc += c * mx * np.conj(my)
        return acc

    deg = max((i + j for i, j in monomials), default=0)
    nodes, weights = np.polynomial.legendre.leggauss(deg // 2 + 1)
    integral = 0.5 * t_tot * sum(
        w * reduced(0.5 * t_tot * (x + 1.0)) for x, w in zip(nodes, weights)
    )
    return complex(-1j / hb * free_superpropagator(pt) * integral)


def apply_free_superpropagator(
    sd: SuperDensity, duration: float, mass: float = 1.0
) -> SuperDensity:
    """rho(T) = dq^2 * G rho(0) G^dagger with the pointwise free kernel
    G = G0(x_a, x_c; T) on the grid, at hbar = 1."""
    pts = sd.grid.points
    g = free_propagator(pts[:, None], pts[None, :], duration, mass)
    out = sd.grid.dq**2 * (g @ sd.values @ g.conj().T)
    return SuperDensity(sd.grid, out)
