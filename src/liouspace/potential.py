"""Potentials and the scalar superpotential / superoperator functions.

The classical Liouville equation, written on the doubled coordinates
(Q, q), differs from the von Neumann equation by the antisymmetric
superoperator

    E(Q, q) = (Q - q) V'((Q + q)/2) - V(Q) + V(q),

which vanishes identically exactly when V is at most quadratic.  This
module evaluates the two superpotential variants

    V_QM(Q, q) = V(Q) - V(q)          (commutator / von Neumann)
    V_CL(Q, q) = (Q - q) V'((Q+q)/2)  (Liouville)

for polynomial potentials, gives the Coulomb E from the three radii
|Q|, |q| and |Q + q| for the Jaynes-Cummings Monte Carlo estimator, and
classifies the monomials of the CL superpotential of lam (x1 - x2)^4,
in the bra and ket coordinates of two particles, into bra/ket/intra/inter
classes; ``validate`` evaluates them at the DVR points of the bipartite
generators.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from math import comb

import numpy as np

# Radius at or below which |Q|, |q| or |Q + q| counts as the Coulomb singularity.
COULOMB_EPS_REG = 1e-6


class SuperPotentialKind(enum.Enum):
    """Selects the commutator-type (QM) or Liouville-type (CL) superpotential."""

    QM = "qm"
    CL = "cl"


class MonomialClass(enum.Enum):
    """Classification of bipartite superpotential monomials.

    PURE_BRA / PURE_KET terms act on one side of the density matrix only
    and are exactly those a commutator can produce; INTER_SPACE_CROSS
    terms couple a bra variable of one subsystem to a ket variable of the
    other, i.e. the Hilbert space to its dual: as an operator,
    c Q1^i q1^j Q2^k q2^l is c (X1^i X2^k) rho (X1^j X2^l), so a cross
    term acts on one subsystem from the left and on the other from the
    right.
    """

    PURE_BRA = "pure_bra"
    PURE_KET = "pure_ket"
    INTRA_SUBSYSTEM_MIXED = "intra_subsystem_mixed"
    INTER_SPACE_CROSS = "inter_space_cross"


@dataclass(frozen=True)
class PolynomialPotential:
    """V(x) = sum_k coefficients[k] * x^k, natural units.

    Trailing zero coefficients are stripped so ``degree`` is well defined
    (degree 0 for V == 0).  A NaN or infinite coefficient raises ValueError.
    """

    coefficients: tuple[float, ...]

    def __post_init__(self) -> None:
        coeffs = tuple(float(c) for c in self.coefficients) or (0.0,)
        if not np.all(np.isfinite(coeffs)):
            raise ValueError(f"coefficients {coeffs} must be finite")
        while len(coeffs) > 1 and coeffs[-1] == 0.0:
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def value(self, x):
        """V(x) by Horner steps from the top coefficient, in place in one
        array: the operations, and so the bits, of numpy's ``polyval``."""
        x = np.asarray(x, dtype=float)
        out = x * 0
        out += self.coefficients[-1]
        for c in self.coefficients[-2::-1]:
            out *= x
            out += c
        return out

    def derivative(self) -> "PolynomialPotential":
        """V'(x), the coefficients k c_k: the bits of numpy's ``polyder``.
        A constant leaves the empty tuple, which ``__post_init__`` reads as 0."""
        return PolynomialPotential(tuple(k * c for k, c in enumerate(self.coefficients) if k))

    @classmethod
    def free(cls) -> "PolynomialPotential":
        return cls((0.0,))

    @classmethod
    def harmonic(cls, k: float) -> "PolynomialPotential":
        """V(x) = (k/2) x^2."""
        return cls((0.0, 0.0, 0.5 * k))

    @classmethod
    def quartic(cls, lam: float) -> "PolynomialPotential":
        """V(x) = lam x^4."""
        return cls((0.0, 0.0, 0.0, 0.0, lam))


def super_potential(v: PolynomialPotential, kind: SuperPotentialKind, q_bra, q_ket):
    """Superpotential V_kind(Q, q); broadcasts over array arguments.

    QM: V(Q) - V(q).  CL: (Q - q) V'((Q + q)/2), formed in place.
    """
    q_bra = np.asarray(q_bra, dtype=float)
    q_ket = np.asarray(q_ket, dtype=float)
    if kind is SuperPotentialKind.QM:
        return v.value(q_bra) - v.value(q_ket)
    out = v.derivative().value(0.5 * (q_bra + q_ket))
    out *= q_bra - q_ket  # two float arrays at most
    return out


def e_superoperator(v: PolynomialPotential, q_bra, q_ket):
    """E(Q, q) = V_CL(Q, q) - V_QM(Q, q); antisymmetric under Q <-> q."""
    return super_potential(v, SuperPotentialKind.CL, q_bra, q_ket) - super_potential(
        v, SuperPotentialKind.QM, q_bra, q_ket
    )


def e_vanishes_identically(v: PolynomialPotential) -> bool:
    """True iff E == 0 for all (Q, q), i.e. V is constant, linear or harmonic."""
    return v.degree <= 2


def coulomb_e_of_radii(e2: float, r_bra, r_ket, r_sum):
    """Coulomb E(Q, q) = 4 e2 (Q^2 - q^2)/|Q + q|^3 - V(Q) + V(q), with
    V(chi) = -e2/|chi| in three dimensions, from the radii |Q|, |q| and
    |Q + q|; no singularity guard."""
    return 4.0 * e2 * (r_bra**2 - r_ket**2) / r_sum**3 + e2 / r_bra - e2 / r_ket


@dataclass(frozen=True)
class BipartiteMonomial:
    """coefficient * Q1^e[0] * q1^e[1] * Q2^e[2] * q2^e[3]."""

    exponents: tuple[int, int, int, int]
    coefficient: float

    def evaluate(self, q1_bra, q1_ket, q2_bra, q2_ket):
        i, j, k, l = self.exponents
        return (
            self.coefficient
            * np.asarray(q1_bra, dtype=float) ** i
            * np.asarray(q1_ket, dtype=float) ** j
            * np.asarray(q2_bra, dtype=float) ** k
            * np.asarray(q2_ket, dtype=float) ** l
        )


def classify_monomial(exponents: tuple[int, int, int, int]) -> MonomialClass:
    """Classify a monomial in (Q1, q1, Q2, q2) by which spaces it touches.

    Precedence: a bra variable of one subsystem paired with a ket variable
    of the other makes the term INTER_SPACE_CROSS; otherwise bra+ket of a
    single subsystem is INTRA_SUBSYSTEM_MIXED; otherwise the term is pure.
    """
    i, j, k, l = exponents
    if (i > 0 and l > 0) or (j > 0 and k > 0):
        return MonomialClass.INTER_SPACE_CROSS
    if (i > 0 and j > 0) or (k > 0 and l > 0):
        return MonomialClass.INTRA_SUBSYSTEM_MIXED
    if j == 0 and l == 0:
        return MonomialClass.PURE_BRA
    return MonomialClass.PURE_KET


def classify_bipartite_terms(lam: float) -> list[tuple[BipartiteMonomial, MonomialClass]]:
    """Expand the CL superpotential of V(x1 - x2) = lam (x1 - x2)^4 into
    classified monomials in (Q1, q1, Q2, q2).

    ``super_potential_monomials`` of ``quartic(lam)`` gives c a^i b^j in
    a = Q1 - Q2 and b = q1 - q2; the binomials of a^i and b^j give
    c C(i,r) C(j,s) (-1)^(i-r+j-s) Q1^r q1^s Q2^(i-r) q2^(j-s).  The
    monomials re-sum exactly to ``super_potential(quartic(lam), CL,
    Q1 - Q2, q1 - q2)``.
    """
    cl = super_potential_monomials(PolynomialPotential.quartic(lam), SuperPotentialKind.CL)
    poly = {
        (r, s, i - r, j - s): c * comb(i, r) * comb(j, s) * (-1) ** (i - r + j - s)
        for (i, j), c in cl.items()
        for r in range(i + 1)
        for s in range(j + 1)
    }
    return [(BipartiteMonomial(e, c), classify_monomial(e)) for e, c in sorted(poly.items())]


def super_potential_monomials(
    v: PolynomialPotential, kind: SuperPotentialKind
) -> dict[tuple[int, int], float]:
    """Expand the superpotential into monomials {(i, j): c} of Q^i q^j.

    QM: V(Q) - V(q).  CL: (Q - q) V'((Q + q)/2), expanded binomially.
    The expansions re-sum exactly to ``super_potential``.
    """
    out: dict[tuple[int, int], float] = {}

    def add(key: tuple[int, int], c: float) -> None:
        out[key] = out.get(key, 0.0) + c

    if kind is SuperPotentialKind.QM:
        for k, c in enumerate(v.coefficients):
            if c == 0.0:
                continue
            add((k, 0), c)
            add((0, k), -c)
    else:
        dcoef = v.derivative().coefficients
        for j, d in enumerate(dcoef):
            if d == 0.0:
                continue
            for r in range(j + 1):
                c = d * comb(j, r) / 2.0**j
                add((r + 1, j - r), c)
                add((r, j - r + 1), -c)
    return {k: c for k, c in out.items() if c != 0.0}

