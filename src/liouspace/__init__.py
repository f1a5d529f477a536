"""Classical Liouville and quantum von Neumann dynamics in superspace.

The Liouville equation, written on doubled coordinates rho(Q, q),
differs from the von Neumann equation only by an antisymmetric
superoperator E(Q, q) that vanishes for potentials of degree <= 2.
This package builds both dynamics side by side: superoperator scalar
functions, phase-space/superspace transforms, grid and basis
Liouvillians, exact and split-step evolution, the free superpropagator
with first-order perturbation theory (validated against an independent
Dyson quadrature), the Jaynes-Cummings model with a Coulomb
superoperator, and bipartite entanglement diagnostics.
"""

__version__ = "0.1.0"

from .errors import (
    DimensionTooLarge,
    EnergyDriftExceeded,
    GridMismatch,
    HermiticityViolation,
    LiouspaceError,
    NonHermitianInput,
    NonpositiveTime,
    NotConverged,
    NotFactorized,
    ParseError,
    QuadratureNotConverged,
    SingularRegion,
    TruncationLeak,
    UnknownKey,
)
from .potential import (
    BipartiteMonomial,
    CoulombPotential,
    MonomialClass,
    PolynomialPotential,
    SuperPotentialKind,
    bipartite_super_potential,
    classify_bipartite_terms,
    coulomb_e_superoperator,
    e_superoperator,
    e_vanishes_identically,
    super_potential,
)
from .superspace import (
    PhaseDensity,
    PhaseGrid,
    Moments,
    SuperDensity,
    SuperGrid,
    gaussian_phase_density,
    gaussian_super_density,
    moments,
    phase_to_super,
    super_to_phase,
)
from .liouvillian import (
    BasisLiouvillian,
    GridLiouvillian,
    build_basis_liouvillian,
    build_grid_liouvillian,
    spectral_symmetry_defect,
    spectrum,
)
from .evolution import (
    CharacteristicsEnsemble,
    EvolutionConfig,
    EvolveMethod,
    ExactEvolver,
    evolve_characteristics,
    evolve_exact,
    evolve_ordered,
    evolve_trotter,
    gaussian_ensemble,
)
from .superprop import (
    FirstOrderCoefficients,
    PropagatorPoint,
    apply_free_superpropagator,
    dyson_first_order_numeric,
    first_order_coefficients,
    first_order_superpropagator,
    free_propagator,
    free_superpropagator,
    gamma_cl,
    gamma_qm,
)
from .jaynescummings import (
    HydrogenState,
    JCParams,
    MCResult,
    build_jc_hamiltonian,
    coulomb_superop_element,
    evolve_jc,
    hydrogen_psi,
    jc_evolve_first_order,
    jc_liouvillian,
)
from .entangle import (
    BipartiteBasis,
    build_bipartite_liouvillian,
    compare_cl_qm_entanglement,
    entanglement_metrics,
    reduced_density,
)
