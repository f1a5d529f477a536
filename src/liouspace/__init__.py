"""Classical Liouville and quantum von Neumann dynamics in superspace.

The Liouville equation, written on doubled coordinates rho(Q, q),
differs from the von Neumann equation only by an antisymmetric
superoperator E(Q, q) that vanishes for potentials of degree <= 2.
This package builds both dynamics side by side: superoperator scalar
functions, Gaussian superspace densities and their moments, one
Liouvillian class for the grid and basis models, exact and split-step
evolution, the free superpropagator with first-order perturbation theory
(validated against an independent Dyson quadrature), the Jaynes-Cummings
model with a Coulomb superoperator, and bipartite entanglement diagnostics.
"""

__version__ = "0.1.0"

from .errors import (
    DimensionTooLarge,
    EnergyDriftExceeded,
    HermiticityViolation,
    LiouspaceError,
    NonHermitianInput,
    ParseError,
    TruncationLeak,
    UnknownKey,
)
from .potential import (
    BipartiteMonomial,
    MonomialClass,
    PolynomialPotential,
    SuperPotentialKind,
    classify_bipartite_terms,
    e_superoperator,
    e_vanishes_identically,
    super_potential,
)
from .superspace import (
    Moments,
    SuperDensity,
    SuperGrid,
    gaussian_super_density,
    moments,
)
from .liouvillian import (
    BasisLiouvillian,
    grid_liouvillian,
    spectral_symmetry_defect,
    spectrum,
)
from .evolution import (
    CharacteristicsEnsemble,
    EvolutionConfig,
    EvolveMethod,
    ExactEvolver,
    evolve_characteristics,
    evolve_ordered,
    evolve_trotter,
    gaussian_ensemble,
    grid_series,
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
    hydrogen_psi,
    jc_evolve_first_order,
    jc_liouvillian,
    jc_series,
)
from .entangle import (
    BipartiteBasis,
    build_bipartite_liouvillian,
    compare_cl_qm_entanglement,
    loss_purity,
    relative_generator,
)
