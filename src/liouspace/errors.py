"""Exception types shared across the package."""


class LiouspaceError(Exception):
    """Base class for all package errors."""


class GridMismatch(LiouspaceError):
    """Grids do not satisfy the required compatibility/reciprocity relations."""


class HermiticityViolation(LiouspaceError):
    """A density matrix violates rho(Q,q) = conj(rho(q,Q)) beyond tolerance."""


class NonHermitianInput(LiouspaceError):
    """A Hamiltonian argument is not Hermitian."""


class SingularRegion(LiouspaceError):
    """Evaluation point lies inside the excluded Coulomb singular shell."""


class DimensionTooLarge(LiouspaceError):
    """Dense representation requested beyond the supported size."""


class NonpositiveTime(LiouspaceError):
    """Propagator duration must be positive."""


class NotConverged(LiouspaceError):
    """Monte Carlo standard error above the requested tolerance after budget."""


class NotFactorized(LiouspaceError):
    """Initial state is not a tensor product within tolerance."""


class EnergyDriftExceeded(LiouspaceError):
    """Symplectic integrator energy drift above the configured bound."""


class TruncationLeak(LiouspaceError):
    """Population leaked into the top levels of a truncated basis."""


class ParseError(LiouspaceError):
    """Malformed configuration file."""


class UnknownKey(ParseError):
    """Configuration contains a key that is not recognised."""
