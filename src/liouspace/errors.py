"""Exception types shared across the package."""


class LiouspaceError(Exception):
    """Base class for all package errors."""


class HermiticityViolation(LiouspaceError):
    """A density matrix violates rho(Q,q) = conj(rho(q,Q)) beyond tolerance."""


class NonHermitianInput(LiouspaceError):
    """A Hamiltonian argument is not Hermitian."""


class DimensionTooLarge(LiouspaceError):
    """Dense representation requested beyond the supported size."""


class EnergyDriftExceeded(LiouspaceError):
    """Symplectic integrator energy drift above the configured bound."""


class TruncationLeak(LiouspaceError):
    """Population leaked into the top levels of a truncated basis."""


class ParseError(LiouspaceError):
    """Malformed configuration file."""


class UnknownKey(ParseError):
    """Configuration contains a key that is not recognised."""
