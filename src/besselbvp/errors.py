"""Exception types shared across the package.

``NotElliptic`` is intentionally *not* here: a failed ellipticity test is a
value returned by ``symbols.elliptic_roots``, not an error condition.
"""


class BesselBVPError(Exception):
    """Base class for all package errors."""


class DomainError(BesselBVPError, ValueError):
    """Argument outside the mathematical domain of the operation.

    Also a ValueError, so callers that catch the built-in keep working.
    """


class OverflowSignalled(BesselBVPError):
    """A special-function evaluation overflowed; never returned as inf."""


class ZeroSearchError(BesselBVPError):
    """Newton refinement of a Bessel zero did not converge in budget."""


class GridTooCoarse(BesselBVPError):
    """Stencil error estimate of a grid derivative exceeded tolerance."""


class TraceFitError(BesselBVPError):
    """Boundary power-fit of a plain grid function is unreliable."""


class RegularityViolated(BesselBVPError):
    """The pair (P, T) fails the Lopatinskii/regularity test; refusing to solve."""

    def __init__(self, message, sample=None):
        super().__init__(message)
        self.sample = sample


class SingularSystem(BesselBVPError):
    """Discrete system numerically rank deficient."""


class SpectralParameterOnCut(BesselBVPError):
    """Shift parameter lies on (-inf, 0], where L + a is not invertible."""


class LinearizationSingular(BesselBVPError):
    """Companion linearization of a pencil is numerically singular."""


class IncompleteModeInput(BesselBVPError):
    """Fewer modes supplied than the completeness check requires."""


class IllConditionedFit(BesselBVPError):
    """Expansion-fit Gram matrix exceeds the conditioning budget."""


class BFViolated(BesselBVPError):
    """mass + n^2/4 <= 0: below the Breitenlohner-Freedman bound."""


class SignatureError(BesselBVPError):
    """Boundary metric fails to be Lorentzian at a sampled point."""


class ConfigError(BesselBVPError):
    """CLI configuration file failed validation."""
