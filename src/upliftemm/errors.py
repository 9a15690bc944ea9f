"""Exception types shared across the package."""


class UpliftError(Exception):
    """Base class for all domain errors raised by this package."""


class ShapeMismatch(UpliftError):
    """Structurally inconsistent market data (ragged or wrong-sized arrays)."""


class QuadratureFailure(UpliftError):
    """Adaptive quadrature could not resolve an integrand to tolerance."""


class EmptyRetention(UpliftError):
    """A reduction plan discards every source of randomness."""


class EmptyCell(UpliftError):
    """A mark-space cell has (numerically) zero probability mass."""


class PlanMismatch(UpliftError):
    """An operation received a reduction plan of the wrong kind."""


class NotComplete(UpliftError):
    """The fictitious market does not admit a unique pricing measure."""


class InvalidIntensities(UpliftError):
    """A unique solution exists but some risk-neutral intensity is <= 0."""


class NonpositiveGamma(UpliftError):
    """A batch intensity solution is nonpositive somewhere on the grid."""


class UnboundedIntensity(UpliftError):
    """No finite thinning majorant exists for an intensity function."""


class NullMark(UpliftError):
    """A realized mark has zero risk-neutral intensity: measures not equivalent."""


class NonReducedEvent(UpliftError):
    """An event references randomness outside the reduced filtration."""


class BudgetExceeded(UpliftError):
    """A nested Monte Carlo request exceeds its computational budget."""


class TooFewPaths(UpliftError):
    """A Monte Carlo check got fewer paths than its standard error needs."""
