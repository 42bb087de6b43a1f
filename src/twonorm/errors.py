"""Exception types shared across the package."""


class TwoNormError(Exception):
    """Base class for domain errors raised by this package."""


class NeighborhoodViolation(TwoNormError):
    """A point lies outside the neighborhood a local construction requires."""


class RankDeficiency(TwoNormError):
    """A restricted operator has an eigenvalue below the trusted cutoff."""


class ConvergenceFailure(TwoNormError):
    """An iterative routine exhausted its budget before reaching tolerance."""


class MembershipDefect(TwoNormError, ValueError):
    """A group or algebra element misses its defining identity beyond tolerance."""
