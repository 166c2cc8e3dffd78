"""Exception types shared across the package."""


class UnitonsError(Exception):
    """Base class for package-specific errors."""


class BadShape(UnitonsError):
    """Dimensions violate a structural constraint (e.g. r > n - 1)."""


class DegeneratePoint(UnitonsError):
    """A rank decision at this sample point is ambiguous; resample."""


class NotLambdaInvariant(UnitonsError):
    """Subspace is not closed under the lambda shift."""


class DegreeNoDrop(UnitonsError):
    """A boundary coefficient failed to vanish while dividing out a factor."""


class NonProperUniton(UnitonsError):
    """Factorization hit a zero or full uniton where a proper one is required."""


class NoTermination(UnitonsError):
    """Type-one normalization did not terminate."""
