"""Exception types shared across the toolkit.

Every failure mode that callers are expected to catch gets its own class so
that tests can assert on the exact condition rather than on message text.
"""


class TunescopeError(Exception):
    """Base class for all toolkit errors."""


class ZeroVectorError(TunescopeError):
    """A vector with zero Euclidean norm where a direction is required."""


class NonFiniteError(TunescopeError):
    """An array contained NaN or infinity."""


class ImprobableFailureError(TunescopeError):
    """An internal retry loop exhausted its attempts.

    Raised only for events with vanishing probability under correct use
    (e.g. 100 consecutive degenerate random draws).
    """


class EmptySetError(TunescopeError):
    """An operation that needs at least one element got none."""


class NonFiniteObjectiveError(TunescopeError):
    """The black-box objective returned NaN or infinity."""


class NotPositiveDefiniteError(TunescopeError):
    """A matrix that must be symmetric positive definite was not."""


class ZeroVarianceError(TunescopeError):
    """A statistic that divides by a spread was given constant data."""


class RankDeficientError(TunescopeError):
    """A regression design matrix did not have full column rank."""


class GeometryError(TunescopeError):
    """A cascade specification does not compose into a valid geometry."""


class NonPositiveOptimumError(TunescopeError):
    """A normalization step needs a positive optimum response."""


class DegenerateSplitError(TunescopeError):
    """A train/test split left one side empty or single-typed."""
