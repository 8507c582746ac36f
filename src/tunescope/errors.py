"""Exception types shared across the toolkit, and the field rule of
every config record.

Every failure mode that callers are expected to catch gets its own class so
that tests can assert on the exact condition rather than on message text.
"""

import math
import numbers


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


def check_fields(record, counts: dict, positive: tuple = (), nonnegative: tuple = ()) -> None:
    """Check a config record's count and scale fields; raise ``ValueError``.

    ``counts`` maps each count field to its least value (None: any
    integer); a count is an integer, and ``bool`` is not one.  The
    fields named in ``positive`` are finite reals above 0, those in
    ``nonnegative`` finite reals at least 0.
    """
    for name, least in counts.items():
        value = getattr(record, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} is {value!r}; it must be an integer")
        if least is not None and value < least:
            raise ValueError(f"{name} is {value}; it must be at least {least}")
    for name in (*positive, *nonnegative):
        value = getattr(record, name)
        strict = name in positive
        real = isinstance(value, numbers.Real) and not isinstance(value, bool)
        if not (real and (0 < value if strict else 0 <= value) and value < math.inf):
            bound = "above 0" if strict else "at least 0"
            raise ValueError(f"{name} is {value!r}; it must be finite and {bound}")
