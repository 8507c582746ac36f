"""Exception types shared across the toolkit, the field rule of every
config record, and the decoder that builds a record from a JSON object.

Every failure mode that callers are expected to catch gets its own class so
that tests can assert on the exact condition rather than on message text.
"""

import math
import numbers
from dataclasses import fields


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


def check_fields(
    record, counts: dict, positive: tuple = (), nonnegative: tuple = (), lists: tuple = ()
) -> None:
    """Check a config record's count, scale and list fields; raise ``ValueError``.

    ``counts`` maps each count field to its least value (None: any
    integer); a count is an integer, and ``bool`` is not one.  The
    fields named in ``positive`` are finite reals above 0, those in
    ``nonnegative`` finite reals at least 0, and those in ``lists`` a
    list or tuple.
    """
    for name in lists:
        value = getattr(record, name)
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"{name} is {value!r}; it must be a list")
    for name, least in counts.items():
        value = getattr(record, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} is {value!r}; it must be an integer")
        if least is not None and value < least:
            raise ValueError(f"{name} is {value}; it must be at least {least}")
    for name in (*positive, *nonnegative):
        value = getattr(record, name)
        strict = name in positive
        if not (is_finite_real(value) and (0 < value if strict else 0 <= value)):
            bound = "above 0" if strict else "at least 0"
            raise ValueError(f"{name} is {value!r}; it must be finite and {bound}")


def is_finite_real(value) -> bool:
    """Whether ``value`` is a real number other than ``bool``, infinity or NaN."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    return real and -math.inf < value < math.inf


def from_mapping(cls, blob, what: str):
    """Build a config dataclass from a JSON object, rejecting unknown keys."""
    if not isinstance(blob, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(blob).__name__}")
    allowed = {f.name for f in fields(cls)}
    unknown = sorted(set(blob) - allowed)
    if unknown:
        raise ValueError(f"unknown {what} keys: {', '.join(unknown)}")
    coerced = {
        key: tuple(value) if isinstance(value, list) else value
        for key, value in blob.items()
    }
    return cls(**coerced)
