"""Exception types shared across the toolkit."""

import math
import numbers


class SplineFusionError(Exception):
    """Base class for all toolkit errors."""


class InvalidArgumentError(SplineFusionError, ValueError):
    """An argument violates a documented precondition."""


class OutOfDomainError(SplineFusionError):
    """A sample time falls outside the valid spline domain.

    Carries the valid half-open interval ``(t_min, t_max)``.
    """

    def __init__(self, t, t_min, t_max):
        self.t = t
        self.t_min = t_min
        self.t_max = t_max
        super().__init__(
            f"time {t:.9f} outside valid domain [{t_min:.9f}, {t_max:.9f})"
        )


class DataError(SplineFusionError):
    """A dataset file or stream is malformed or inconsistent."""


class DegenerateConfigurationError(SplineFusionError):
    """A geometric problem is rank deficient (e.g. collinear points)."""


class NumericalFailureError(SplineFusionError):
    """The solver could not make progress at any damping level."""


def require_finite(name, value, positive=None):
    """An InvalidArgumentError naming ``name`` unless ``value`` is finite
    and, with ``positive`` True, > 0 (False: >= 0)."""
    if not math.isfinite(value) or (
            positive is not None and not (value > 0 if positive else value >= 0)):
        bound = "" if positive is None else f" and {'>' if positive else '>='} 0"
        raise InvalidArgumentError(f"{name} must be finite{bound}, got {value!r}")


def require_int(name, value, low, high=math.inf):
    """An InvalidArgumentError naming ``name`` unless ``value`` is an
    integer, not a bool, in [low, high]."""
    whole = not isinstance(value, bool) and isinstance(value, numbers.Integral)
    if not (whole and low <= value <= high):
        span = f">= {low}" if high == math.inf else f"in {low}..{high}"
        raise InvalidArgumentError(
            f"{name} must be {'' if whole else 'an int '}{span}, got {value!r}")
