"""Exception types shared across the package, and `complaint`, the one
check of a configured number: config fields, CLI keys, law parameters."""

import math
import numbers


class ConfigurationError(ValueError):
    """A parameter or domain description violates its invariants."""


class GridMismatchError(ValueError):
    """Two fields that must share a grid do not."""


class SingularEvaluationError(ValueError):
    """Kernel evaluation requested at coincident source and target."""


class QuadratureToleranceError(RuntimeError):
    """Adaptive quadrature could not reach the requested tolerance."""


class NumericalError(RuntimeError):
    """A linear solve or multiplier search failed in a way that indicates
    a bug or an ill-posed configuration, not a user error."""


def complaint(v, lo, hi, integer):
    """Why v is not a finite number above lo (an integral one at least lo,
    when integer) and below hi; None when it is. Python and numpy integers
    and floats count as numbers, booleans do not."""
    if (isinstance(v, numbers.Real) and not isinstance(v, bool)
            and (isinstance(v, numbers.Integral) or math.isfinite(v))
            and ((v >= lo and (isinstance(v, numbers.Integral)
                               or v.is_integer())) if integer else v > lo)
            and (hi is None or v < hi)):
        return None
    bounds = (" in (%g, %g)" % (lo, hi) if hi is not None
              else " %s %g" % (">=" if integer else ">", lo))
    return "must be %s%s, got %r" % ("an integer" if integer
                                     else "a finite number",
                                     bounds, v)
