"""Exception types shared across the package."""


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
