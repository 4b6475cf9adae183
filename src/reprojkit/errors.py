"""Exception types shared across the toolkit."""


class ReprojkitError(Exception):
    """Base class for all toolkit errors."""


class InvalidDepthError(ReprojkitError, ValueError):
    """Depth value is missing, non-positive, or non-finite."""


class InvalidSpecError(ReprojkitError, ValueError):
    """Scene or trajectory specification violates its invariants."""


class DatasetError(ReprojkitError, IOError):
    """Dataset on disk is missing, corrupt, or inconsistent."""


class EmptySceneError(ReprojkitError, ValueError):
    """No admissible frame pair exists under the sampling constraints."""


class ShapeError(ReprojkitError, ValueError):
    """Array arguments have mismatched or unsupported shapes."""


class ImageTooSmallError(ReprojkitError, ValueError):
    """Image is below the minimum size the operation supports."""


class EstimationFailedError(ReprojkitError, RuntimeError):
    """Robust estimation could not produce a model."""


class DegenerateConfigurationError(ReprojkitError, ValueError):
    """Input geometry is rank deficient (e.g. collinear points)."""


class ConfigError(ReprojkitError, ValueError):
    """Run configuration is invalid or references missing files."""
