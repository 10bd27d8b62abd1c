"""Exception hierarchy shared by every module in the package.

All failures are raised as catchable exceptions; nothing in the library
calls sys.exit or aborts the process. The CLI maps these onto exit codes.
"""

__all__ = [
    "TrfkitError",
    "FormatError",
    "ValidationError",
    "PreconditionError",
    "DegenerateDataError",
    "ConfigError",
    "NumericalError",
    "SingularSystemError",
    "DivergenceError",
]


class TrfkitError(Exception):
    """Base class for every error raised by this package."""


class FormatError(TrfkitError):
    """A file does not conform to its on-disk format (bad bytes, bad header)."""


class ValidationError(TrfkitError):
    """Structurally well-formed input violates a semantic constraint."""


class PreconditionError(ValidationError):
    """An operation was called with arguments outside its contract."""


class DegenerateDataError(PreconditionError):
    """Data has no variance somewhere variance is required."""


class ConfigError(ValidationError):
    """Pipeline configuration is invalid."""


class NumericalError(TrfkitError):
    """A numerical procedure failed to produce a usable result."""


class SingularSystemError(NumericalError):
    """Normal equations are singular; a positive ridge penalty is required."""


class DivergenceError(NumericalError):
    """Iterative optimisation diverged; reduce the learning rate."""
