"""Exception types shared across the package.

Each class carries the CLI exit status it ends a command with: 1 usage,
2 data/config, 3 numeric.
"""


class FastHebbError(Exception):
    """Base class for all package-specific errors."""
    exit_code = 3


class UsageError(FastHebbError, ValueError):
    """A command-line or function argument is out of range."""
    exit_code = 1


class ShapeMismatch(FastHebbError):
    """Operand shapes are incompatible for the requested operation."""


class InvalidTemperature(FastHebbError):
    """Softmax temperature must be strictly positive."""


class GeometryError(FastHebbError):
    """Kernel, stride or padding is invalid, or the kernel exceeds the padded input."""
    exit_code = 2


class NonFiniteWeights(FastHebbError):
    """A weight update produced NaN or Inf entries."""


class TruncatedFile(FastHebbError):
    """Binary dataset file is not a whole number of records."""
    exit_code = 2


class BadLabel(FastHebbError):
    """Label byte outside the valid class range."""
    exit_code = 2


class BadCovariance(FastHebbError):
    """Covariance specification is not positive definite."""
    exit_code = 2


class BadMagic(FastHebbError):
    """File does not start with the expected magic bytes."""
    exit_code = 2


class VersionMismatch(FastHebbError):
    """File version is not supported by this reader."""
    exit_code = 2


class CorruptFile(FastHebbError):
    """File ended early or failed structural validation."""
    exit_code = 2


class EmptyLabeledSet(FastHebbError):
    """Supervised training requires at least one labeled sample."""


class EquivalenceViolation(FastHebbError):
    """Fast and naive kernels disagreed beyond tolerance."""


class ConfigError(FastHebbError, ValueError):
    """Experiment configuration is malformed, has unknown keys or out-of-range values."""
    exit_code = 2
