"""Exception types shared across the package, and the only place that sets
exit codes.

Each class carries the CLI exit status it ends a command with:

- ``UsageError`` 1: a command-line or function argument out of range;
- ``ConfigError`` 2: a config value, layer spec or bench grid that is
  malformed, unknown or out of range;
- ``CorruptFile`` 2: a dataset, checkpoint or CSV that cannot be read as
  what it claims to be;
- ``ShapeMismatch``, ``NonFiniteWeights``, ``EmptyLabeledSet`` and
  ``EquivalenceViolation`` 3: numeric failures, with ``FastHebbError``,
  their base, as the default.
"""


class FastHebbError(Exception):
    """Base class for all package-specific errors."""
    exit_code = 3


class UsageError(FastHebbError, ValueError):
    """A command-line or function argument is out of range."""
    exit_code = 1


class ConfigError(FastHebbError, ValueError):
    """Experiment configuration is malformed, has unknown keys or out-of-range values."""
    exit_code = 2


class CorruptFile(FastHebbError):
    """File is truncated, has a bad magic, version or label, or failed structural validation."""
    exit_code = 2


class ShapeMismatch(FastHebbError):
    """Operand shapes are incompatible for the requested operation."""


class NonFiniteWeights(FastHebbError):
    """A weight update produced NaN or Inf entries."""


class EmptyLabeledSet(FastHebbError):
    """Supervised training requires at least one labeled sample."""


class EquivalenceViolation(FastHebbError):
    """Fast and naive kernels disagreed beyond tolerance."""
