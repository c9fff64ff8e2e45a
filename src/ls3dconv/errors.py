"""Exception hierarchy shared across the package.

Each class maps to one CLI exit code (see the EXIT_* constants in cli).
"""


class Ls3dError(Exception):
    """Base class for all package errors."""


class ConfigError(Ls3dError):
    """Bad or unknown configuration key/value."""


class ShapeError(Ls3dError):
    """Tensor shape or task contract violated; names the offending dimension."""


class NumericError(Ls3dError):
    """Non-finite value encountered; carries a location report."""


class CheckpointError(Ls3dError):
    """Corrupt, truncated, or incompatible checkpoint / tensor file."""
