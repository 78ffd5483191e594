"""Exception types shared across the package."""


class OnRampError(Exception):
    """Base class for all library-specific errors."""


class ConfigError(OnRampError, ValueError):
    """Raised when an on-ramp configuration or config file is invalid."""


class DegenerateConfigError(OnRampError, ValueError):
    """Raised when every delay slope vanishes and interior quantities are undefined."""


class NotInMeaningfulSetError(OnRampError, ValueError):
    """Raised when an operation requires a configuration inside the meaningful set."""


class TransitionUndefinedError(OnRampError, ValueError):
    """Raised when no finite transition level exists for the requested ratio."""


class ZeroOptimumError(OnRampError, ValueError):
    """Raised when the optimal social delay is zero and delay ratios are undefined."""
