"""Exception types shared across the package."""


class QlmpcError(Exception):
    """Base class for package-specific errors."""


class ConfigError(QlmpcError, ValueError):
    """Invalid configuration, CLI arguments, or scenario definition."""


class SolverError(QlmpcError, RuntimeError):
    """Numerical failure inside a solve."""
