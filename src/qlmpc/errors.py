"""Exception types shared across the package."""


class QlmpcError(Exception):
    """Base class for package-specific errors."""


class ConfigError(QlmpcError, ValueError):
    """Invalid configuration, CLI arguments, or scenario definition."""


class SolverError(QlmpcError, RuntimeError):
    """Numerical failure inside a solve.

    Carries the smallest eigenvalue of a factorization target that is
    not positive definite, when there is one.
    """

    def __init__(self, message, *, min_eigenvalue=None):
        super().__init__(message)
        self.min_eigenvalue = min_eigenvalue
