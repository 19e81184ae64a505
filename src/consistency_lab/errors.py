"""Exception types shared across the package."""


class ValidationError(ValueError):
    """Raised when an input violates a documented precondition."""


class ConstructionError(RuntimeError):
    """Raised when a test or schedule cannot be built (e.g. zero separation margin)."""


class ResourceLimitError(RuntimeError):
    """Raised when a computation would exceed its enumeration budget or memory limit."""


class NumericError(RuntimeError):
    """Raised when a numerical routine fails to converge; message carries diagnostics."""


class DegenerateScenarioError(ValueError):
    """Raised when a scenario's hypothesis and alternative coincide."""
