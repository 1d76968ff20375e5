"""Exception types shared across the package."""


class ChaosLabError(Exception):
    """Base class for all chaoslab errors."""


class BadIndexError(ChaosLabError):
    """Sequence, parameter, or interval index outside the defined domain."""


class ResourceLimitError(ChaosLabError):
    """Requested simulation exceeds the configured work budget."""
