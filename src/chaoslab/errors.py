"""Exception types shared across the package."""


class ChaosLabError(Exception):
    """Base class for all chaoslab errors."""


class BadIndexError(ChaosLabError):
    """Sequence index, parameter, interval index or command-line flag outside its domain."""


class ResourceLimitError(ChaosLabError):
    """Requested simulation exceeds the configured work budget."""
