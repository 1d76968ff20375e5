"""Exception types shared across the package."""


class ChaosLabError(Exception):
    """Base class for all chaoslab errors."""


class OutOfRangeError(ChaosLabError):
    """Distribution parameter outside its admissible interval."""


class BadIndexError(ChaosLabError):
    """Sequence, parameter, or interval index outside the defined domain."""


class DivergentSeriesError(ChaosLabError):
    """Tail bound requested for a series with no finite tail."""


class DomainError(ChaosLabError):
    """Argument outside the domain where a bound is valid."""


class ResourceLimitError(ChaosLabError):
    """Requested simulation exceeds the configured work budget."""
