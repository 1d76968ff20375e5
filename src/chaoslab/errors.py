"""Exception types shared across the package."""


class BadIndexError(Exception):
    """Sequence index, parameter, interval index or command-line flag outside its domain."""


class ResourceLimitError(Exception):
    """Requested simulation exceeds the configured work budget."""
