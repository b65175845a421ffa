"""The two package-specific errors.

The CLI maps failures onto exit codes: 0 success, ConfigError -> 2,
NumericalError -> 3, and OSError (an I/O error) -> 4.
"""


class ConfigError(Exception):
    """Invalid configuration, parameters, or input layout."""


class NumericalError(Exception):
    """A computation failed at runtime (blowup, vacuum, singular system, no convergence, degenerate weight)."""
