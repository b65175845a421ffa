"""Exception hierarchy shared across the package.

The CLI maps failures onto exit codes: 0 success, ConfigError -> 2,
NumericalError -> 3, and OSError (an I/O error, not a ShockdaError) -> 4.
"""


class ShockdaError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(ShockdaError):
    """Invalid configuration, parameters, or input layout."""


class NumericalError(ShockdaError):
    """A computation failed at runtime (blowup, vacuum, singular system)."""


class ConvergenceError(NumericalError):
    """An iterative solve did not reach its tolerance; the message gives the last residual."""


class DegenerateWeightError(NumericalError):
    """The ensemble carries no structural information (flat in space).

    Raised when the gradient second moment is identically zero, in which
    case no meaningful weight matrix can be scaled.  The run then fails
    like any NumericalError: exit code 3 and a failed manifest.
    """
