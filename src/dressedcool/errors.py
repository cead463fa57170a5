"""Exception hierarchy shared across the package.

Three families matter to callers: bad input, physically meaningless requests,
and oracle (numerical) failures. The CLI maps them to exit codes 1, 2 and 3.
"""

from __future__ import annotations


class DressedCoolError(Exception):
    """Base class for all package errors."""


# --- invalid input -----------------------------------------------------------

class InvalidParamsError(DressedCoolError, ValueError):
    """A physical parameter or model option violates its constraint."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


class ConfigError(DressedCoolError):
    """Malformed config file, unknown key, or inconsistent options."""


class InvalidGridError(DressedCoolError):
    """Empty, non-finite, or non-monotone evaluation grid."""


class UnknownPresetError(DressedCoolError):
    """Requested sweep preset does not exist."""


# --- physics-domain errors ---------------------------------------------------

class DegenerateRatesError(DressedCoolError):
    """Both dressed sideband transitions are dark; no atomic steady state."""


class ZeroCouplingError(DressedCoolError):
    """eta * omega = 0: the phonon is decoupled, so a steady phonon number
    is undefined on the cooling side."""


class HeatingRunError(DressedCoolError):
    """An operation that needs a stationary phonon number was asked to run
    at a heating point, where none exists."""


# --- oracle failures ---------------------------------------------------------

class OracleError(DressedCoolError):
    """Base class for numerical (master-equation) failures."""


class DimensionOverflowError(OracleError):
    """Requested Hilbert-space dimension exceeds the configured cap."""


class TruncationBreachError(OracleError):
    """Fock-space truncation is not trustworthy for the requested run."""


class NoSteadyStateError(OracleError):
    """The generator kernel is empty or not one-dimensional."""

    def __init__(self, message: str, smallest_singular_values=None):
        if smallest_singular_values is not None:
            s = ", ".join(f"{v:.3e}" for v in smallest_singular_values)
            message = f"{message} (two smallest singular values: {s})"
        super().__init__(message)
        self.smallest_singular_values = smallest_singular_values
