"""Exception types shared across the package, and the rules for numbers
read from documents (config files, topology files, ranges) that raise them."""

import math

import numpy as np


class RsnError(Exception):
    """Base class for all package errors."""


class ParameterError(RsnError, ValueError):
    """Invalid device/model parameter or argument."""


class NumericalError(RsnError, RuntimeError):
    """Linear solve failed or violated its residual contract.

    Attributes:
        step: time-step index at which the failure occurred, or None.
    """

    def __init__(self, message, step=None):
        if step is not None:
            message = f"{message} (step {step})"
        super().__init__(message)
        self.step = step


class DataError(RsnError, ValueError):
    """Malformed input data (non-finite entries, mismatched lengths)."""


class ConfigError(RsnError, ValueError):
    """Invalid run configuration (bad value or unknown key)."""


def _integral(x, key: str, error: type) -> int:
    """``x`` as an int; a boolean or non-integral value raises ``error``."""
    if isinstance(x, bool) or not (isinstance(x, (int, np.integer))
                                   or isinstance(x, float) and x.is_integer()):
        raise error(f"'{key}' must be an integer, got {x!r}")
    return int(x)


def _finite(x, key: str, error: type) -> float:
    """``x`` as a float; a boolean, a string, NaN, infinity or an integer
    beyond the float range raises ``error``."""
    try:
        ok = (not isinstance(x, bool)
              and isinstance(x, (int, float, np.integer, np.floating))
              and math.isfinite(x))
    except OverflowError:
        ok = False
    if not ok:
        raise error(f"'{key}' must be a finite number, got {x!r}")
    return float(x)
