"""Exception hierarchy shared by the whole package.

Three categories, mirroring the CLI exit codes: bad arguments or
parameters (exit 2), bad or insufficient data (exit 3), and numerical
or resource failures such as overflow, non-convergence or, mapped by
the CLI alone, a MemoryError (exit 4).  Guards raise the
first category through :func:`_float` (numeric guards convert with it),
:func:`_integer` (every integer-range test), :func:`_reals` (every real array)
and :func:`_instance` (every argument of a package type).
"""

import math
from numbers import Integral

import numpy as np


class PermzError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class ValidationError(PermzError, ValueError):
    """A parameter or argument violates its documented domain."""

    exit_code = 2


class DataError(PermzError, ValueError):
    """Input data is unusable: too short, non-finite, unnormalized,
    or a census is saturated where decay is required."""

    exit_code = 3


class NumericalError(PermzError, ArithmeticError):
    """A numerical routine failed: overflow, or an iteration that did
    not reach its residual target."""

    exit_code = 4


def _float(value) -> float:
    """``float(value)``, or nan where ``float`` refuses the value or
    overflows on it, so that a guard's finite check raises its own error."""
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        return float("nan")


def _integer(value, message: str, lo=-math.inf, hi=math.inf):
    """``value`` if it is an integer in ``[lo, hi]``, else ValidationError(message)."""
    if not isinstance(value, Integral) or not lo <= value <= hi:
        raise ValidationError(message)
    return value


def _instance(value, kind: type, what: str):
    """``value`` if it is a ``kind``, else ValidationError."""
    if not isinstance(value, kind):
        raise ValidationError(f"{what} must be a {kind.__name__}")
    return value


def _reals(values, what: str) -> np.ndarray:
    """``values`` as a float64 array, or ValidationError where numpy refuses them."""
    try:
        if not np.iscomplexobj(values):  # numpy would drop the imaginary parts
            return np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValidationError(f"{what} must hold real numbers")
