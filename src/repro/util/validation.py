"""Argument-validation helpers.

Every public constructor in the library validates its inputs with these
functions so that an invalid design parameter (say, a negative chip area
or a zero-dimensional lattice) fails at construction time with a message
naming the offending argument, instead of surfacing later as a cryptic
NumPy broadcasting error deep inside a sweep.  Out-of-range values raise
:class:`~repro.util.errors.ConfigError` (a :class:`ValueError`).
"""

from __future__ import annotations

import math
import numbers
from typing import Any

from repro.util.errors import ConfigError

__all__ = [
    "check_positive",
    "check_nonnegative",
    "check_in_range",
    "check_integer",
    "check_probability",
]


def _name_value(name: str, value: Any) -> str:
    return f"{name}={value!r}"


def check_integer(value: Any, name: str) -> int:
    """Return ``value`` as an ``int``, rejecting non-integral input.

    Accepts Python ints and NumPy integer scalars; accepts floats only if
    they are exactly integral (e.g. ``4.0``), which commonly arise from
    NumPy reductions over integer arrays.
    """
    if isinstance(value, bool):
        raise TypeError(f"{_name_value(name, value)} must be an integer, not bool")
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, numbers.Real) and float(value).is_integer():
        return int(value)
    raise TypeError(f"{_name_value(name, value)} must be an integer")


def check_positive(value: Any, name: str, *, integer: bool = False) -> Any:
    """Validate ``value > 0`` (optionally also integral) and return it."""
    if integer:
        value = check_integer(value, name)
    if not isinstance(value, numbers.Real):
        raise TypeError(f"{_name_value(name, value)} must be a real number")
    if math.isnan(float(value)):
        raise ConfigError(f"{_name_value(name, value)} must not be NaN")
    if value <= 0:
        raise ConfigError(f"{_name_value(name, value)} must be positive")
    return value


def check_nonnegative(value: Any, name: str, *, integer: bool = False) -> Any:
    """Validate ``value >= 0`` (optionally also integral) and return it."""
    if integer:
        value = check_integer(value, name)
    if not isinstance(value, numbers.Real):
        raise TypeError(f"{_name_value(name, value)} must be a real number")
    if math.isnan(float(value)):
        raise ConfigError(f"{_name_value(name, value)} must not be NaN")
    if value < 0:
        raise ConfigError(f"{_name_value(name, value)} must be non-negative")
    return value


def check_in_range(
    value: Any,
    name: str,
    low: float,
    high: float,
    *,
    inclusive: bool = True,
) -> Any:
    """Validate ``low <= value <= high`` (or strict if ``inclusive=False``)."""
    if not isinstance(value, numbers.Real):
        raise TypeError(f"{_name_value(name, value)} must be a real number")
    if inclusive:
        if not (low <= value <= high):
            raise ConfigError(
                f"{_name_value(name, value)} must lie in [{low}, {high}]"
            )
    else:
        if not (low < value < high):
            raise ConfigError(
                f"{_name_value(name, value)} must lie in ({low}, {high})"
            )
    return value


def check_probability(value: Any, name: str) -> float:
    """Validate that ``value`` is a probability in [0, 1]."""
    return float(check_in_range(value, name, 0.0, 1.0))
