"""Error taxonomy and the input checks shared by all modules.

DomainError   -- an argument lies outside a function's mathematical domain,
                 or a configuration value violates a precondition.
AccuracyError -- a numerical routine could not reach its accuracy target
                 (raised instead of returning a silently wrong value).
I/O problems use the builtin OSError hierarchy.

Every public entry point reads its degrees, orders alpha, times and other
real parameters through the check_* functions below, so one rule decides
what a valid value is everywhere: bools, strings, None and NaN are
refused with DomainError, never converted or truncated.
"""

import math

import numpy as np


class DomainError(ValueError):
    """Argument outside the mathematical domain of an operation."""


class AccuracyError(ArithmeticError):
    """A numerical method failed to converge to its stated tolerance."""


_REAL_TYPES = (float, int, np.floating, np.integer)


def whole(value):
    """value as an int if it is a whole number (an int, a numpy integer or
    an integral float, not a bool), else None: a fractional count or
    coordinate is refused by its callers, never truncated."""
    if isinstance(value, bool):
        return None
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        return int(value)
    return int(value) if isinstance(value, (int, np.integer)) else None


def check_degree(name, value, least=0):
    """value as an int: a whole number >= least (a degree, or a count such
    as n_real or workers)."""
    as_int = whole(value)
    if as_int is None or as_int < least:
        raise DomainError(f"{name} must be an integer >= {least}, got {value!r}")
    return as_int


def check_degrees(name, values):
    """Degrees as a float array: an ndarray whose every element is a finite
    non-negative whole number (bool, string and object arrays are refused),
    or one degree, checked by check_degree, as a 1-element array."""
    if not isinstance(values, np.ndarray):
        return np.array([check_degree(name, values)], dtype=float)
    if values.dtype.kind in "iuf":
        arr = np.asarray(values, dtype=float)
        bad = ~(np.isfinite(arr) & (arr >= 0.0) & (arr == np.floor(arr)))
        if not bad.any():
            return arr
        values = float(arr[bad][0])
    raise DomainError(f"{name} must be non-negative integers, got {values!r}")


def _real(value):
    """value as a float if it is a real number, else NaN (which every
    range test below refuses): bools and strings are not numbers here."""
    if isinstance(value, _REAL_TYPES) and not isinstance(value, bool):
        return float(value)
    return math.nan


def check_alpha(name, value):
    """value as a float in (0, 1]: a fractional order."""
    alpha = _real(value)
    if not 0.0 < alpha <= 1.0:
        raise DomainError(f"{name} must be in (0, 1], got {value!r}")
    return alpha


def check_real(name, value, least=0.0, strict=True):
    """value as a float: a finite real number > least (>= least with
    strict=False)."""
    x = _real(value)
    if not (math.isfinite(x) and (x > least if strict else x >= least)):
        raise DomainError(f"{name} must be a finite number {'>' if strict else '>='} "
                          f"{least:g}, got {value!r}")
    return x


def check_list(name, values, check):
    """values as a non-empty list whose entries each pass check(name, entry)."""
    try:
        items = list(values)
    except TypeError:
        items = []
    if not items:
        raise DomainError(f"{name} must be a non-empty list, got {values!r}")
    return [check(name, item) for item in items]


def check_path(name, value):
    """value as a non-empty string: a file or directory name."""
    if not isinstance(value, str) or not value:
        raise DomainError(f"{name} must be a non-empty path string, got {value!r}")
    return value


def check_unit_interval(name, x):
    """x (a number or an array) as floats clipped to [-1, 1]; values more
    than 1e-14 outside it, NaN, bools and strings are refused."""
    xs = np.asarray(x)
    if xs.dtype.kind not in "iuf" or not np.all(np.abs(xs) <= 1.0 + 1e-14):
        raise DomainError(f"{name}: |x| must be <= 1, got {x!r}")
    return np.clip(np.asarray(xs, dtype=float), -1.0, 1.0)
