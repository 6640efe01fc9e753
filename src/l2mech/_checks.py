"""Argument checks shared by the l2mech modules.

Each check returns None when its value is acceptable and the message
naming the violated constraint otherwise, so require can report every
fault of a call in one ValueError.  Arrays are checked here too, as
given: real alone decides what is real, before numpy converts anything.
"""
from __future__ import annotations

import math
import sys

import numpy as np

_FLOAT_MAX = sys.float_info.max
# the largest dimension any entry takes: up to 2^53 the floats d, d/2,
# (d - 1)/2 and k = (d - 3)/2 that the certificate computes with are
# exact, and above it k rounds, so its grids would bound the integrals of
# another dimension (at sigma = 0.5 and (1, 1e-5), d = 2^60 reads a NaN
# slope, 2^100 a NaN report, and 2^300 divides by a window curvature
# that underflows to 0)
MAX_DIM = 2**53


def integer(name: str, value, minimum: int = 1, message: str | None = None):
    """None if value is an integer >= minimum, else a message saying so.

    bool is an int subclass, but True is no count of anything: refused.
    So is an int beyond the float range, which float math cannot take.
    """
    if (
        isinstance(value, (int, np.integer))
        and not isinstance(value, bool)
        and value >= minimum
    ):
        return None if value <= _FLOAT_MAX else f"{name} must be at most {_FLOAT_MAX!r}"
    return message or f"{name} must be an integer >= {minimum}"


def dimension(name: str, value, minimum: int = 1, message: str | None = None):
    """integer(name, value, minimum, message), and at most MAX_DIM."""
    return integer(name, value, minimum, message) or unless(
        value <= MAX_DIM, f"{name} must be at most 2**53 = {MAX_DIM}"
    )


def real(value, kinds: str = "iuf"):
    """value if it is real, as an array unless a plain number, else None: a
    Python int or float or an array of a dtype kind in kinds is real, and by
    default no bool, str, None, complex, object or ragged list is."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return value
    try:
        value = np.asarray(value)
    except (TypeError, ValueError):  # numpy makes no one array of it
        return None
    return value if value.dtype.kind in kinds else None


def finite(name: str, value, above: float = -math.inf):
    """None if value (every element of an array) is real and finite, else a message.

    above, positive's bound, also refuses what is not above it.  An int
    beyond the float range is not finite as a float: refused.
    """
    value = real(value)
    if isinstance(value, (int, float)):
        try:  # plain numbers skip numpy's overhead
            ok = math.isfinite(value) and value > above
        except OverflowError:  # the int has no float
            ok = False
    else:
        ok = value is not None and np.all(np.isfinite(value) & (value > above))
    return None if ok else f"{name} must be finite"


def positive(name: str, value):
    """None if value (every element of an array) is real, positive and finite."""
    return finite(name, value, 0.0) and f"{name} must be positive and finite"


def number(name: str, value):
    """None if value is one real number (a 0-d array counts), else a message saying so."""
    if isinstance(value, (int, float)):  # plain numbers skip numpy's overhead
        return None
    as_real = real(value, "biuf")  # a bool counts, for positive to refuse by name
    if as_real is None:
        return f"{name} must be one real number, not {type(value).__name__}"
    shape = np.shape(as_real)
    return f"{name} must be one number, not an array of shape {shape}" if shape else None


def instance(name: str, value, cls: type):
    """None if value is a cls, else a message saying it must be one."""
    return None if isinstance(value, cls) else f"{name} must be a {cls.__name__}"


def unless(ok, message: str):
    """None if ok holds, else message: a one-off check written by its caller."""
    return None if ok else message


def require(*problems) -> None:
    """Raise one ValueError listing every message among problems."""
    found = [p for p in problems if p]
    if found:
        raise ValueError("; ".join(found))
