"""Argument checks shared by the l2mech modules.

Each check returns None when its value is acceptable and the message
naming the violated constraint otherwise, so require can report every
fault of a call in one ValueError.
"""
from __future__ import annotations

import math

import numpy as np


def integer(name: str, value, minimum: int = 1, message: str | None = None):
    """None if value is an integer >= minimum, else a message saying so.

    bool is an int subclass, but True is no count of anything: refused.
    """
    if (
        isinstance(value, (int, np.integer))
        and not isinstance(value, bool)
        and value >= minimum
    ):
        return None
    return message or f"{name} must be an integer >= {minimum}"


def positive(name: str, value):
    """None if value (every element of an array) is real, positive and finite; no bool is."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        ok = math.isfinite(value) and value > 0  # plain numbers skip numpy's overhead
    else:
        value = np.asarray(value)
        ok = value.dtype.kind in "iuf" and np.all(np.isfinite(value) & (value > 0))
    return None if ok else f"{name} must be positive and finite"


def number(name: str, value):
    """None if value is one real number (a 0-d array counts), else a message saying so."""
    if np.ndim(value):
        return f"{name} must be one number, not an array of shape {np.shape(value)}"
    real = isinstance(value, (int, float)) or np.asarray(value).dtype.kind in "biuf"
    return None if real else f"{name} must be one real number, not {type(value).__name__}"


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
