"""Field checks used by every configuration type's ``__post_init__``.

One rule says what a real number is, for a scalar and for each entry of a
point alike: a ``numbers.Real`` that is not a ``bool``, read with ``float``.
An integer beyond float's range reads as infinite, so it is refused as not
finite. Each check returns the value converted (float, int or float tuple).
A non-number raises TypeError, a non-finite or out-of-range number
ValueError, with a message that starts ``<field>:`` so that a caller can put
the section path in front.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

__all__ = ["real", "integer", "point", "coerce"]


def _float(v):
    """v as a float if it is a real number, else None."""
    if type(v) is float:  # a parsed scenario's numbers, read at no cost
        return v
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        return None
    try:
        return float(v)
    except OverflowError:  # an integer beyond float's range, refused as not finite
        return math.inf


def _checked(name: str, xs: list, value, what: str, positive: bool = False, nonnegative: bool = False) -> list:
    """xs, the entries of value as _float reads them, once each is a real
    number (not None), finite, and positive or non-negative where asked."""
    if None in xs:
        raise TypeError(f"{name}: must be {what}, got {value!r}")
    if not all(map(math.isfinite, xs)):
        raise ValueError(f"{name}: must be finite, got {value!r}")
    if (positive and min(xs) <= 0) or (nonnegative and min(xs) < 0):
        raise ValueError(f"{name}: must be {'positive' if positive else 'non-negative'}, got {value!r}")
    return xs


def real(name: str, value, positive: bool = False, nonnegative: bool = False) -> float:
    return _checked(name, [_float(value)], value, "a real number", positive, nonnegative)[0]


def integer(name: str, value, minimum: int) -> int:
    x = real(name, value)
    if x != int(x) or x < minimum:
        raise ValueError(f"{name}: must be an integer >= {minimum}, got {value!r}")
    return int(x)


def point(name: str, value, n: int = 3, positive: bool = False) -> tuple:
    """A list, tuple or 1-D array of n real numbers as a tuple of floats,
    for frozen, hashable primitives."""
    items = value.tolist() if isinstance(value, np.ndarray) else value
    if not isinstance(items, (list, tuple)) or len(items) != n:
        items = [None]  # refused as not n real numbers
    return tuple(_checked(name, list(map(_float, items)), value, f"{n} real numbers", positive))


def coerce(obj, check, *names: str, **kwargs) -> None:
    """Replace each named field of a (possibly frozen) dataclass by its checked value."""
    for name in names:
        object.__setattr__(obj, name, check(name, getattr(obj, name), **kwargs))
