"""Field checks used by every configuration type's ``__post_init__``.

Each check returns the value converted (float, int, float tuple, or a
read-only float array copy). A non-number raises TypeError, a non-finite or
out-of-range number ValueError, with a message that starts ``<field>:`` so
that a caller can put the section path in front.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

__all__ = ["real", "integer", "vector", "point", "coerce"]


def real(name: str, value, positive: bool = False, nonnegative: bool = False) -> float:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name}: must be a real number, got {value!r}")
    x = float(value)
    if not math.isfinite(x):
        raise ValueError(f"{name}: must be finite, got {value!r}")
    if (positive and x <= 0) or (nonnegative and x < 0):
        raise ValueError(f"{name}: must be {'positive' if positive else 'non-negative'}, got {value!r}")
    return x


def integer(name: str, value, minimum: int) -> int:
    x = real(name, value)
    if x != int(x) or x < minimum:
        raise ValueError(f"{name}: must be an integer >= {minimum}, got {value!r}")
    return int(x)


def vector(name: str, value, n: int = 3, positive: bool = False) -> np.ndarray:
    try:
        arr = np.asarray(value)
        ok = arr.shape == (n,) and arr.dtype.kind in "iuf"
    except ValueError:  # ragged nesting
        ok = False
    if not ok:
        raise TypeError(f"{name}: must be {n} real numbers, got {value!r}")
    arr = arr.astype(float)  # a copy: the caller's array can change after the check
    arr.flags.writeable = False
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name}: must be finite, got {value!r}")
    if positive and not np.all(arr > 0):
        raise ValueError(f"{name}: must be positive, got {value!r}")
    return arr


def point(name: str, value, n: int = 3, positive: bool = False) -> tuple:
    """``vector`` as a tuple of floats, for frozen, hashable primitives. A
    list or tuple of n finite floats (positive where asked), as a parsed
    scenario gives, is taken as it is, without an array."""
    if type(value) in (list, tuple) and len(value) == n and all(
        type(v) is float and math.isfinite(v) and (v > 0.0 or not positive) for v in value
    ):
        return tuple(value)
    return tuple(vector(name, value, n, positive).tolist())


def coerce(obj, check, *names: str, **kwargs) -> None:
    """Replace each named field of a (possibly frozen) dataclass by its checked value."""
    for name in names:
        object.__setattr__(obj, name, check(name, getattr(obj, name), **kwargs))
