"""Capacity values: a finite positive integer or infinity.

Infinity is represented by ``math.inf`` so that ``min(x, INF) == x``,
``INF - x == INF`` and all comparisons treat infinity as larger than any
finite value without special-casing the hot path.
"""

from __future__ import annotations

import math
from typing import Union

from .errors import InvalidParams

INF = math.inf

Capacity = Union[int, float]

# the largest finite capacity: loads, cells and their row sums then stay
# far inside the kernels' int64 arithmetic
MAX_CAPACITY = 2 ** 31


def is_finite(c: Capacity) -> bool:
    return c != INF


def validate_capacity(c: Capacity, name: str = "capacity") -> Capacity:
    """Check that c is INF or an integer in [1, MAX_CAPACITY]; capacity-0
    systems are rejected at construction."""
    if c == INF:
        return INF
    if isinstance(c, bool) or not isinstance(c, int):
        raise InvalidParams(f"{name} must be a positive integer or inf, got {c!r}")
    if c < 1:
        raise InvalidParams(f"{name} must be >= 1, got {c}")
    if c > MAX_CAPACITY:
        raise InvalidParams(f"{name} must be at most 2**31 or inf, got {c}")
    return c


def parse_capacity(text: str, name: str = "capacity") -> Capacity:
    t = text.strip().lower()
    if t in ("inf", "infinity", "oo"):
        return INF
    try:
        value = int(t)
    except ValueError:
        raise InvalidParams(f"cannot parse {name} from {text!r}") from None
    return validate_capacity(value, name)


def capacity_str(c: Capacity) -> str:
    return "inf" if c == INF else str(c)
