"""The local two-cell update of the box-ball system with box capacity J and
carrier capacity K: the scalar map, which every kernel is tested against,
and its array form in exchange coordinates.

A cell pair (a, b) holds the box occupancy a and the carrier load b before
the carrier visits the box.  The update deposits as many balls as fit in the
empty space of the box and picks up as many as the carrier has spare capacity
for; every other operation in the package reduces to repeated application of
this map.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .capacities import INF, Capacity, is_finite, validate_capacity
from .errors import InvalidCell

CellPair = Tuple[int, int]


def check_cell(J: Capacity, K: Capacity, pair: CellPair) -> CellPair:
    """Validate a cell pair against the capacities; raises InvalidCell."""
    validate_capacity(J, "J")
    validate_capacity(K, "K")
    a, b = pair
    if not (isinstance(a, int) and isinstance(b, int)):
        raise InvalidCell(f"occupancy and load must be integers, got {pair!r}")
    if not (0 <= a <= J):
        raise InvalidCell(f"occupancy {a} outside [0, {J}]")
    if not (0 <= b <= K):
        raise InvalidCell(f"load {b} outside [0, {K}]")
    return pair


def local_map(J: Capacity, K: Capacity, pair: CellPair) -> CellPair:
    """One carrier visit: (a, b) -> (a', b') with
    a' = a + min{b, J-a} - min{a, K-b} and b' = b - min{b, J-a} + min{a, K-b}.

    The map is an involution and conserves a + b.
    """
    a, b = check_cell(J, K, pair)
    deposit = min(b, J - a)
    pickup = min(a, K - b)
    return a + deposit - pickup, b - deposit + pickup


def exchange_form(J: Capacity, K: Capacity, shape, balls: Capacity = INF,
                  ) -> Tuple[int, np.ndarray, Optional[np.ndarray]]:
    """lo = min{J, K} (0 if both are infinite) and the bound arrays 0 and 2M
    of ``exchange_map``, M = |J - K| (0 if J = K; no 2M array if M = inf), of
    ``shape`` in the state dtype: int16 when lo and B are below 2**14, where
    every value lies in [-2 lo, 2B], B = min{J + K, balls} bounding a + b in
    every cell (``balls``: the balls in the system), else int64."""
    lo = min(J, K) if is_finite(min(J, K)) else 0
    M = 0 if J == K else abs(J - K)
    dtype = np.int16 if max(lo, min(J + K, balls)) < 2 ** 14 else np.int64
    zero = np.zeros(shape, dtype=dtype)
    return lo, zero, (np.full(shape, 2 * M, dtype=dtype) if is_finite(M) else None)


def exchange_map(J: Capacity, K: Capacity, A: np.ndarray, B: np.ndarray,
                 A_out: np.ndarray, q: np.ndarray, zero: np.ndarray,
                 top: Optional[np.ndarray]) -> None:
    """The unvalidated local map in doubled exchange form, in place.

    With c = clip(a + b - lo, 0, M), the map is (a', b') = (b - c, a + c) for
    J <= K and (b + c, a - c) for J > K.  On the doubled state A = 2a - lo,
    B = 2b - lo the clip is q = clip(A + B, 0, 2M) = 2c; A' goes to ``A_out``
    and B' over ``B`` (neither overlaps A, q overlaps nothing).  ``lo``,
    ``zero`` and ``top`` come from ``exchange_form``."""
    np.add(A, B, out=q)
    np.maximum(q, zero, out=q)
    if top is not None:
        np.minimum(q, top, out=q)
    if J <= K:
        np.subtract(B, q, out=A_out)
        np.add(A, q, out=B)
    else:
        np.add(B, q, out=A_out)
        np.subtract(A, q, out=B)


def local_map_array(J: Capacity, K: Capacity, a: np.ndarray,
                    b: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The unvalidated local map of int arrays a and b, broadcast together,
    as int64 arrays: the allocating view of ``exchange_map``."""
    shape = np.broadcast(a, b).shape
    lo, zero, top = exchange_form(J, K, shape)
    # rows A', B, A: the map leaves (A', B') in the first two
    state = np.empty((3,) + shape, dtype=zero.dtype)
    np.add(b, b, out=state[1])
    np.add(a, a, out=state[2])
    state[1:] -= lo
    exchange_map(J, K, state[2], state[1], state[0], np.empty_like(zero), zero, top)
    pair = state[:2]
    pair += lo
    pair >>= 1
    return tuple(pair.astype(np.int64, copy=False))

