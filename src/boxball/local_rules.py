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

from itertools import cycle
from typing import Iterable, Optional, Tuple

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


def exchange_form(J: Capacity, K: Capacity, balls: Capacity = INF,
                  ) -> Tuple[int, np.dtype, Optional[np.ndarray]]:
    """The constants of ``exchange_map``: lo = min{J, K} (0 if both are
    infinite), the state dtype, and the clip width 2M, M = |J - K| (0 if
    J = K), as a 0-d array of that dtype, or None when one capacity is
    infinite.  B = min{J + K, balls} bounds a + b in every cell (``balls``:
    the balls in the system).  The dtype is int16 when lo and B are below
    H = 2**14, else int64 (H = 2**62), and 2M is capped at 2(H - lo): the
    clip's argument 2(a + b - lo) stays below the cap, so it never binds,
    and every state value and intermediate of the map, Y -/+ 2M included,
    lies in [-2H, 2H)."""
    lo = min(J, K) if is_finite(min(J, K)) else 0
    half, dtype = ((2 ** 14, np.dtype(np.int16)) if max(lo, min(J + K, balls)) < 2 ** 14
                   else (2 ** 62, np.dtype(np.int64)))
    M = 0 if J == K else abs(J - K)
    return lo, dtype, (np.array(2 * min(M, half - lo), dtype=dtype) if is_finite(M) else None)


_CLAMPS = (np.minimum, np.maximum)


def exchange_map(diagonals: Iterable[Tuple[np.ndarray, ...]], sign: int,
                 top: Optional[np.ndarray]) -> None:
    """The unvalidated local map in signed exchange form, in place, on each
    diagonal (X, Y, q, t) of ``diagonals`` in turn, at the sign ``sign`` on
    the first, -sign on the second, and so on.

    With c = clip(x + y - lo, 0, M), the map is (x', y') = (y - c, x + c),
    where x is the clamped side, the occupancy for J <= K and the load for
    J > K, and y the other side.  At the sign s a diagonal holds
    X = -s (2x - lo) and Y = s (2y - lo).  Then X' = clip(X, Y - 2M, Y) for
    s = 1 and clip(X, Y, Y + 2M) for s = -1, Y' = (X - Y) + X', and
    (X', Y') is the state at the sign -s.  When one capacity is infinite
    (``top`` is None), X' is min(X, Y) or max(X, Y): three ufunc calls
    per diagonal.  Else ``top`` is the 0-d array 2M, t = Y -/+ 2M, and a
    diagonal is five calls (min and max take no 0-d operand: numpy's int16
    path for one is three times slower).  q and t are scratch arrays of X's
    shape; nothing overlaps.  ``lo``, the dtype and ``top`` come from
    ``exchange_form``."""
    # local names: a diagonal's Python overhead is a few lookups, ~0.1 us
    clamps, subtract, add = _CLAMPS[::sign], np.subtract, np.add
    if top is None:
        for clamp, (X, Y, q, _) in zip(cycle(clamps), diagonals):
            subtract(X, Y, out=q)
            clamp(X, Y, out=X)
            add(q, X, out=Y)
    else:
        steps = tuple(zip((subtract, add)[::sign], clamps[::-1], clamps))
        for (shift, bound, clamp), (X, Y, q, t) in zip(cycle(steps), diagonals):
            subtract(X, Y, out=q)
            shift(Y, top, out=t)
            bound(X, t, out=X)
            clamp(X, Y, out=X)
            add(q, X, out=Y)


def local_map_array(J: Capacity, K: Capacity, a: np.ndarray,
                    b: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The unvalidated local map of int arrays a and b, broadcast together,
    as int64 arrays: one diagonal of ``exchange_map`` at the sign 1."""
    lo, dtype, top = exchange_form(J, K)
    x, y = (a, b) if J <= K else (b, a)
    X, Y, q, t = state = np.empty((4,) + np.broadcast(a, b).shape, dtype=dtype)
    np.add(x, x, out=X)
    np.subtract(lo, X, out=X)
    np.add(y, y, out=Y)
    Y -= lo
    exchange_map([(X, Y, q, t)], 1, top)
    # at the sign -1: X = 2x' - lo, Y = lo - 2y'
    X += lo
    np.subtract(lo, Y, out=Y)
    pair = state[:2]
    pair >>= 1
    x2, y2 = pair.astype(np.int64, copy=False)
    return (x2, y2) if J <= K else (y2, x2)
