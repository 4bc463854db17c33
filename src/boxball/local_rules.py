"""The local two-cell update of the box-ball system with box capacity J and
carrier capacity K, together with its exact algebraic symmetries.

A cell pair (a, b) holds the box occupancy a and the carrier load b before
the carrier visits the box.  The update deposits as many balls as fit in the
empty space of the box and picks up as many as the carrier has spare capacity
for; every other operation in the package reduces to repeated application of
this map.
"""

from __future__ import annotations

import enum
from typing import Optional, Tuple

import numpy as np

from .capacities import INF, Capacity, is_finite, validate_capacity
from .errors import EitherCapacityInfinite, InvalidCell, RangeViolation

CellPair = Tuple[int, int]


class Case(enum.Enum):
    """Region of the (a, b) square selected by a + b, lowest number wins on
    boundary overlaps (the formulas agree there)."""

    ONE = "one"        # 0 <= a+b <= min{J, K}: swap
    TWO_A = "two_a"    # J <= a+b <= K: box empties into the carrier
    TWO_B = "two_b"    # K <= a+b <= J: carrier empties into the box
    THREE = "three"    # a+b >= max{J, K}: saturated exchange


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


def net_transfer(J: Capacity, K: Capacity, a: np.ndarray, b: np.ndarray,
                 out: Optional[np.ndarray], scratch: Optional[np.ndarray]) -> np.ndarray:
    """The unvalidated net transfer min{b, J-a} - min{a, K-b} on int64 arrays,
    written into ``out`` via ``scratch`` (neither may overlap a or b; None
    allocates); an infinite capacity is branched on, as it limits nothing."""
    deposit = b if J == INF else np.minimum(np.subtract(J, a, out=out), b, out=out)
    if K == INF:
        return np.subtract(deposit, a, out=out)
    pickup = np.minimum(np.subtract(K, b, out=scratch), a, out=scratch)
    return np.subtract(deposit, pickup, out=out)


def local_map_array(J: Capacity, K: Capacity, a: np.ndarray,
                    b: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The unvalidated local map (a + net, b - net), allocating its arrays."""
    net = net_transfer(J, K, a, b, None, None)
    return a + net, b - net


def local_case(J: Capacity, K: Capacity, pair: CellPair) -> Case:
    """Which closed-form branch of the local map applies to (a, b)."""
    a, b = check_cell(J, K, pair)
    s = a + b
    if s <= min(J, K):
        return Case.ONE
    if J <= s <= K:
        return Case.TWO_A
    if K <= s <= J:
        return Case.TWO_B
    return Case.THREE


def sigma_dual(J: Capacity, K: Capacity, pair: CellPair) -> CellPair:
    """Empty/ball complement (a, b) -> (J-a, K-b); finite capacities only.

    Commutes with the local map.
    """
    if not (is_finite(J) and is_finite(K)):
        raise EitherCapacityInfinite("sigma duality needs finite J and K")
    a, b = check_cell(J, K, pair)
    return J - a, K - b


def reduced_map(J: Capacity, K: Capacity, r: int, pair: CellPair) -> CellPair:
    """Apply the local map of the r-reduced system BBS(J-2r, K-2r) to the
    shifted pair (a-r, b-r).

    Requires min{J, K} > 2r and a in [r, J-r], b in [r, K-r]; equals the
    unreduced update shifted down by r in both coordinates.
    """
    if r < 0 or not isinstance(r, int):
        raise RangeViolation(f"reduction floor must be a nonnegative integer, got {r}")
    if min(J, K) <= 2 * r:
        raise RangeViolation(f"min(J, K) = {min(J, K)} must exceed 2r = {2 * r}")
    a, b = check_cell(J, K, pair)
    if not (r <= a <= J - r and r <= b <= K - r):
        raise RangeViolation(f"pair {pair} outside the reduced band for r={r}")
    Jr = J - 2 * r if is_finite(J) else J
    Kr = K - 2 * r if is_finite(K) else K
    return local_map(Jr, Kr, (a - r, b - r))
