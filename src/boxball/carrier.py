"""Carrier construction for a configuration window in every capacity regime.

The carrier load after each site satisfies W_n = F2(eta_n, W_{n-1}), and in
every regime one site's update is a monotone clamp map of the entering
load.  One kernel, ``sweep_row``, composes these maps by a prefix scan;
every carrier of the package comes from it, and a ``CarrierPath`` holds a
read-only int64 copy of its loads.  Seed detection sweeps from the two ends
of the admissible load band and forces the load where the sweeps meet.  For
J < K = inf the band is unbounded and the carrier is a running maximum over
the whole past, so no window forces it and a Detect row is
``Undetermined``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .capacities import INF, Capacity, validate_capacity
from .errors import FloorTooLarge, InvalidCell, InvalidParams, Undetermined
from .lattice import (
    ArrayFields,
    BoundaryMode,
    Config,
    IidInvariant,
    ZeroPad,
    frozen_int64,
)


# ---------------------------------------------------------------------------
# carrier paths
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CarrierPath(ArrayFields):
    """Loads W_n for consecutive sites as a read-only int64 array; left_seed
    is W at offset-1 when known."""

    offset: int
    values: np.ndarray
    left_seed: Optional[int]

    def __post_init__(self):
        object.__setattr__(self, "values", frozen_int64(self.values, "load"))

    def __len__(self) -> int:
        return len(self.values)

    @property
    def end(self) -> int:
        return self.offset + len(self.values) - 1

    def at(self, n: int) -> int:
        if n == self.offset - 1 and self.left_seed is not None:
            return self.left_seed
        if self.offset <= n <= self.end:
            return self.values.item(n - self.offset)
        raise KeyError(f"carrier value at {n} not covered")


@dataclass(frozen=True)
class SeedReport:
    position: int
    forced_value: int


# ---------------------------------------------------------------------------
# the carrier kernel
# ---------------------------------------------------------------------------


def sweep(J: Capacity, K: Capacity, c: Config, seed: int,
          drain: bool = False) -> Tuple[CarrierPath, Config]:
    """Left-to-right application of the local map with the given entering load.

    Returns the carrier path and the updated configuration on the same
    window: a row under ``IidInvariant((seed,))``, or with ``drain=True`` a
    ``ZeroPad`` row, which continues over empty cells past the window end
    until the carrier empties, extending the output (so mass is conserved).
    """
    _, w, teta = advance_row(J, K, c.cells, seed, ZeroPad() if drain else IidInvariant((seed,)))
    return CarrierPath(c.offset, w, seed), Config(c.offset, teta, c.J, c.boundary)


def advance_row(J: Capacity, K: Capacity, eta: np.ndarray, seed: Optional[int],
                boundary: BoundaryMode) -> Tuple[int, np.ndarray, np.ndarray]:
    """One row of the dynamics on the window cells ``eta``: (i, W, T eta),
    W the loads from window index i on and T eta the next row's cells from
    index i (seeded rows) or i + 1 (Detect rows).

    A seeded row starts at i = 0 from its entering load ``seed``; under
    ``ZeroPad`` it drains over empty cells past the window end, so W and
    T eta may be longer than the window.  A Detect row (``seed`` None)
    starts at the forced index of ``detect_seed`` and raises
    ``Undetermined`` when there is none, always for J < K = inf (after the
    floor and cell checks).
    """
    if seed is None:
        i, w, teta = _forced_sweep(J, K, eta, boundary.floor)
        if i is None:
            why = ("for J < K = inf the carrier is a running maximum over the "
                   "unbounded past; exact rows need --boundary iid --currents ... "
                   "(drawn from the dual measure) or --carrier-seed"
                   if J < K == INF else "consistent with an alternating/degenerate tail")
            raise Undetermined(f"no forced carrier value in window: {why}")
        return i, w[i:], teta[i + 1:]
    validate_capacity(K, "K")
    if not (0 <= seed <= K):
        raise InvalidCell(f"seed {seed} outside [0, {K}]")
    w, teta = sweep_row(J, K, eta, seed)
    if isinstance(boundary, ZeroPad) and w[-1] > 0:
        # each empty cell takes min(W, J) balls off the carrier
        left = int(w[-1])
        extra = 1 if J == INF else -(-left // J)
        w2, teta2 = sweep_row(J, K, np.zeros(extra, dtype=np.int64), left)
        w, teta = np.concatenate([w, w2]), np.concatenate([teta, teta2])
    return 0, w, teta


def sweep_row(J: Capacity, K: Capacity, eta: np.ndarray,
              seed: int) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorised sweep of one row: returns (W, T eta) as int64 arrays.

    Box a turns the entering load into W' = clip(s*W + u_a, lo_a, hi_a):
    for J <= K, s = +1, u_a = 2a - J, lo_a = a, hi_a = K - J + a; for
    J > K, s = -1, u_a = K, lo_a = K - J + a, hi_a = a.  For J > K the
    alternating signs V_n = (-1)^(n+1) W_n make every map increasing.
    Increasing clamp maps are closed under composition, so every prefix map
    comes from one doubling scan, stopped once every composed window map is
    constant.  An infinite J is replaced by a finite one that no load of the
    row reaches; for K = inf the prefix maps reduce to a cumulative sum and
    a running maximum.
    """
    eta = np.asarray(eta, dtype=np.int64)
    n = len(eta)
    if n == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    if J == INF or K == INF:
        # loads and partial sums below stay within (n + 2)(seed + J), for
        # J = inf a bound on the J set below; checked on Python ints
        top = J if J != INF else max(seed + n * int(eta.max()), K if K != INF else 0) + 1
        if (n + 2) * (seed + top) >= 2 ** 63:
            raise InvalidCell(f"a row of {n} cells entered by load {seed} may leave int64")
    if J == INF:
        # a + W never exceeds the balls entering or inside the row
        J = max(seed + int(eta.sum()), K if K != INF else 0) + 1
    sign = 1
    if K == INF:
        # W' = max(W + u_a, a): W_n = U_n + max(seed, max_{k<=n} (a_k - U_k))
        u = np.cumsum(2 * eta - J)
        v = u + np.maximum.accumulate(np.maximum(eta - u, seed))
    else:
        if J <= K:
            u, lo = 2 * eta - J, eta.copy()
        else:
            sign = np.ones(n, dtype=np.int64)
            sign[::2] = -1
            u = sign * K
            lo = np.where(sign > 0, eta + (K - J), -eta)
        hi = lo + abs(K - J)
        d = 1
        # before the pass with shift d, entry i holds the composed map of
        # boxes max(0, i-d+1)..i, a full prefix for i < d; once every window
        # (i >= d) is constant, so is every prefix
        while d < n and (lo[d:] != hi[d:]).any():
            u_o, lo_o, hi_o = u[d:], lo[d:], hi[d:]
            # clip(x, lo_o, hi_o) = min(max(x, lo_o), hi_o); read lo_o, hi_o first
            lo_n, hi_n = lo[:-d] + u_o, hi[:-d] + u_o
            np.maximum(hi_n, lo_o, out=hi_n)
            np.minimum(np.maximum(lo_n, lo_o, out=lo_n), hi_o, out=lo_o)
            np.minimum(hi_n, hi_o, out=hi_o)
            del lo_n, hi_n      # no temporaries outlive a pass (peak memory)
            u[d:] = u[:-d] + u_o
            d *= 2
        v = np.minimum(np.maximum(u + seed, lo, out=u), hi, out=u)
    w = sign * v
    w_prev = np.concatenate([[seed], w[:-1]])
    return w, eta + w_prev - w


# ---------------------------------------------------------------------------
# seed detection
# ---------------------------------------------------------------------------


def _forced_sweep(J: Capacity, K: Capacity, eta: np.ndarray,
                  floor: int) -> Tuple[Optional[int], Optional[np.ndarray],
                                       Optional[np.ndarray]]:
    """(i, W, T eta): the row swept from the band's lower end and the first
    window index i whose load is forced, exact from i on; i is None when
    no load is forced.  For J < K = inf the band is unbounded, so nothing
    is forced and nothing is swept: (None, None, None) after the checks."""
    validate_capacity(J, "J")
    validate_capacity(K, "K")
    if floor < 0:
        raise FloorTooLarge(f"floor must be >= 0, got {floor}")
    if min(J, K) <= 2 * floor:
        raise FloorTooLarge(f"need min(J, K) > 2*floor, got {min(J, K)} <= {2 * floor}")
    if eta.min() < floor or eta.max() > J - floor:
        raise InvalidCell(f"window cells must lie in [{floor}, {J - floor}] for floor {floor}")
    if J < K == INF:
        return None, None, None
    w, teta = sweep_row(J, K, eta, floor)
    # an infinite J deposits every entering load, so for J = K = inf any
    # finite load stands in for the band's unbounded top
    top, _ = sweep_row(J, K, eta, K - floor if K != INF else floor + 1)
    met = np.flatnonzero(w == top)
    return (int(met[0]) if len(met) else None), w, teta


def detect_seed(J: Capacity, K: Capacity, c: Config, floor: int = 0) -> Optional[SeedReport]:
    """Find the first window position where every admissible carrier is forced.

    Carriers enter the window with a load in the band [floor, K - floor];
    cells outside [floor, J - floor] raise InvalidCell.  Every site map is
    monotone, so the loads reachable at a site lie between the sweeps from
    the band's two ends; the load is forced where they meet.  J < K = inf:
    the band is unbounded and no finite window forces the carrier, returns
    None.
    """
    i, w, _ = _forced_sweep(J, K, c.cells, floor)
    return None if i is None else SeedReport(c.offset + i, int(w[i]))


# ---------------------------------------------------------------------------
# canonical carrier per boundary mode
# ---------------------------------------------------------------------------


def _resolve_seed(b: BoundaryMode, t: int) -> Optional[int]:
    """Entering load of row t under boundary b: 0, currents[t] or None."""
    if isinstance(b, ZeroPad):
        return 0
    if isinstance(b, IidInvariant):
        if t >= len(b.currents):
            raise InvalidParams(f"row t={t} needs a current, but only "
                                f"{len(b.currents)} currents are given")
        return b.currents[t]
    return None


def canonical_carrier(J: Capacity, K: Capacity, c: Config, t: int = 0) -> CarrierPath:
    """Window restriction of the canonical carrier under the window's
    boundary mode.

    Seeded modes sweep from the supplied load.  Detect mode starts the
    restriction at the first forced position (``detect_seed``) and raises
    ``Undetermined`` when there is none, always for J < K = inf.
    """
    if J != c.J:
        raise InvalidParams(f"config carries J={c.J}, got J={J}")
    seed = _resolve_seed(c.boundary, t)
    i, w, _ = advance_row(J, K, c.cells, seed, c.boundary)
    return CarrierPath(c.offset + i, w[:len(c) - i], seed)

