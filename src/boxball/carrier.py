"""Carrier construction for a configuration window in every capacity regime.

The carrier load after each site satisfies W_n = F2(eta_n, W_{n-1}), and in
every regime one site's update is a monotone clamp map of the entering
load.  One kernel, ``sweep_row``, composes these maps by a prefix scan;
every carrier of the package comes from it.  Seed detection sweeps from the
two ends of the admissible load band and forces the load where the sweeps
meet.  For J < K = inf the band is unbounded and the carrier is a running
maximum over the whole past, so no window forces it and a Detect row is
``Undetermined``.  The reflected-path transform for J < K is kept as the
paper's view of the same carrier.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .capacities import INF, Capacity, validate_capacity
from .errors import FloorTooLarge, InvalidCell, InvalidParams, ParityViolation, Undetermined
from .lattice import (
    BoundaryMode,
    Config,
    IidInvariant,
    PathEncoding,
    SeededCarrier,
    ZeroPad,
)
from .local_rules import local_map


# ---------------------------------------------------------------------------
# carrier paths
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CarrierPath:
    """Loads W_n for consecutive sites; left_seed is W at offset-1 when known."""

    offset: int
    values: Tuple[int, ...]
    left_seed: Optional[int]

    def __len__(self) -> int:
        return len(self.values)

    @property
    def end(self) -> int:
        return self.offset + len(self.values) - 1

    def at(self, n: int) -> int:
        if n == self.offset - 1 and self.left_seed is not None:
            return self.left_seed
        if self.offset <= n <= self.end:
            return self.values[n - self.offset]
        raise KeyError(f"carrier value at {n} not covered")


@dataclass(frozen=True)
class SeedReport:
    position: int
    forced_value: int


def verify_carrier(J: Capacity, K: Capacity, c: Config, w: CarrierPath) -> bool:
    """Check W_n = F2(eta_n, W_{n-1}) at every site where both are covered."""
    start = w.offset if w.left_seed is not None else w.offset + 1
    for n in range(start, w.end + 1):
        if n < c.offset or n > c.end:
            continue
        prev = w.at(n - 1)
        if local_map(J, K, (c.at(n), prev))[1] != w.at(n):
            return False
    return True


# ---------------------------------------------------------------------------
# the carrier kernel
# ---------------------------------------------------------------------------


def sweep(J: Capacity, K: Capacity, c: Config, seed: int,
          drain: bool = False) -> Tuple[CarrierPath, Config]:
    """Left-to-right application of the local map with the given entering load.

    Returns the carrier path and the updated configuration on the same
    window.  With ``drain=True`` the sweep continues over empty cells past
    the window end until the carrier empties, extending the output (used for
    zero-padded configurations so mass is conserved).
    """
    _, w, teta = advance_row(J, K, c.array(), seed, ZeroPad() if drain else SeededCarrier(seed))
    cfg = Config.from_array(c.offset, teta, c.J, c.boundary)
    return CarrierPath(c.offset, tuple(w.tolist()), seed), cfg


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
            lo[d:], hi[d:] = (np.clip(lo[:-d] + u_o, lo_o, hi_o),
                              np.clip(hi[:-d] + u_o, lo_o, hi_o))
            u[d:] = u[:-d] + u_o
            d *= 2
        v = np.clip(seed + u, lo, hi)
    w = sign * v
    w_prev = np.concatenate([[seed], w[:-1]])
    return w, eta + w_prev - w


# ---------------------------------------------------------------------------
# reflected-path transform for J < K: the paper's view, used by the tests
# ---------------------------------------------------------------------------


def pitman_M(p: PathEncoding, gap: Capacity, left_init: int) -> Tuple[int, ...]:
    """Clamped running maximum of the two-point average, in doubled units.

    ``gap`` is 2(K - J) (INF for unbounded carriers), ``left_init`` the
    doubled M value at offset-1.  The recursion
    M_n = min(max(M_{n-1}, D~_n), D~_n + gap) is total, so any integral
    left_init of the correct parity is accepted.
    """
    if gap != INF and (not isinstance(gap, int) or gap <= 0 or gap % 2):
        raise InvalidParams(f"gap must be a positive even integer or INF, got {gap!r}")
    dtil = p.dtilde()
    m = left_init
    out = []
    for s in dtil:
        m = min(max(m, s), s + gap)     # s + INF never binds
        out.append(m)
    return tuple(out)


def carrier_from_path(p: PathEncoding, m2, J: Capacity) -> Tuple[int, ...]:
    """Extract loads W_n = (M2_n - D_n + J)/2; raises on parity mismatch."""
    out = []
    for m, d in zip(m2, p.D):
        num = m - d + J
        if num % 2:
            raise ParityViolation("carrier extraction non-integral; check left_init parity")
        if num < 0:
            raise ParityViolation("negative load extracted; left_init below the window")
        out.append(num // 2)
    return tuple(out)


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
    i, w, _ = _forced_sweep(J, K, c.array(), floor)
    return None if i is None else SeedReport(c.offset + i, int(w[i]))


# ---------------------------------------------------------------------------
# canonical carrier per boundary mode
# ---------------------------------------------------------------------------


def _resolve_seed(c: Config, t: int) -> Optional[int]:
    """Entering load of row t implied by the boundary mode; None under Detect."""
    b = c.boundary
    if isinstance(b, ZeroPad):
        return 0
    if isinstance(b, SeededCarrier):
        return b.seed
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
        raise ValueError(f"config carries J={c.J}, got J={J}")
    seed = _resolve_seed(c, t)
    i, w, _ = advance_row(J, K, c.array(), seed, c.boundary)
    return CarrierPath(c.offset + i, tuple(w[:len(c) - i].tolist()), seed)


def essential_boundary(J: Capacity, K: Capacity, c: Config,
                       w: CarrierPath) -> Optional[int]:
    """Largest window index N with min{J,K} <= eta_n + W_{n-1} <= max{J,K}
    for every covered n <= N; None when the first covered cell already
    fails (the infinite-system value would be below the window)."""
    lo, hi = min(J, K), max(J, K)
    start = w.offset if w.left_seed is not None else w.offset + 1
    best: Optional[int] = None
    for n in range(max(start, c.offset), min(w.end, c.end) + 1):
        if lo <= c.at(n) + w.at(n - 1) <= hi:
            best = n
        else:
            break
    return best
