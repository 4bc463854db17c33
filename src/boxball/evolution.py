"""Time dynamics of the box-ball system: forward and backward steps,
space-time blocks, boundary currents and order-preserving ball tracking.

A space-time block records occupancies and carrier loads over a rectangle of
(site, time); the column of carrier values at a fixed site is the current,
which itself evolves as a configuration of the dual system with box and
carrier capacities exchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .capacities import Capacity
from .carrier import CarrierPath, _detect_row, _resolve_seed, sweep
from .errors import (
    BoundaryNotReversible,
    InvalidParams,
    OutOfWindow,
    TrackedBallAbsent,
    Undetermined,
    WindowExceeded,
)
from .lattice import (
    BallLabels,
    Config,
    Detect,
    ZeroPad,
    label_balls,
    reverse,
)
from .local_rules import check_cell, local_map_array


# ---------------------------------------------------------------------------
# single steps
# ---------------------------------------------------------------------------


def _advance(J: Capacity, K: Capacity, c: Config,
             seed: Optional[int]) -> Tuple[CarrierPath, Optional[Config]]:
    """The carrier of row c and the next row.  Seeded rows are swept from
    ``seed`` (zero-padded ones drained); Detect rows (seed None) keep only
    the cells right of the forced position, and the next row is None when
    none remain."""
    if seed is not None:
        return sweep(J, K, c, seed, drain=isinstance(c.boundary, ZeroPad))
    return _detect_row(J, K, c)


def step(J: Capacity, K: Capacity, c: Config, t: int = 0) -> Config:
    """One forward evolution of the window.

    Zero-padded windows extend on the right until the carrier drains, so the
    ball count is conserved.  Detect mode returns the sub-window right of the
    forced carrier position (the rest is not determined by the window).
    """
    if J != c.J:
        raise ValueError(f"config carries J={c.J}, got J={J}")
    nxt = _advance(J, K, c, _resolve_seed(c, t))[1]
    if nxt is None:
        raise Undetermined("window exhausted: no cell right of the forced position")
    return nxt


def inverse_step(J: Capacity, K: Capacity, c: Config) -> Config:
    """Backward evolution, realised as reverse-step-reverse."""
    if not isinstance(c.boundary, (ZeroPad, Detect)):
        raise BoundaryNotReversible(
            "backward evolution needs a boundary meaningful under reversal "
            "(zero padding or detection)")
    return reverse(step(J, K, reverse(c)))


# ---------------------------------------------------------------------------
# space-time blocks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpaceTimeBlock:
    """Rows (Config, CarrierPath) for t = 0..T.  Each carrier's left_seed
    is the load entering its row; ``left_currents`` reads that column."""

    J: Capacity
    K: Capacity
    rows: Tuple[Tuple[Config, CarrierPath], ...]

    @property
    def left_currents(self) -> Tuple[Optional[int], ...]:
        """The left boundary currents, one per row; None under Detect."""
        return tuple(w.left_seed for _, w in self.rows)

    @property
    def t_max(self) -> int:
        return len(self.rows) - 1

    def config(self, t: int) -> Config:
        return self.rows[t][0]

    def carrier(self, t: int) -> CarrierPath:
        return self.rows[t][1]


def evolve_block(J: Capacity, K: Capacity, c: Config, t_max: int) -> SpaceTimeBlock:
    """Evolve t_max steps recording every row with its carrier.

    Seeds for rows 0..t_max come from the boundary mode.  Zero-padded rows
    are drained and then padded to a common window; Detect rows shrink from
    the left as determinacy is lost.
    """
    if t_max < 0:
        raise InvalidParams(f"step count must be >= 0, got {t_max}")
    rows: List[Tuple[Config, CarrierPath]] = []
    cur = c
    for t in range(t_max + 1):
        w, nxt = _advance(J, K, cur, _resolve_seed(cur, t))
        if len(w) > len(cur):  # drained past the window end
            cur = cur.with_cells(cur.offset, cur.cells + (0,) * (len(w) - len(cur)))
        rows.append((cur, w))
        if nxt is None and t < t_max:
            raise Undetermined("window exhausted during block evolution")
        cur = nxt

    if isinstance(c.boundary, ZeroPad):
        # pad all rows (occupancies and loads) to the union window
        hi = max(cfg.end for cfg, _ in rows)
        padded = []
        for cfg, w in rows:
            k = hi - cfg.end
            if k:
                cfg = cfg.with_cells(cfg.offset, cfg.cells + (0,) * k)
                w = CarrierPath(w.offset, w.values + (0,) * k, w.left_seed)
            padded.append((cfg, w))
        rows = padded
    return SpaceTimeBlock(J, K, tuple(rows))


def current_column(b: SpaceTimeBlock, n: int) -> Tuple[Optional[int], ...]:
    """Loads at site n for each time row; n = offset-1 gives the left
    boundary currents."""
    offsets = [w.offset for _, w in b.rows]
    if n == min(offsets) - 1:
        return b.left_currents
    out = []
    for _, w in b.rows:
        if not (w.offset <= n <= w.end):
            raise OutOfWindow(f"site {n} not covered by every row")
        out.append(w.at(n))
    return tuple(out)


@dataclass(frozen=True)
class DualityReport:
    violations: int
    cells_checked: int
    first_violation: Optional[Tuple[int, int]] = None  # (n, t)


def duality_verify(b: SpaceTimeBlock) -> DualityReport:
    """Check that each occupancy column is a BBS(K, J) carrier for the
    current column one site to its left: F2_{K,J}(W^t_n, eta^t_{n+1})
    must equal eta^{t+1}_{n+1} at every interior cell.  One array local
    map checks a whole row; loads are validated as ``local_map`` does."""
    J, K = b.J, b.K
    occ = [cfg.array() for cfg, _ in b.rows]
    bad = checked = 0
    first = None
    for t in range(b.t_max):
        cfg0, w0 = b.rows[t]
        cfg1 = b.rows[t + 1][0]
        lo = max(w0.offset, cfg0.offset - 1, cfg1.offset - 1)
        hi = min(w0.end, cfg0.end - 1, cfg1.end - 1)
        if hi < lo:
            continue
        loads = w0.values[lo - w0.offset:hi + 1 - w0.offset]
        i0, i1, m = lo + 1 - cfg0.offset, lo + 1 - cfg1.offset, hi + 1 - lo
        eta0 = occ[t][i0:i0 + m]
        # validate as local_map: the first pair (capacities too), the rest in bulk
        check_cell(K, J, (loads[0], cfg0.cells[i0]))
        w = np.array(loads, dtype=np.int64) if set(map(type, loads)) == {int} else None
        if w is None or w.min() < 0 or w.max() > K or eta0.max() > J:
            for pair in zip(loads, cfg0.cells[i0:]):
                check_cell(K, J, pair)
            w = np.array(loads, dtype=np.int64)
        miss = np.flatnonzero(local_map_array(K, J, w, eta0)[1] != occ[t + 1][i1:i1 + m])
        checked += m
        bad += len(miss)
        if first is None and len(miss):
            first = (lo + int(miss[0]), t)
    return DualityReport(bad, checked, first)


# ---------------------------------------------------------------------------
# order-preserving tagged dynamics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TaggedState:
    """Configuration with ball identities; ``exited`` lists balls carried
    past the right window edge (fixed-window modes only)."""

    config: Config
    labels: BallLabels
    exited: Tuple[int, ...] = ()

    def occupancies(self) -> Tuple[int, ...]:
        return tuple(len(s) for s in self.labels.per_site)


def tagged_state(c: Config) -> TaggedState:
    return TaggedState(c, label_balls(c))


def default_tracked_ball(s: TaggedState) -> int:
    """The left-most ball at a site >= 1."""
    for n in range(max(s.config.offset, 1), s.config.end + 1):
        ids = s.labels.site(n)
        if ids:
            return ids[0]
    raise TrackedBallAbsent("no ball at any site >= 1")


def tagged_evolve(J: Capacity, K: Capacity, s: TaggedState, t_max: int,
                  tracked: Optional[int] = None,
                  ) -> Tuple[Tuple[Tuple[int, int], ...], TaggedState]:
    """Evolve with ball identities: at each site the carrier queue followed
    by the box contents is split so the first (T eta)_n balls stay put and
    the remaining W_n travel on.  Returns the (site, rank) trajectory of the
    tracked ball and the final state.

    Balls injected by boundary currents receive fresh indices below all
    existing ones (they come from the left).  The occupancy process equals
    the plain dynamics exactly.
    """
    if tracked is None:
        tracked = default_tracked_ball(s)
    cfg = s.config
    sites = [list(ids) for ids in s.labels.per_site]
    offset = s.labels.offset
    exited = list(s.exited)
    next_low = min([0] + [i for grp in sites for i in grp])

    def locate(ball: int) -> Tuple[int, int]:
        for i, grp in enumerate(sites):
            if ball in grp:
                return offset + i, grp.index(ball) + 1
        raise WindowExceeded(f"tracked ball {ball} left the window")

    if not any(tracked in grp for grp in sites):
        raise TrackedBallAbsent(f"ball {tracked} not present")
    trajectory = [locate(tracked)]

    for t in range(t_max):
        seed = _resolve_seed(cfg, t)
        if seed is None:
            raise BoundaryNotReversible("tagged dynamics need a seeded boundary mode")
        w_path, nxt = _advance(J, K, cfg, seed)
        if len(nxt) > len(cfg):
            sites.extend([] for _ in range(len(nxt) - len(cfg)))
            cfg = cfg.with_cells(cfg.offset, cfg.cells + (0,) * (len(nxt) - len(cfg)))
        # fresh identities for injected balls, ordered within the batch
        queue = list(range(next_low - seed, next_low))
        next_low -= seed
        w_prev = seed
        for i in range(len(cfg)):
            pool = queue + sites[i]
            keep = nxt.cells[i]
            assert len(pool) == cfg.cells[i] + w_prev
            sites[i] = pool[:keep]
            queue = pool[keep:]
            w_prev = w_path.values[i]
        exited.extend(queue)
        if tracked in queue:
            raise WindowExceeded(f"tracked ball {tracked} carried past the window")
        cfg = nxt
        trajectory.append(locate(tracked))

    labels = BallLabels(cfg.offset, tuple(tuple(grp) for grp in sites))
    return tuple(trajectory), TaggedState(cfg, labels, tuple(exited))
