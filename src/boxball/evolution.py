"""Time dynamics of the box-ball system: forward and backward steps,
space-time blocks, boundary currents and order-preserving ball tracking.

A space-time block records occupancies and carrier loads over a rectangle of
(site, time); the column of carrier values at a fixed site is the current,
which itself evolves as a configuration of the dual system with box and
carrier capacities exchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property
from typing import Optional, Sequence, Tuple

import numpy as np

from .capacities import Capacity, validate_capacity
from .carrier import CarrierPath, _resolve_seed, advance_row
from .errors import (
    BoundaryNotReversible,
    InvalidCell,
    InvalidParams,
    OutOfWindow,
    TrackedBallAbsent,
    Undetermined,
    WindowExceeded,
)
from .lattice import (
    BallLabels,
    BoundaryMode,
    Config,
    Detect,
    IidInvariant,
    ZeroPad,
    label_balls,
    reverse,
)
from .local_rules import check_cell, local_map_array

_MAP_CELLS = 2 ** 14    # cells per local map call of duality_verify


# ---------------------------------------------------------------------------
# single steps
# ---------------------------------------------------------------------------


def step(J: Capacity, K: Capacity, c: Config, t: int = 0) -> Config:
    """One forward evolution of the window.

    Zero-padded windows extend on the right until the carrier drains, so the
    ball count is conserved.  Detect mode returns the sub-window right of the
    forced carrier position (the rest is not determined by the window).
    """
    if J != c.J:
        raise ValueError(f"config carries J={c.J}, got J={J}")
    seed = _resolve_seed(c, t)
    i, _, nxt = advance_row(J, K, c.array(), seed, c.boundary)
    if not len(nxt):
        raise Undetermined("window exhausted: no cell right of the forced position")
    return Config.from_array(c.offset + i + (seed is None), nxt, c.J, c.boundary)


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


@dataclass(frozen=True, eq=False)
class SpaceTimeBlock:
    """Rows t = 0..T of a space-time block, held as two int64 arrays over
    the sites offset, offset + 1, ...: ``occ[t, j]`` and ``load[t, j]`` are
    the occupancy and the carrier load W of row t at site offset + j.  Row t
    stores occupancies in the columns ``occ_span[t]`` and loads in
    ``load_span[t]`` (half-open [lo, hi)); every other entry is 0, and the
    columns are the union of the rows' sites.  ``left_currents[t]`` is the
    load entering row t (None under Detect).  Every row shares the boundary
    mode; ``config(t)``, ``carrier(t)`` and ``rows`` are views."""

    J: Capacity
    K: Capacity
    offset: int
    occ: np.ndarray
    load: np.ndarray
    occ_span: np.ndarray
    load_span: np.ndarray
    left_currents: Tuple[Optional[int], ...]
    boundary: BoundaryMode

    def __post_init__(self):
        validate_capacity(self.J, "J")
        occ = self.occ
        if not (occ.dtype == self.load.dtype == np.int64 and occ.ndim == 2
                and occ.shape == self.load.shape):
            raise InvalidParams("a block needs int64 occupancy and load arrays "
                                "of one 2-d shape")
        if occ.size and (occ.min() < 0 or occ.max() > self.J):
            t, j = np.argwhere((occ < 0) | (occ > self.J))[0]
            raise InvalidCell(f"cell value {int(occ[t, j])!r} outside [0, {self.J}]")

    @classmethod
    def from_spans(cls, J: Capacity, K: Capacity,
                   occ_rows: Sequence[Tuple[int, Sequence[int]]],
                   load_rows: Sequence[Tuple[int, Sequence[int]]],
                   left_currents: Sequence[Optional[int]],
                   boundary: BoundaryMode) -> "SpaceTimeBlock":
        """The block of per-row (first site, values) occupancies and loads;
        every value must be an integer."""
        if not occ_rows:
            raise InvalidParams("a block needs at least one time row")
        ends = [(s, s + len(v)) for s, v in (*occ_rows, *load_rows)]
        lo, hi = min(a for a, _ in ends), max(b for _, b in ends)
        grids = []
        for rows, what in ((occ_rows, "cells"), (load_rows, "loads")):
            grid = np.zeros((len(rows), hi - lo), dtype=np.int64)
            span = np.array([(s - lo, s - lo + len(v)) for s, v in rows],
                            dtype=np.int64).reshape(-1, 2)
            for g, (a, b), (_, v) in zip(grid, span.tolist(), rows):
                bad = np.asarray(v).dtype.kind not in "iu" and [
                    x for x in v if not isinstance(x, (int, np.integer))]
                if bad:
                    raise InvalidCell(f"{what} must be integers, got {bad[0]!r}")
                g[a:b] = v
            grids += [grid, span]
        occ, occ_span, load, load_span = grids
        return cls(J, K, lo, occ, load, occ_span, load_span, tuple(left_currents), boundary)

    def __eq__(self, other) -> bool:
        return isinstance(other, SpaceTimeBlock) and all(
            np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
            for a, b in ((getattr(self, f.name), getattr(other, f.name))
                         for f in fields(self)))

    def __hash__(self) -> int:
        return hash((self.J, self.K, self.offset, self.left_currents, self.boundary))

    @property
    def t_max(self) -> int:
        return len(self.occ) - 1

    def config(self, t: int) -> Config:
        lo, hi = self.occ_span[t].tolist()
        return Config.from_array(self.offset + lo, self.occ[t, lo:hi], self.J, self.boundary)

    def carrier(self, t: int) -> CarrierPath:
        lo, hi = self.load_span[t].tolist()
        return CarrierPath(self.offset + lo, tuple(self.load[t, lo:hi].tolist()),
                           self.left_currents[t])

    @cached_property
    def rows(self) -> Tuple[Tuple[Config, CarrierPath], ...]:
        """(Config, CarrierPath) for t = 0..T, built on first use."""
        return tuple((self.config(t), self.carrier(t)) for t in range(self.t_max + 1))


def evolve_block(J: Capacity, K: Capacity, c: Config, t_max: int) -> SpaceTimeBlock:
    """Evolve t_max steps recording every row with its carrier.

    Seeds for rows 0..t_max come from the boundary mode; an
    ``IidInvariant`` block keeps only the currents its rows use.
    Zero-padded rows are drained and then padded to a common window; Detect
    rows shrink from the left as determinacy is lost.
    """
    if t_max < 0:
        raise InvalidParams(f"step count must be >= 0, got {t_max}")
    if J != c.J:
        raise InvalidParams(f"config carries J={c.J}, got J={J}")
    occ, load, seeds = [], [], []
    start, eta = c.offset, c.array()
    for t in range(t_max + 1):
        seed = _resolve_seed(c, t)
        i, w, nxt = advance_row(J, K, eta, seed, c.boundary)
        if len(w) > len(eta):   # drained past the window end
            eta = np.concatenate([eta, np.zeros(len(w) - len(eta), dtype=np.int64)])
        occ.append((start, eta))
        load.append((start + i, w))
        seeds.append(seed)
        if not len(nxt) and t < t_max:
            raise Undetermined("window exhausted during block evolution")
        start, eta = start + i + (seed is None), nxt

    boundary = c.boundary
    if isinstance(boundary, ZeroPad):
        # rows only grow: pad occupancies and loads to the last row's window
        hi = len(occ[-1][1])
        occ, load = ([(s, np.pad(v, (0, hi - len(v)))) for s, v in rows] for rows in (occ, load))
    elif isinstance(boundary, IidInvariant):
        boundary = IidInvariant(tuple(seeds))
    return SpaceTimeBlock.from_spans(J, K, occ, load, seeds, boundary)


def current_column(b: SpaceTimeBlock, n: int) -> Tuple[Optional[int], ...]:
    """Loads at site n for each time row; n = offset-1 gives the left
    boundary currents."""
    lo, hi = b.load_span.T
    if n == b.offset + int(lo.min()) - 1:
        return b.left_currents
    j = n - b.offset
    if not ((lo <= j) & (j < hi)).all():
        raise OutOfWindow(f"site {n} not covered by every row")
    return tuple(b.load[:, j].tolist())


@dataclass(frozen=True)
class DualityReport:
    violations: int
    cells_checked: int
    first_violation: Optional[Tuple[int, int]] = None  # (n, t)


def duality_verify(b: SpaceTimeBlock) -> DualityReport:
    """Check that each occupancy column is a BBS(K, J) carrier for the
    current column one site to its left: F2_{K,J}(W^t_n, eta^t_{n+1})
    must equal eta^{t+1}_{n+1} at every interior cell, that is wherever
    row t stores W^t_n and rows t, t+1 store the occupancy at n + 1.  Array
    local maps of a few rows each check the whole block; loads are
    validated as ``local_map`` does, and the first invalid cell raises its
    error."""
    J, K = b.J, b.K
    # interior columns [lo_t, hi_t) of row t, within the block's range [a, z)
    lo = np.maximum(b.load_span[:-1, 0], np.maximum(b.occ_span[:-1, 0], b.occ_span[1:, 0]) - 1)
    hi = np.minimum(b.load_span[:-1, 1], np.minimum(b.occ_span[:-1, 1], b.occ_span[1:, 1]) - 1)
    a, z = (int(lo.min()), int(hi.max())) if len(lo) else (0, 0)
    cols = np.arange(a, z)
    inside = (lo[:, None] <= cols) & (cols < hi[:, None])
    w, eta = b.load[:-1, a:z], b.occ[:-1, a + 1:z + 1]
    # validate as local_map: the first interior cell (capacities too), then
    # the first interior load outside [0, K]
    for cells in (inside, inside & ((w < 0) | (w > K))):
        if cells.any():
            t, j = _first(cells)
            check_cell(K, J, (int(w[t, j]), int(eta[t, j])))
    # a few rows per map call, so that the map's temporaries stay small
    miss, nxt = inside.copy(), b.occ[1:, a + 1:z + 1]
    chunk = max(1, _MAP_CELLS // max(z - a, 1))
    for r in range(0, len(w), chunk):
        rows = slice(r, r + chunk)
        miss[rows] &= local_map_array(K, J, w[rows], eta[rows])[1] != nxt[rows]
    bad = int(np.count_nonzero(miss))
    first = None
    if bad:
        t, j = _first(miss)
        first = (b.offset + a + j, t)
    return DualityReport(bad, int(np.count_nonzero(inside)), first)


def _first(mask: np.ndarray) -> Tuple[int, int]:
    """(row, column) of the first True entry of a 2-d mask in row order."""
    t, j = np.unravel_index(int(mask.argmax()), mask.shape)
    return int(t), int(j)


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

    cells = list(cfg.cells)
    for t in range(t_max):
        seed = _resolve_seed(cfg, t)
        if seed is None:
            raise BoundaryNotReversible("tagged dynamics need a seeded boundary mode")
        _, w, nxt = advance_row(J, K, np.array(cells, dtype=np.int64), seed, cfg.boundary)
        w, nxt = w.tolist(), nxt.tolist()
        sites.extend([] for _ in range(len(nxt) - len(cells)))
        cells += [0] * (len(nxt) - len(cells))
        # fresh identities for injected balls, ordered within the batch
        queue = list(range(next_low - seed, next_low))
        next_low -= seed
        w_prev = seed
        for i in range(len(cells)):
            pool = queue + sites[i]
            keep = nxt[i]
            assert len(pool) == cells[i] + w_prev
            sites[i] = pool[:keep]
            queue = pool[keep:]
            w_prev = w[i]
        exited.extend(queue)
        if tracked in queue:
            raise WindowExceeded(f"tracked ball {tracked} carried past the window")
        cells = nxt
        trajectory.append(locate(tracked))

    cfg = cfg.with_cells(cfg.offset, cells)
    labels = BallLabels(cfg.offset, tuple(tuple(grp) for grp in sites))
    return tuple(trajectory), TaggedState(cfg, labels, tuple(exited))
