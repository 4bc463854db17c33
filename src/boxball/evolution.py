"""Time dynamics of the box-ball system: forward and backward steps,
space-time blocks and boundary currents.

A space-time block records occupancies and carrier loads over a rectangle of
(site, time); the column of carrier values at a fixed site is the current,
which itself evolves as a configuration of the dual system with box and
carrier capacities exchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    Undetermined,
)
from .lattice import (
    ArrayFields,
    BoundaryMode,
    Config,
    Detect,
    IidInvariant,
    ZeroPad,
    frozen_int64,
    reverse,
)
from .local_rules import local_map_array

_MAP_CELLS = 2 ** 14    # cells per local map call of duality_verify


# ---------------------------------------------------------------------------
# single steps
# ---------------------------------------------------------------------------


def step(J: Capacity, K: Capacity, c: Config) -> Config:
    """One forward evolution of the window.

    Zero-padded windows extend on the right until the carrier drains, so the
    ball count is conserved.  Detect mode returns the sub-window right of the
    forced carrier position (the rest is not determined by the window).  An
    ``IidInvariant`` window enters with its first current.
    """
    if J != c.J:
        raise InvalidParams(f"config carries J={c.J}, got J={J}")
    seed = _resolve_seed(c.boundary, 0)
    i, _, nxt = advance_row(J, K, c.cells, seed, c.boundary)
    if not len(nxt):
        raise Undetermined("window exhausted: no cell right of the forced position")
    return Config(c.offset + i + (seed is None), nxt, c.J, c.boundary)


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
class SpaceTimeBlock(ArrayFields):
    """Rows t = 0..T of a space-time block, held as two int64 arrays over
    the sites offset, offset + 1, ...: ``occ[t, j]`` and ``load[t, j]`` are
    the occupancy and the carrier load W of row t at site offset + j.  Row t
    stores occupancies in the columns ``occ_span[t]`` and loads in
    ``load_span[t]`` (half-open [lo, hi)); every other entry is 0, and the
    columns are the union of the rows' sites.  Every row shares the boundary
    mode, which gives the load entering each row (an ``IidInvariant`` holds
    one per row); ``config(t)``, ``carrier(t)`` and ``rows`` are views.
    The constructor decides the ranges: occupancies in [0, J], loads and
    ``IidInvariant`` currents in [0, K] (``InvalidCell`` naming the first
    value outside), and it marks ``occ`` and ``load`` read-only."""

    J: Capacity
    K: Capacity
    offset: int
    occ: np.ndarray
    load: np.ndarray
    occ_span: np.ndarray
    load_span: np.ndarray
    boundary: BoundaryMode

    def __post_init__(self):
        J, K = validate_capacity(self.J, "J"), validate_capacity(self.K, "K")
        occ, load = self.occ, self.load
        if not (occ.dtype == load.dtype == np.int64 and occ.ndim == 2
                and occ.shape == load.shape):
            raise InvalidParams("a block needs int64 occupancy and load arrays "
                                "of one 2-d shape")
        for a, cap, what in ((occ, J, "cell value"), (load, K, "load")):
            if a.size and (a.min() < 0 or a.max() > cap):
                t, j = np.argwhere((a < 0) | (a > cap))[0]
                raise InvalidCell(f"{what} {int(a[t, j])!r} outside [0, {cap}]")
            a.flags.writeable = False
        if isinstance(self.boundary, IidInvariant):
            currents = self.boundary.currents
            if len(currents) != len(occ):
                raise InvalidParams(f"a block of {len(occ)} rows needs {len(occ)} currents, "
                                    f"got {len(currents)}")
            frozen_int64(currents, "current", 0, K)

    @classmethod
    def from_spans(cls, J: Capacity, K: Capacity,
                   occ_rows: Sequence[Tuple[int, Sequence[int]]],
                   load_rows: Sequence[Tuple[int, Sequence[int]]],
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
        return cls(J, K, lo, occ, load, occ_span, load_span, boundary)

    @property
    def t_max(self) -> int:
        return len(self.occ) - 1

    @property
    def left_currents(self) -> Tuple[Optional[int], ...]:
        """The load entering each row (None under Detect)."""
        return tuple(_resolve_seed(self.boundary, t) for t in range(len(self.occ)))

    def config(self, t: int) -> Config:
        lo, hi = self.occ_span[t].tolist()
        return Config(self.offset + lo, self.occ[t, lo:hi], self.J, self.boundary)

    def carrier(self, t: int) -> CarrierPath:
        lo, hi = self.load_span[t].tolist()
        return CarrierPath(self.offset + lo, self.load[t, lo:hi],
                           _resolve_seed(self.boundary, t))

    @cached_property
    def rows(self) -> Tuple[Tuple[Config, CarrierPath], ...]:
        """(Config, CarrierPath) for t = 0..T, built on first use."""
        return tuple((self.config(t), self.carrier(t)) for t in range(self.t_max + 1))


def evolve_block(J: Capacity, K: Capacity, c: Config, t_max: int) -> SpaceTimeBlock:
    """Evolve t_max steps recording every row with its carrier.

    The load entering each of rows 0..t_max comes from the boundary mode;
    an ``IidInvariant`` block keeps only the currents its rows use.
    Zero-padded rows are drained and then padded to a common window; Detect
    rows shrink from the left as determinacy is lost.
    """
    if t_max < 0:
        raise InvalidParams(f"step count must be >= 0, got {t_max}")
    if J != c.J:
        raise InvalidParams(f"config carries J={c.J}, got J={J}")
    occ, load = [], []
    start, eta = c.offset, c.cells
    for t in range(t_max + 1):
        seed = _resolve_seed(c.boundary, t)
        i, w, nxt = advance_row(J, K, eta, seed, c.boundary)
        if len(w) > len(eta):   # drained past the window end
            eta = np.concatenate([eta, np.zeros(len(w) - len(eta), dtype=np.int64)])
        occ.append((start, eta))
        load.append((start + i, w))
        if not len(nxt) and t < t_max:
            raise Undetermined("window exhausted during block evolution")
        start, eta = start + i + (seed is None), nxt

    boundary = c.boundary
    if isinstance(boundary, ZeroPad):
        # rows only grow: pad occupancies and loads to the last row's window
        hi = len(occ[-1][1])
        occ, load = ([(s, np.pad(v, (0, hi - len(v)))) for s, v in rows] for rows in (occ, load))
    elif isinstance(boundary, IidInvariant):
        boundary = IidInvariant(tuple(boundary.currents[:t_max + 1]))
    return SpaceTimeBlock.from_spans(J, K, occ, load, boundary)


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
    local maps of a few rows each check the whole block, whose constructor
    has checked every value's range."""
    J, K = b.J, b.K
    # interior columns [lo_t, hi_t) of row t, within the block's range [a, z)
    lo = np.maximum(b.load_span[:-1, 0], np.maximum(b.occ_span[:-1, 0], b.occ_span[1:, 0]) - 1)
    hi = np.minimum(b.load_span[:-1, 1], np.minimum(b.occ_span[:-1, 1], b.occ_span[1:, 1]) - 1)
    a, z = (int(lo.min()), int(hi.max())) if len(lo) else (0, 0)
    cols = np.arange(a, z)
    inside = (lo[:, None] <= cols) & (cols < hi[:, None])
    w, eta = b.load[:-1, a:z], b.occ[:-1, a + 1:z + 1]
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

