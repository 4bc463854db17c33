"""Finite-window configurations, spatial operators and path encodings.

A window stores occupancies for consecutive lattice sites starting at an
absolute offset.  Path encodings keep the walk in doubled units so that the
two-point running average stays integral for odd box capacities.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple, Union

import numpy as np

from .capacities import Capacity, capacity_str, is_finite, validate_capacity
from .errors import InvalidCell, InvalidIncrement, InvalidParams, JInfinite


# ---------------------------------------------------------------------------
# boundary modes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ZeroPad:
    """All sites outside the window are empty; the carrier enters empty."""


@dataclass(frozen=True)
class SeededCarrier:
    """Caller supplies the load entering the window, the same every step."""

    seed: int


@dataclass(frozen=True)
class Detect:
    """Force a carrier value from the window contents using the floor r."""

    floor: int = 0


@dataclass(frozen=True)
class IidInvariant:
    """Left-boundary currents supplied externally, one load per time step."""

    currents: Tuple[int, ...]


BoundaryMode = Union[ZeroPad, SeededCarrier, Detect, IidInvariant]


# ---------------------------------------------------------------------------
# configurations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Config:
    """A finite window of box occupancies with absolute lattice offset."""

    offset: int
    cells: Tuple[int, ...]
    J: Capacity
    boundary: BoundaryMode = field(default_factory=ZeroPad)

    def __post_init__(self):
        validate_capacity(self.J, "J")
        cells = self.cells
        if not cells:
            raise InvalidParams("window must be non-empty")
        # fast path: exact ints within range; otherwise find the culprit
        if set(map(type, cells)) == {int} and 0 <= min(cells) and max(cells) <= self.J:
            return
        for v in cells:
            if not isinstance(v, int) or v < 0 or v > self.J:
                raise InvalidCell(f"cell value {v!r} outside [0, {self.J}]")

    @classmethod
    def from_array(cls, offset: int, cells: np.ndarray, J: Capacity,
                   boundary: BoundaryMode = ZeroPad()) -> "Config":
        """The window of an int64 array, range-checked on the array; an
        empty or out-of-range window raises as the tuple constructor does."""
        validate_capacity(J, "J")
        if not (cells.dtype == np.int64 and len(cells)
                and 0 <= cells.min() and cells.max() <= J):
            return cls(offset, tuple(cells.tolist()), J, boundary)
        c = cls.__new__(cls)
        c.__dict__.update(offset=offset, cells=tuple(cells.tolist()), J=J, boundary=boundary)
        return c

    def __len__(self) -> int:
        return len(self.cells)

    @property
    def end(self) -> int:
        """Lattice index of the last stored cell."""
        return self.offset + len(self.cells) - 1

    def at(self, n: int, default: int = 0) -> int:
        """Occupancy at lattice index n; default outside the window."""
        if self.offset <= n <= self.end:
            return self.cells[n - self.offset]
        return default

    def array(self) -> np.ndarray:
        return np.asarray(self.cells, dtype=np.int64)

    def ball_count(self) -> int:
        return sum(self.cells)

    def with_cells(self, offset: int, cells) -> "Config":
        return Config(offset, tuple(int(v) for v in cells), self.J, self.boundary)

    def text(self) -> str:
        return f"{self.offset}:" + ",".join(str(v) for v in self.cells)


def config_from_text(text: str, J: Capacity, boundary: BoundaryMode = ZeroPad()) -> Config:
    """Parse the textual window form ``offset:v0,v1,...,vk``."""
    try:
        head, body = text.split(":", 1)
        offset = int(head)
        cells = tuple(int(tok) for tok in body.split(","))
    except ValueError:
        raise InvalidParams(f"cannot parse config from {text!r}") from None
    if any(v < 0 for v in cells):
        raise InvalidParams("cell values must be nonnegative integers")
    return Config(offset, cells, J, boundary)


def reverse(c: Config) -> Config:
    """Spatial reversal: the cell at lattice index n moves to index 1 - n."""
    return Config(1 - c.end, tuple(reversed(c.cells)), c.J, c.boundary)


def shift(c: Config, k: int) -> Config:
    """Left-shift by k (contents unchanged, offset decreases by k)."""
    return Config(c.offset - k, c.cells, c.J, c.boundary)


def same_occupancies(a: Config, b: Config) -> bool:
    """Equality as zero-padded infinite configurations."""
    lo = min(a.offset, b.offset)
    hi = max(a.end, b.end)
    return all(a.at(n) == b.at(n) for n in range(lo, hi + 1))


def trim_zeros(c: Config) -> Config:
    """Drop empty cells at both ends (keeping at least one cell)."""
    cells = c.cells
    lo, hi = 0, len(cells)
    while lo < hi - 1 and cells[lo] == 0:
        lo += 1
    while hi > lo + 1 and cells[hi - 1] == 0:
        hi -= 1
    return Config(c.offset + lo, cells[lo:hi], c.J, c.boundary)


# ---------------------------------------------------------------------------
# ball labels
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BallLabels:
    """Per-site ordered ball indices, increasing left-to-right and
    bottom-to-top within a site."""

    offset: int
    per_site: Tuple[Tuple[int, ...], ...]

    def total(self) -> int:
        return sum(len(s) for s in self.per_site)

    def site(self, n: int) -> Tuple[int, ...]:
        if self.offset <= n < self.offset + len(self.per_site):
            return self.per_site[n - self.offset]
        return ()


def label_balls(c: Config) -> BallLabels:
    """Assign indices 1..N scanning sites left-to-right, bottom-to-top."""
    nxt = 1
    sites = []
    for v in c.cells:
        sites.append(tuple(range(nxt, nxt + v)))
        nxt += v
    return BallLabels(c.offset, tuple(sites))


# ---------------------------------------------------------------------------
# path encodings (doubled units)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PathEncoding:
    """The walk S of a configuration stored as D_n = 2 S_n.

    ``base`` is D at offset-1; windows anchor at 0 and every downstream
    formula is invariant under re-anchoring by a constant.
    """

    offset: int
    D: Tuple[int, ...]
    base: int = 0

    def __len__(self) -> int:
        return len(self.D)

    @property
    def end(self) -> int:
        return self.offset + len(self.D) - 1

    def dtilde(self) -> Tuple[int, ...]:
        """Two-point average of D: D~_n = (D_{n-1} + D_n) / 2, always integral."""
        out = []
        prev = self.base
        for d in self.D:
            s = prev + d
            if s % 2:
                raise InvalidIncrement("odd two-point sum in doubled units")
            out.append(s // 2)
            prev = d
        return tuple(out)


def path_encode(c: Config) -> PathEncoding:
    """Encode a configuration as the doubled walk with increments 2(J - 2 eta)."""
    if not is_finite(c.J):
        raise JInfinite("path encoding requires finite J")
    J = c.J
    out = []
    d = 0
    for v in c.cells:
        d += 2 * (J - 2 * v)
        out.append(d)
    return PathEncoding(c.offset, tuple(out))


def path_decode(p: PathEncoding, J: Capacity, boundary: BoundaryMode = ZeroPad()) -> Config:
    """Inverse of path_encode on the same window."""
    if not is_finite(J):
        raise JInfinite("path decoding requires finite J")
    cells = []
    prev = p.base
    for d in p.D:
        inc = d - prev
        num = 2 * J - inc
        if num % 4:
            raise InvalidIncrement(f"increment {inc} invalid for J={capacity_str(J)}")
        v = num // 4
        if v < 0 or v > J:
            raise InvalidIncrement(f"increment {inc} outside [-2J, 2J] for J={J}")
        cells.append(v)
        prev = d
    return Config(p.offset, tuple(cells), J, boundary)
