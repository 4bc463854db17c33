"""Finite-window configurations, boundary modes and spatial reversal.

A window stores occupancies for consecutive lattice sites starting at an
absolute offset, as a read-only int64 array that the row kernels read as it
is.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Tuple, Union

import numpy as np

from .capacities import Capacity, validate_capacity
from .errors import InvalidCell, InvalidParams


# ---------------------------------------------------------------------------
# boundary modes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ZeroPad:
    """All sites outside the window are empty; the carrier enters empty."""


@dataclass(frozen=True)
class Detect:
    """Force a carrier value from the window contents using the floor r."""

    floor: int = 0


@dataclass(frozen=True)
class IidInvariant:
    """Left-boundary currents supplied externally, one load per time step."""

    currents: Tuple[int, ...]


BoundaryMode = Union[ZeroPad, Detect, IidInvariant]


# ---------------------------------------------------------------------------
# configurations
# ---------------------------------------------------------------------------


def frozen_int64(values, what: str, lo: int = -2 ** 63,
                 hi: Capacity = 2 ** 63 - 1) -> np.ndarray:
    """A read-only int64 copy of ``values``, integers (bools count) in
    [lo, hi].  An integer array is checked with its min() and max(),
    anything else cell by cell: the first cell that is not an int (a numpy
    scalar, a float, a string, None), lies outside [lo, hi] or past int64
    raises InvalidCell, named as ``what``."""
    top = min(hi, 2 ** 63 - 1)
    if not (isinstance(values, np.ndarray) and values.ndim == 1 and values.dtype.kind in "biu"
            and (not values.size or lo <= values.min() and values.max() <= top)):
        for v in (values.tolist() if isinstance(values, np.ndarray) else values):
            if not isinstance(v, int) or not lo <= v <= top:
                if isinstance(v, int) and lo <= v <= hi:
                    raise InvalidCell(f"{what} {v} does not fit in int64")
                raise InvalidCell(f"{what} {v!r} outside [{lo}, {hi}]")
    a = np.array(values, dtype=np.int64)    # a copy, which no caller can write
    a.flags.writeable = False
    return a


class ArrayFields:
    """Equality and hash of a frozen dataclass over its fields, an array
    field by its values."""

    def _values(self) -> tuple:
        return tuple(getattr(self, f.name) for f in fields(self))

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and all(
            np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
            for a, b in zip(self._values(), other._values()))

    def __hash__(self) -> int:
        return hash(tuple((v.shape, v.astype(np.int64, copy=False).tobytes())
                          if isinstance(v, np.ndarray) else v for v in self._values()))


@dataclass(frozen=True, eq=False)
class Config(ArrayFields):
    """A finite window of box occupancies with absolute lattice offset,
    held as a read-only int64 array."""

    offset: int
    cells: np.ndarray
    J: Capacity
    boundary: BoundaryMode = field(default_factory=ZeroPad)

    def __post_init__(self):
        validate_capacity(self.J, "J")
        if not len(self.cells):
            raise InvalidParams("window must be non-empty")
        object.__setattr__(self, "cells", frozen_int64(self.cells, "cell value", 0, self.J))

    def __len__(self) -> int:
        return len(self.cells)

    @property
    def end(self) -> int:
        """Lattice index of the last stored cell."""
        return self.offset + len(self.cells) - 1

    def at(self, n: int) -> int:
        """Occupancy at lattice index n; 0 outside the window."""
        if self.offset <= n <= self.end:
            return self.cells.item(n - self.offset)
        return 0


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
    return Config(1 - c.end, c.cells[::-1], c.J, c.boundary)
