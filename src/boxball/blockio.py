"""CSV export and import of space-time blocks.

A block is written as three files: the occupancy rectangle, the carrier
rectangle (one row per time step, header ``t,n<site>,...``) and the left
boundary currents.  All values are decimal integers; a blank entry is a site
left of the row's window or an undetermined current.  The floor of a Detect
boundary is not stored, so a block whose currents are all blank reads back
with ``Detect()`` (floor 0); for J < K = inf its carriers read back flagged
approximate, as ``canonical_carrier`` flags every such carrier.  A ZeroPad
block heads its currents ``t,zero`` and reads back as ``ZeroPad()``; any
other block heads them ``t,current`` and reads back as ``IidInvariant`` with
its per-row currents, so a ``SeededCarrier`` block reads back with equal rows
but an ``IidInvariant`` boundary.
"""

from __future__ import annotations

import csv
from typing import List, Sequence, Tuple

from .capacities import INF, Capacity
from .carrier import CarrierPath
from .errors import InvalidParams
from .evolution import SpaceTimeBlock
from .lattice import Config, Detect, IidInvariant, ZeroPad


def _sibling(path: str, tag: str) -> str:
    if path.endswith(".csv"):
        return path[:-4] + f".{tag}.csv"
    return path + f".{tag}.csv"


def _ints(path: str, row: List[str]) -> Tuple[int, ...]:
    """The non-blank fields after the row's ``t`` as decimal integers."""
    try:
        return tuple(map(int, filter(None, row[1:])))
    except ValueError:
        raise InvalidParams(f"{path}: non-integer field in row t={row[0]}") from None


def _write_grid(path: str, rows: Sequence[Tuple[int, Tuple[int, ...]]]) -> None:
    """One line per (offset, values) row over row 0's sites, blank outside."""
    s0, e0 = rows[0][0], rows[0][0] + len(rows[0][1]) - 1
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t"] + [f"n{n}" for n in range(s0, e0 + 1)])
        for t, (off, vals) in enumerate(rows):
            lo = min(max(off, s0), e0 + 1)      # covered sites lo..hi
            hi = max(min(off + len(vals) - 1, e0), lo - 1)
            w.writerow([t] + [""] * (lo - s0) + list(vals[lo - off:hi + 1 - off])
                       + [""] * (e0 - hi))


def write_block_csv(block: SpaceTimeBlock, path: str) -> Tuple[str, str, str]:
    """Write occupancies to ``path`` plus carrier and current files beside
    it; returns the three paths."""
    carrier_path = _sibling(path, "carrier")
    currents_path = _sibling(path, "currents")
    _write_grid(path, [(cfg.offset, cfg.cells) for cfg, _ in block.rows])
    _write_grid(carrier_path, [(w.offset, w.values) for _, w in block.rows])
    with open(currents_path, "w", newline="") as fh:
        w = csv.writer(fh)
        zero = isinstance(block.config(0).boundary, ZeroPad)
        w.writerow(["t", "zero" if zero else "current"])
        for t, c in enumerate(block.left_currents):
            w.writerow([t, "" if c is None else c])
    return path, carrier_path, currents_path


def read_block_csv(path: str, J: Capacity, K: Capacity) -> SpaceTimeBlock:
    """Re-ingest a block written by write_block_csv."""
    carrier_path = _sibling(path, "carrier")
    currents_path = _sibling(path, "currents")

    def read_grid(p: str) -> List[Tuple[int, Tuple[int, ...]]]:
        """(offset, values) per row; the blanks lie left of the row."""
        with open(p, newline="") as fh:
            rows = list(csv.reader(fh))
        try:
            offset = int(rows[0][1][1:]) if rows[0][0] == "t" else None
        except (IndexError, ValueError):
            offset = None
        if offset is None:
            raise InvalidParams(f"{p}: missing or malformed block header")
        out = []
        for row in rows[1:]:
            vals = _ints(p, row)
            out.append((offset + len(row) - 1 - len(vals), vals))
        return out

    occ = read_grid(path)
    car = read_grid(carrier_path)
    with open(currents_path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or any(len(r) != 2 for r in rows):
        raise InvalidParams(f"{currents_path}: every row needs t and one value field")
    currents = tuple(_ints(currents_path, r)[0] if r[1] != "" else None
                     for r in rows[1:])
    if not (len(occ) == len(car) == len(currents)):
        raise InvalidParams("block files disagree on the number of time rows")

    if rows[0][1:] == ["zero"]:
        boundary = ZeroPad()
    elif all(c is None for c in currents):
        boundary = Detect()
    elif None in currents:
        raise InvalidParams(f"{currents_path}: blank and numeric currents mixed")
    else:
        boundary = IidInvariant(currents)
    # canonical_carrier flags exactly these carriers as burn-in estimates
    approx = isinstance(boundary, Detect) and J < K == INF
    out = tuple(
        (Config(o, cells, J, boundary), CarrierPath(co, vals, cur, approx))
        for (o, cells), (co, vals), cur in zip(occ, car, currents))
    return SpaceTimeBlock(J, K, out)
