"""CSV export and import of space-time blocks.

A block is written as three files: the occupancy rectangle, the carrier
rectangle (one row per time step, header ``t,n<site>,...``) and the left
boundary currents.  All values are decimal integers; a blank entry is a site
outside the row's window or an undetermined current.  A row's values are
contiguous, so a blank between two values is an error.  The floor of a
Detect boundary is not stored, so a block whose currents are all blank reads
back with ``Detect()`` (floor 0), whatever its capacities.  A ZeroPad block
heads its currents ``t,zero`` and reads back as ``ZeroPad()``; any other
block heads them ``t,current`` and reads back as ``IidInvariant`` with its
per-row currents, so a ``SeededCarrier`` block reads back with equal rows
but an ``IidInvariant`` boundary.
"""

from __future__ import annotations

import csv
from typing import List, Tuple

import numpy as np

from .capacities import Capacity
from .errors import InvalidParams
from .evolution import SpaceTimeBlock
from .lattice import Detect, IidInvariant, ZeroPad

_INT64 = np.iinfo(np.int64)
_POW10 = 10 ** np.arange(1, 20, dtype=np.uint64)


def _sibling(path: str, tag: str) -> str:
    if path.endswith(".csv"):
        return path[:-4] + f".{tag}.csv"
    return path + f".{tag}.csv"


def _fields(vals: np.ndarray) -> bytes:
    """``,v0,v1,...`` for an int64 array, one decimal digit at a time."""
    if not len(vals):
        return b""
    mag, neg = np.abs(vals).view(np.uint64), vals < 0    # |int64 min| wraps to 2**63
    nd = 1 + np.searchsorted(_POW10, mag, side="right")     # digits of each |v|
    end = np.cumsum(nd + neg + 1)
    out = np.full(end[-1], ord("-"), dtype=np.uint8)
    out[end - nd - neg - 1] = ord(",")
    for k in range(nd.max()):
        has = nd > k
        out[end[has] - k - 1] = mag[has] // 10 ** k % 10 + ord("0")
    return out.tobytes()


def _write_grid(path: str, offset: int, grid: np.ndarray, span: np.ndarray) -> None:
    """One line per row over row 0's sites: the row's values where it
    stores them, blank elsewhere (the bytes of ``csv.writer``)."""
    s0, e0 = span[0].tolist()
    with open(path, "wb") as fh:
        fh.write(",n".join(["t", *map(str, range(offset + s0, offset + e0))]).encode() + b"\r\n")
        # each row's stored columns within row 0's, counted from s0
        for t, (a, b) in enumerate((np.clip(span, s0, e0) - s0).tolist()):
            text = _fields(grid[t, s0 + a:s0 + b])
            fh.write(b"%d%s%s%s\r\n" % (t, b"," * a, text, b"," * (e0 - s0 - b)))


def write_block_csv(block: SpaceTimeBlock, path: str) -> Tuple[str, str, str]:
    """Write occupancies to ``path`` plus carrier and current files beside
    it; returns the three paths."""
    carrier_path = _sibling(path, "carrier")
    currents_path = _sibling(path, "currents")
    _write_grid(path, block.offset, block.occ, block.occ_span)
    _write_grid(carrier_path, block.offset, block.load, block.load_span)
    with open(currents_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "zero" if isinstance(block.boundary, ZeroPad) else "current"])
        for t, c in enumerate(block.left_currents):
            w.writerow([t, "" if c is None else c])
    return path, carrier_path, currents_path


def _parse_row(where: str, body: bytes) -> Tuple[int, np.ndarray]:
    """(blank fields before the values, values) of a row after its ``t``."""
    core = body.lstrip(b",")
    start = len(body) - len(core)
    core = core.rstrip(b",")
    if not core:
        raise InvalidParams(f"{where} has no values")
    if core.translate(None, b"0123456789,-"):
        raise InvalidParams(f"{where} has a non-integer field")
    if b",," in core:
        raise InvalidParams(f"{where} has a blank field between values")
    # np.fromstring reads a lone '-' as 0 and saturates past the int64 range
    bad = b"-," in core or core.endswith(b"-")
    try:
        vals = np.fromstring(core, dtype=np.int64, sep=",")
    except ValueError:
        bad = True
    if (bad or len(vals) != core.count(b",") + 1
            or vals.max() == _INT64.max or vals.min() == _INT64.min):
        raise InvalidParams(f"{where} has a non-integer field")
    return start, vals


def _read_grid(path: str) -> List[Tuple[int, np.ndarray]]:
    """(first site, values) per row of a grid file; a row's site comes from
    where its values lie."""
    with open(path, "rb") as fh:
        head = fh.readline().rstrip(b"\r\n").split(b",")
        try:
            offset = int(head[1][1:]) if head[0] == b"t" else None
        except (IndexError, ValueError):
            offset = None
        if offset is None:
            raise InvalidParams(f"{path}: missing or malformed block header")
        out = []
        for line in fh:
            t, _, body = line.rstrip(b"\r\n").partition(b",")
            start, vals = _parse_row(f"{path}: row t={t.decode(errors='replace')}", body)
            out.append((offset + start, vals))
    if not out:
        raise InvalidParams(f"{path}: no time rows")
    return out


def read_block_csv(path: str, J: Capacity, K: Capacity) -> SpaceTimeBlock:
    """Re-ingest a block written by write_block_csv."""
    currents_path = _sibling(path, "currents")
    occ = _read_grid(path)
    car = _read_grid(_sibling(path, "carrier"))
    with open(currents_path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or any(len(r) != 2 for r in rows):
        raise InvalidParams(f"{currents_path}: every row needs t and one value field")
    currents = []
    for t, v in rows[1:]:
        try:
            currents.append(int(v) if v != "" else None)
        except ValueError:
            raise InvalidParams(f"{currents_path}: non-integer field in row t={t}") from None
    currents = tuple(currents)
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
    return SpaceTimeBlock.from_spans(J, K, occ, car, currents, boundary)
