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
from itertools import accumulate
from typing import List, Tuple

import numpy as np

from .capacities import Capacity
from .errors import InvalidParams
from .evolution import SpaceTimeBlock
from .lattice import Detect, IidInvariant, ZeroPad

_INT64 = np.iinfo(np.int64)


def _sibling(path: str, tag: str) -> str:
    if path.endswith(".csv"):
        return path[:-4] + f".{tag}.csv"
    return path + f".{tag}.csv"


def _fields(vals: np.ndarray, prefix: bytes) -> np.ndarray:
    """Each value of an int64 array as ``prefix`` and its decimal digits,
    right-aligned in a fixed-width slot of bytes: shape vals.shape + (slot,),
    with 0 in the bytes left of the value."""
    neg = vals < 0
    signed = bool(neg.any())
    p = np.abs(vals).view(np.uint64) if signed else vals   # |int64 min| wraps to 2**63
    top = int(p.max(initial=0))
    n = len(prefix)
    S = n + signed + len(str(top))
    out = np.zeros(vals.shape + (S,), dtype=np.uint8)
    out[..., :n] = np.frombuffer(prefix, dtype=np.uint8)
    p = p.astype(np.min_scalar_type(top))
    # live: the value has a digit in this byte, was: in the byte to its right
    was = live = np.ones(vals.shape, dtype=bool)
    for c in range(S - 1, n - 1, -1):          # digits from the right, then '-'
        q = p // 10
        out[..., c] = (p - 10 * q + ord("0")) * live
        if signed:
            out[..., c][neg & was & ~live] = ord("-")
        p, was, live = q, live, q != 0
    return out


def _write_grid(path: str, offset: int, grid: np.ndarray, span: np.ndarray) -> None:
    """One line per row over row 0's sites: the row's values where it
    stores them, blank elsewhere (the bytes of ``csv.writer``), built as one
    byte matrix whose 0 bytes are dropped."""
    s0, e0 = span[0].tolist()
    T = len(grid)
    head = _fields(np.arange(offset + s0, offset + e0)[None], b",n")
    cells = _fields(grid[:, s0:e0], b",")
    # blank each row's cells outside its stored columns, keeping the commas
    for t, (a, b) in enumerate((np.clip(span, s0, e0) - s0).tolist()):
        cells[t, :a, 1:] = cells[t, b:, 1:] = 0
    lines = np.concatenate([_fields(np.arange(T), b"").reshape(T, -1), cells.reshape(T, -1),
                            np.full((T, 2), tuple(b"\r\n"), dtype=np.uint8)], axis=1)
    with open(path, "wb") as fh:
        fh.write(b"t" + head.tobytes().translate(None, b"\0") + b"\r\n")
        fh.write(lines.tobytes().translate(None, b"\0"))


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
    where its values lie.  A grid whose every field is one digit is read in
    one pass; any other grid row by row, each row checked in file order."""
    with open(path, "rb") as fh:
        head = fh.readline().rstrip(b"\r\n").split(b",")
        try:
            offset = int(head[1][1:]) if head[0] == b"t" else None
        except (IndexError, ValueError):
            offset = None
        if offset is None:
            raise InvalidParams(f"{path}: missing or malformed block header")
        lines = fh.read().split(b"\n")
    if not lines[-1]:   # the newline that ends the last row
        lines.pop()
    if not lines:
        raise InvalidParams(f"{path}: no time rows")
    starts, cores = [], []
    for line in lines:
        body = line.rstrip(b"\r\n").partition(b",")[2]
        core = body.lstrip(b",")
        starts.append(offset + len(body) - len(core))
        cores.append(core.rstrip(b","))
    joined = b",".join(cores)
    if len(joined) % 2:
        # one-digit fields pair up as (digit, comma): little-endian words
        # 0x2C30 + value, so every word minus 0x2C30 lies in [0, 10)
        vals = np.frombuffer(joined + b",", dtype="<u2") - 0x2C30
        if (vals < 10).all():
            ends = list(accumulate(len(c) // 2 + 1 for c in cores))
            vals = vals.astype(np.int64)
            return [(s, vals[i:j]) for s, i, j in zip(starts, [0, *ends], ends)]
    out = []
    for line in lines:
        t, _, body = line.rstrip(b"\r\n").partition(b",")
        start, vals = _parse_row(f"{path}: row t={t.decode(errors='replace')}", body)
        out.append((offset + start, vals))
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
