"""In-memory span tracer that wraps boxball's public functions from outside.

``Tracer.install`` replaces every public function of the layer modules,
in the defining module and in every boxball module (or the package) that
imported it by name, with a wrapper that records a span (name, start, end,
parent).  Functions of ``local_rules`` are called millions of times, so
they only count calls, keyed by the importing module.  ``uninstall`` puts
the originals back.  Nothing under ``src/`` is modified.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional

LAYERS = ("local_rules", "carrier", "evolution", "lattice", "measures",
          "experiments", "blockio", "cli")
COUNT_ONLY = ("local_rules",)


def _regime(J, K) -> str:
    if J == K:
        return "JeqK"
    if J > K:
        return "JgtK"
    return "Kinf" if K == float("inf") else "JltK"


def _file_bytes(paths) -> int:
    return sum(os.path.getsize(p) for p in paths)


def _read_files(path: str):
    """The three files read_block_csv reads, named by blockio itself."""
    from boxball.blockio import _sibling
    return (path, _sibling(path, "carrier"), _sibling(path, "currents"))


# attributes recorded on a span from (args, kwargs, result)
_ATTRS: Dict[str, Callable[[tuple, dict, Any], Dict[str, Any]]] = {
    "carrier.sweep_row": lambda a, k, r: {"cells": len(a[2]),
                                          "regime": _regime(a[0], a[1])},
    "carrier.sweep": lambda a, k, r: {"cells": len(r[0].values)},
    "measures.w_chain": lambda a, k, r: {"states": int(r.shape[0])},
    "evolution.duality_verify": lambda a, k, r: {"cells": r.cells_checked},
    "blockio.write_block_csv": lambda a, k, r: {"bytes": _file_bytes(r)},
    "blockio.read_block_csv": lambda a, k, r: {
        "bytes": _file_bytes(_read_files(a[0]))},
    "experiments.speed_estimate": lambda a, k, r: {
        "regrowths": sum(1 for rec in r.per_replica if rec["attempt"] > 0)},
}


class Tracer:
    """Spans are lists [name, start, end, parent, op, attrs]; parent and op
    are span indices (None at the root)."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        self._patches: List[tuple] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str, attrs: Optional[dict] = None) -> int:
        parent = self._stack[-1] if self._stack else None
        op = self.spans[parent][4] if parent is not None else None
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent,
                           idx if op is None else op, attrs or {}])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, **attrs):
        idx = self._open(name, attrs)
        try:
            yield
        finally:
            self._close(idx)

    def _spanned(self, name: str, fn: Callable) -> Callable:
        attrs_of = _ATTRS.get(name)

        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
                if attrs_of is not None:
                    self.spans[idx][5] = attrs_of(args, kwargs, result)
                return result
            finally:
                self._close(idx)

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, key: str, fn: Callable) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching ------------------------------------------------------------

    def install(self, package: str = "boxball") -> None:
        importers = [importlib.import_module(package)] + [
            importlib.import_module(f"{package}.{layer}") for layer in LAYERS]
        importers += [m for n, m in list(sys.modules.items())
                      if n.startswith(package + ".") and m not in importers]
        for layer in LAYERS:
            mod = importlib.import_module(f"{package}.{layer}")
            for fname, fn in list(vars(mod).items()):
                if (fname.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{fname}"
                for imp in importers:
                    for attr, val in list(vars(imp).items()):
                        if val is not fn:
                            continue
                        if layer in COUNT_ONLY:
                            caller = imp.__name__.rpartition(".")[2]
                            wrapped = self._counted(f"{name}.calls.{caller}", fn)
                        else:
                            wrapped = self._spanned(name, fn)
                        self._patches.append((imp, attr, fn))
                        setattr(imp, attr, wrapped)

    def uninstall(self) -> None:
        for imp, attr, fn in reversed(self._patches):
            setattr(imp, attr, fn)
        self._patches.clear()

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> List[float]:
        """Per-span self time: duration minus the durations of its children
        (children of one span never overlap, the program is sequential)."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] is not None:
                own[s[3]] -= s[2] - s[1]
        return own

    def summary(self) -> Dict[str, Dict[str, Any]]:
        """Per span name: calls, total seconds and self seconds."""
        out: Dict[str, Dict[str, Any]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for s, own in zip(self.spans, self.self_times()):
            row = out[s[0]]
            row["calls"] += 1
            row["total_s"] += s[2] - s[1]
            row["self_s"] += own
        return dict(out)

    def write_jsonl(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for i, (name, t0, t1, parent, op, attrs) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": t0,
                                     "end": t1, "parent": parent, "op": op,
                                     **attrs}) + "\n")
            fh.write(json.dumps({"counters": dict(self.counts)}) + "\n")
