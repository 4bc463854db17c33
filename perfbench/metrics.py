"""Metric names, units and their derivation from passes and traces.

End-to-end metrics come from untraced passes.  Per-layer metrics come only
from the spans and counters of one traced pass.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Tuple

from tracing import Tracer

END_TO_END = {
    "wall_s": "s",          # median wall time of one pass
    "setup_s": "s",         # median, process start to first operation ready
    "peak_rss_mb": "MB",
    "pass_frac": "frac",    # 1 - failed operations / attempted operations
    "op_p50_s": "s",
    "op_tail_s": "s",       # see tail()
    "throughput": "work/s",  # workload work unit per second of pass wall time
}

REGIMES = ("JltK", "Kinf", "JgtK", "JeqK")
LOCAL_MAP_CALLERS = ("carrier", "evolution", "measures", "local_rules")
SELF_TIMES = (
    "carrier.sweep_row", "carrier.sweep", "carrier.detect_seed",
    "experiments.speed_estimate", "experiments.sample_stationary_block",
    "experiments.invariance_mc_test",
    "measures.dual_measure", "measures.w_chain", "measures.classify_invariant",
    "measures.invariance_oracle", "measures.detailed_balance_residual",
    "measures.sample_pmf",
    "evolution.evolve_block",
    "blockio.write_block_csv", "blockio.read_block_csv",
    "cli.main",
)
SPANNED_LAYERS = ("lattice", "carrier", "evolution", "measures",
                  "experiments", "blockio", "cli", "bench")

# counts that must repeat exactly across traced runs of one seed
EXACT_COUNTS = (
    "carrier.sweep_row.calls", "carrier.sweep_row.cells", "carrier.sweep.cells",
    "experiments.regrowths",
    "measures.dual_measure.calls", "measures.w_chain.calls",
    "measures.w_chain.states_max",
    "local_rules.local_map.calls",
    *(f"local_rules.local_map.calls.{c}" for c in LOCAL_MAP_CALLERS),
    "evolution.duality_verify.cells",
    "blockio.write_block_csv.bytes", "blockio.read_block_csv.bytes",
)

PER_LAYER: Dict[str, str] = {
    **{name: "count" for name in EXACT_COUNTS},
    **{f"{name}.self_s": "s" for name in SELF_TIMES},
    **{f"carrier.sweep_row.cells_per_s.{r}": "cells/s" for r in REGIMES},
    "evolution.duality_verify.cells_per_s": "cells/s",
    **{f"{layer}.self_s": "s" for layer in SPANNED_LAYERS},
    "trace.wall_s": "s",
    "trace.overhead_frac": "frac",
}


def tail(samples: List[float]) -> Tuple[float, float]:
    """The sample with exactly ten samples above it and its percentile.
    Below 20 samples that sample would not lie above the median, so the
    maximum (percentile 100) is reported instead."""
    xs = sorted(samples)
    n = len(xs)
    if n < 20:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def end_to_end(walls: List[float], op_times: List[float], work: float,
               attempted: int, failed: int,
               peak_rss_mb: float) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Metric values and the notes that qualify them (samples, percentile).
    setup_s is measured across processes and filled in by the launcher."""
    tail_s, tail_pct = tail(op_times)
    values = {
        "wall_s": statistics.median(walls),
        "setup_s": None,
        "peak_rss_mb": peak_rss_mb,
        "pass_frac": 1.0 - failed / attempted,
        "op_p50_s": statistics.median(op_times),
        "op_tail_s": tail_s,
        "throughput": work / sum(walls),
    }
    notes = {"wall_samples": len(walls), "op_samples": len(op_times),
             "op_tail_percentile": tail_pct}
    return values, notes


def per_layer(tracer: Tracer, traced_wall: float,
              untraced_wall: float) -> Dict[str, float]:
    summary = tracer.summary()
    own = tracer.self_times()
    out: Dict[str, float] = {}

    def attr_sum(name: str, key: str) -> float:
        return sum(s[5].get(key, 0) for s in tracer.spans if s[0] == name)

    def calls(name: str) -> int:
        return summary.get(name, {}).get("calls", 0)

    out["carrier.sweep_row.calls"] = calls("carrier.sweep_row")
    out["carrier.sweep_row.cells"] = attr_sum("carrier.sweep_row", "cells")
    out["carrier.sweep.cells"] = attr_sum("carrier.sweep", "cells")
    out["experiments.regrowths"] = attr_sum("experiments.speed_estimate", "regrowths")
    out["measures.dual_measure.calls"] = calls("measures.dual_measure")
    out["measures.w_chain.calls"] = calls("measures.w_chain")
    out["measures.w_chain.states_max"] = max(
        [s[5]["states"] for s in tracer.spans if s[0] == "measures.w_chain"],
        default=0)
    for caller in LOCAL_MAP_CALLERS:
        out[f"local_rules.local_map.calls.{caller}"] = \
            tracer.counts[f"local_rules.local_map.calls.{caller}"]
    out["local_rules.local_map.calls"] = sum(
        n for key, n in tracer.counts.items()
        if key.startswith("local_rules.local_map.calls."))
    out["evolution.duality_verify.cells"] = attr_sum("evolution.duality_verify", "cells")
    out["blockio.write_block_csv.bytes"] = attr_sum("blockio.write_block_csv", "bytes")
    out["blockio.read_block_csv.bytes"] = attr_sum("blockio.read_block_csv", "bytes")

    for name in SELF_TIMES:
        out[f"{name}.self_s"] = summary.get(name, {}).get("self_s", 0.0)

    cells = dict.fromkeys(REGIMES, 0)
    busy = dict.fromkeys(REGIMES, 0.0)
    for s, t in zip(tracer.spans, own):
        if s[0] == "carrier.sweep_row":
            cells[s[5]["regime"]] += s[5]["cells"]
            busy[s[5]["regime"]] += t
    for r in REGIMES:
        out[f"carrier.sweep_row.cells_per_s.{r}"] = cells[r] / busy[r] if busy[r] else 0.0
    dv = summary.get("evolution.duality_verify", {}).get("total_s", 0.0)
    out["evolution.duality_verify.cells_per_s"] = (
        out["evolution.duality_verify.cells"] / dv if dv else 0.0)

    for layer in SPANNED_LAYERS:
        out[f"{layer}.self_s"] = sum(
            row["self_s"] for name, row in summary.items()
            if name.startswith(layer + "."))
    out["trace.wall_s"] = traced_wall
    out["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    return out
