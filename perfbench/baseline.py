#!/usr/bin/env python3
"""Regenerate the committed baseline, ``perfbench/baseline.json``.

    python3 perfbench/baseline.py                      # BENCHMARK.json's workloads, seeds 1..10
    python3 perfbench/baseline.py --workloads blocks --seeds 5 --out /tmp/b.json
    python3 perfbench/baseline.py --against perfbench/baseline.json --out /tmp/new.json

For each workload it runs ``run.py`` once per seed with tracing off, and
reports each end-to-end metric's median, quartiles and spread (distance
between the quartiles as a share of the median) against the bound in
``BENCHMARK.json``.  It then makes two traced runs of seed 1 and checks that
the exact counts repeat.  With ``--against`` it also compares each
median with the median in an earlier baseline file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from metrics import EXACT_COUNTS  # noqa: E402
from run import WORKLOAD_NAMES  # noqa: E402

FIRST_SEED = 1
TRACE_SEED = 1
TRACE_RUNS = 2    # traced runs of TRACE_SEED, whose exact counts must repeat


def run(workload: str, seed: int, seconds: int, trace: int):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=300)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    *_, report, result = proc.stdout.strip().splitlines()
    report = json.loads(report)["report"]
    report["run_s"] = time.perf_counter() - t0    # the whole run, set-up included
    return report, json.loads(result)


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def worse_by(new: float, old: float, better: str) -> float:
    """Share of the old median by which new is worse (negative if better)."""
    return (new - old) / old if better == "lower" else (old - new) / old


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", nargs="+", choices=WORKLOAD_NAMES,
                   default=[w["name"] for w in bench["workloads"]])
    p.add_argument("--seeds", type=int, default=10, help="number of seeds")
    p.add_argument("--against", help="earlier baseline to compare medians with")
    p.add_argument("--out", default=str(HERE / "baseline.json"))
    args = p.parse_args()
    old = json.loads(Path(args.against).read_text()) if args.against else None

    seconds = bench["run_seconds"]
    out = {"command": " ".join(["python3 perfbench/baseline.py"] + sys.argv[1:]),
           "run_seconds": seconds, "workloads": {}}
    ok = True
    for w in args.workloads:
        seeds = range(FIRST_SEED, FIRST_SEED + args.seeds)
        runs = [run(w, seed, seconds, 0) for seed in seeds]
        out.setdefault("environment", runs[0][0]["environment"])
        rows = {}
        took = [rep["run_s"] for rep, _ in runs]
        print(f"\n{w}: {args.seeds} seeds, tracing off, "
              f"{statistics.median(took):.1f} s per run (median)")
        for m in bench["end_to_end"]:
            stats = spread([r["metrics"][m["name"]]["value"] for _, r in runs])
            stats.update(unit=m["unit"], bound=m["bound"])
            line = (f"  {m['name']:12s} median {stats['median']:.6g} {m['unit']:7s} "
                    f"spread {stats['spread']:.4f} bound {m['bound']}")
            if stats["spread"] > m["bound"]:
                line += "  SPREAD ABOVE BOUND"
                ok = False
            if old and w in old["workloads"]:
                prev = old["workloads"][w]["end_to_end"][m["name"]]["median"]
                stats["worse_than_against"] = worse_by(stats["median"], prev, m["better"])
                line += f"  vs against {stats['worse_than_against']:+.4f}"
                if stats["worse_than_against"] > m["bound"]:
                    line += "  WORSE THAN BOUND"
                    ok = False
            rows[m["name"]] = stats
            print(line)
        traced = [run(w, TRACE_SEED, seconds, 1) for _ in range(TRACE_RUNS)]
        counts = [{k: r["metrics"][k]["value"] for k in EXACT_COUNTS} for _, r in traced]
        repeat = all(c == counts[0] for c in counts)
        ok = ok and repeat
        took = " ".join(f"{rep['run_s']:.1f}" for rep, _ in traced)
        print(f"  exact counts repeat over {len(traced)} traced runs of seed "
              f"{TRACE_SEED}: {repeat}; the runs took {took} s")
        out["workloads"][w] = {
            "end_to_end": rows,
            "runs": [{"seed": rep["seed"], "correct": res["correct"],
                      "attempted": res["attempted"], "failed": res["failed"],
                      "report": rep,
                      "metrics": {k: v["value"] for k, v in res["metrics"].items()}}
                     for rep, res in runs],
            "traced": [{"seed": rep["seed"], "correct": res["correct"],
                        "report": rep,
                        "metrics": {k: v["value"] for k, v in res["metrics"].items()}}
                       for rep, res in traced],
            "exact_counts_repeat": repeat,
        }
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    print(f"\nwrote {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
