#!/usr/bin/env python3
"""Quick self-test of the benchmark on tiny inputs (about a minute).

    python3 perfbench/selftest.py

For every workload, including ``dual-grid``, which ``BENCHMARK.json`` does
not list, it checks that a run with tracing off emits every
end-to-end metric of ``BENCHMARK.json`` with its unit, that a traced run
emits every per-layer metric, and that the exact counts of two traced runs
of one seed are identical.  It also checks that the benchmark refuses to
run, without printing a result, in a directory holding only
``BENCHMARK.json`` and the benchmark's own files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from metrics import EXACT_COUNTS  # noqa: E402
from run import WORKLOAD_NAMES  # noqa: E402


def run(cwd: Path, workload: str, trace: int):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=170)


def result_of(proc, problems, what):
    if proc.returncode != 0:
        problems.append(f"{what}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        return None
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{what}: result keys {sorted(result)}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1
            and isinstance(result["failed"], int)):
        problems.append(f"{what}: attempted/failed {result['attempted']}/{result['failed']}")
    return result


def check_metrics(result, wanted, problems, what):
    got = result["metrics"]
    if set(got) != {m["name"] for m in wanted}:
        problems.append(f"{what}: metric names differ: "
                        f"{sorted(set(got) ^ {m['name'] for m in wanted})}")
    for m in wanted:
        entry = got.get(m["name"])
        if entry is None:
            continue
        if entry.get("unit") != m["unit"] or not isinstance(entry.get("value"), (int, float)):
            problems.append(f"{what}: {m['name']} = {entry}, want unit {m['unit']}")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for w in WORKLOAD_NAMES:
        res = result_of(run(ROOT, w, 0), problems, f"{w} trace 0")
        if res:
            check_metrics(res, bench["end_to_end"], problems, f"{w} trace 0")
        traced = [result_of(run(ROOT, w, 1), problems, f"{w} trace 1") for _ in range(2)]
        if all(traced):
            check_metrics(traced[0], bench["per_layer"], problems, f"{w} trace 1")
            counts = [{k: r["metrics"][k]["value"] for k in EXACT_COUNTS} for r in traced]
            if counts[0] != counts[1]:
                problems.append(f"{w}: exact counts differ between traced runs")
        print(f"{w}: done, {len(problems)} problem(s) so far", flush=True)

    bare = HERE / "out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in HERE.glob("*.py"):
        shutil.copy(f, bare / "perfbench")
    proc = run(bare, "blocks", 0)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
    shutil.rmtree(bare, ignore_errors=True)

    for line in problems:
        print("PROBLEM", line)
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
