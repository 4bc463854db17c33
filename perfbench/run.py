#!/usr/bin/env python3
"""boxball benchmark: one workload per process, one closed-loop client.

    python3 perfbench/run.py --workload speed-finite --seed 1 --seconds 30 --trace 0

Run from the repository root; the program is imported from ``src/``.  The
process started by this command imports nothing of the program: it spawns
set-up probes and one worker process and reports what they measured.  With
``--trace 0`` the worker runs whole passes of the workload until the next
pass would end after ``--seconds`` (always at least one) and reports the
end-to-end metrics.  With ``--trace 1`` it runs pass 0 untraced and then
traced, and reports the per-layer metrics derived from the trace; the spans
are written to ``perfbench/out/trace-<workload>-seed<seed>.jsonl``.

The last line of standard output is the result object; the line before it
is a report with sample counts, failures and the environment.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "perfbench" / "out"
PROBES = 4            # set-up probes the worker spreads over --seconds
# the keys of workloads.WORKLOADS; the launcher does not import the program
WORKLOAD_NAMES = ("speed-finite", "speed-inf", "dual-grid", "blocks")


def die(msg: str) -> None:
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Import boxball from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import boxball
    if Path(boxball.__file__).resolve().parent != (src / "boxball").resolve():
        die(f"boxball imported from {boxball.__file__}, not from {src}")
    return boxball


def make_workload(args, workdir: str):
    from workloads import WORKLOADS
    return WORKLOADS[args.workload](args.seed, workdir, tiny=args.size == "tiny")


def run_pass(workload, k: int, tracer=None):
    """Run pass k once; returns (wall seconds, per-op seconds, failed checks
    per op, work done).  Pass-level checks count against every op."""
    from workloads import Check, OpResult

    def attempt(fn):
        try:
            return fn()
        except Exception as exc:  # a failed operation is recorded, not fatal
            return OpResult([Check("raised", False,
                                   detail=f"{type(exc).__name__}: {exc}")])

    results, times = [], []
    t_pass = time.perf_counter()
    for label, fn in workload.ops(k):
        t0 = time.perf_counter()
        if tracer is None:
            res = attempt(fn)
        else:
            with tracer.span("bench.op", label=label):
                res = attempt(fn)
        times.append(time.perf_counter() - t0)
        results.append((label, res))
    shared = workload.pass_checks([r for _, r in results])
    wall = time.perf_counter() - t_pass

    failed = [[(label, c) for c in res.checks + shared if not c.ok]
              for label, res in results]
    return wall, times, failed, sum(r.work for _, r in results)


def openblas_threads():
    import numpy
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment(seed: int):
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "openblas_threads": openblas_threads(),
            "nproc": len(os.sched_getaffinity(0)), "machine": platform.machine(),
            "commit": git_commit(), "seed": seed}


def failure_summary(failed):
    """Failed checks grouped by (check, known defect), with one example."""
    groups = Counter()
    example = {}
    for per_op in failed:
        for label, c in per_op:
            key = (c.name, c.known)
            groups[key] += 1
            example.setdefault(key, f"{label}: {c.detail}")
    return [{"check": name, "known_defect": known, "count": n,
             "example": example[(name, known)]}
            for (name, known), n in sorted(groups.items())]


def spawn(args, role: str, workdir: str):
    """Run this script as a probe or worker process; returns the time it was
    spawned and its standard output lines."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--workdir", workdir]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=175, cwd=ROOT)
    if proc.returncode != 0:
        die(f"{role} process failed: {proc.stderr.strip()[-2000:]}")
    return t0, proc.stdout.splitlines()


def probe(args, workdir: str) -> float:
    """One set-up time sample: spawn a probe and return the seconds from
    spawning it until its first operation was ready."""
    t0, out = spawn(args, "probe", workdir)
    return float(out[-1]) - t0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny inputs, for the self-test only")
    p.add_argument("--role", choices=("launcher", "probe", "worker"),
                   default="launcher", help=argparse.SUPPRESS)
    p.add_argument("--workdir", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        die("--seed must be a nonnegative integer")
    if not (ROOT / "src" / "boxball" / "__init__.py").is_file():
        die(f"no boxball package under {ROOT / 'src'}")

    if args.role == "probe":
        import_program()
        make_workload(args, args.workdir)
        print(time.perf_counter())
        return 0
    if args.role == "worker":
        import_program()
        return measure(args, args.workdir)

    # The launcher imports nothing of the program.  With tracing off it
    # spawns one probe, which only sets up, then the worker, which sets up,
    # measures and spawns up to PROBES more probes between its passes, at
    # most one after each pass.  Each of these processes gives one set-up
    # time sample, so the samples are spread over the run.
    workdir = OUT / f"tmp-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setups = [probe(args, str(workdir))] if args.trace == 0 else []
        t0, out = spawn(args, "worker", str(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report = json.loads(out[-2])["report"]
    result = json.loads(out[-1])
    ready_at = report.pop("ready_at")
    if args.trace == 0:
        setups += [ready_at - t0] + report.pop("probe_setups")
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
        report["setup_samples"] = setups
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


def measure(args, workdir: str) -> int:
    """The worker: set up, measure, print the report and result lines (the
    launcher fills in setup_s)."""
    import metrics
    workload = make_workload(args, workdir)
    ready_at = time.perf_counter()

    passes = []
    if args.trace == 0:
        probe_setups = []
        while True:
            passes.append(run_pass(workload, len(passes)))
            elapsed = sum(w for w, *_ in passes)
            if len(probe_setups) < PROBES * elapsed / args.seconds:
                probe_setups.append(probe(args, workdir))
            if elapsed + passes[-1][0] > args.seconds:
                break
        values, notes = metrics.end_to_end(
            walls=[w for w, *_ in passes],
            op_times=[t for _, times, *_ in passes for t in times],
            work=sum(p[3] for p in passes),
            attempted=sum(len(p[2]) for p in passes),
            failed=sum(1 for p in passes for f in p[2] if f),
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        units = metrics.END_TO_END
        notes.update(work_unit=workload.unit, probe_setups=probe_setups)
    else:
        from tracing import Tracer
        passes.append(run_pass(workload, 0))
        tracer = Tracer()
        tracer.install()
        try:
            passes.append(run_pass(workload, 0, tracer))
        finally:
            tracer.uninstall()
        tracer.write_jsonl(str(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"))
        values = metrics.per_layer(tracer, passes[1][0], passes[0][0])
        units = metrics.PER_LAYER
        notes = {"spans": len(tracer.spans)}

    all_failed = [f for p in passes for f in p[2]]
    summary = failure_summary(all_failed)
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "size": args.size, "passes": len(passes),
              **notes, "failures": summary, "environment": environment(args.seed),
              "ready_at": ready_at}
    result = {"correct": not any(not g["known_defect"] for g in summary),
              "attempted": len(all_failed),
              "failed": sum(1 for f in all_failed if f),
              "metrics": {name: {"value": values[name], "unit": unit}
                          for name, unit in units.items()}}
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
