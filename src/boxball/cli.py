"""Command line front end: evolve windows, verify duality, inspect measures
and estimate tagged-particle speeds, reproducibly.

Exit codes: 0 success, 2 bad flags or unreadable input files, 3 domain
error (undetermined carrier, non-reversible measure, broken duality), 4
statistical failure under --strict.
"""

from __future__ import annotations

import argparse
import functools
import secrets
import sys
from typing import List, Optional, Tuple

from .blockio import read_block_csv, write_block_csv
from .capacities import Capacity, capacity_str, parse_capacity
from .errors import BoxBallError, FloorTooLarge, InvalidParams
from .evolution import duality_verify, evolve_block
from .experiments import speed_estimate, write_jsonl
from .lattice import Detect, IidInvariant, ZeroPad, config_from_text
from .measures import (
    VERDICT_NOT_IN_MREV,
    JEqualsKFamily,
    StbGeoFamily,
    TrivialShiftFamily,
    classify_invariant,
    detailed_balance_residual,
    dual_measure,
    invariance_oracle,
    pmf_from_text,
)

USAGE_EXIT, DOMAIN_EXIT, STAT_EXIT = 2, 3, 4


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _checked_loads(flag: str, loads: Tuple[int, ...], K: Capacity) -> Tuple[int, ...]:
    for v in loads:
        if not 0 <= v <= K:
            raise InvalidParams(f"{flag}: load {v} outside [0, {capacity_str(K)}]")
    return loads


def _boundary_from_args(args, K: Capacity) -> object:
    if args.boundary == "zero":
        return ZeroPad()
    if args.boundary == "detect":
        return Detect(args.floor)
    if args.boundary == "seeded":
        return IidInvariant(_checked_loads("--carrier-seed", (args.carrier_seed,), K)
                            * (args.steps + 1))
    # "iid": argparse choices admit no other boundary
    if not args.currents:
        raise InvalidParams("--boundary iid requires --currents")
    try:
        loads = tuple(int(v) for v in args.currents.split(","))
    except ValueError:
        raise InvalidParams(f"cannot parse --currents {args.currents!r}") from None
    return IidInvariant(_checked_loads("--currents", loads, K))


def cmd_evolve(args) -> int:
    J, K = parse_capacity(args.J, "J"), parse_capacity(args.K, "K")
    boundary = _boundary_from_args(args, K)
    cfg = config_from_text(args.config, J, boundary)
    block = evolve_block(J, K, cfg, args.steps)
    paths = write_block_csv(block, args.out)
    print(f"wrote {paths[0]} {paths[1]} {paths[2]} "
          f"(J={capacity_str(J)} K={capacity_str(K)} steps={args.steps})")
    return 0


def cmd_dual(args) -> int:
    """Verify the space-time duality of a block file that ``bbs evolve
    --out`` wrote; exit 3 on a violation."""
    J, K = parse_capacity(args.J, "J"), parse_capacity(args.K, "K")
    report = duality_verify(read_block_csv(args.infile, J, K))
    print(f"violations={report.violations} checked={report.cells_checked}")
    return 0 if report.violations == 0 else DOMAIN_EXIT


def _family_str(result) -> str:
    fam = result.family
    if isinstance(fam, JEqualsKFamily):
        return "JEqualsK"
    if isinstance(fam, TrivialShiftFamily):
        return f"TrivialShift r={fam.r_shift} reflected={int(fam.reflected)}"
    if isinstance(fam, StbGeoFamily):
        p = fam.params
        return (f"StbGeo m={p.m} alpha={_fmt(p.alpha)} beta={_fmt(p.beta)} "
                f"N={capacity_str(p.N)} r={fam.r_shift} "
                f"reflected={int(fam.reflected)}")
    return "-"


def cmd_measure(args) -> int:
    J, K = parse_capacity(args.J, "J"), parse_capacity(args.K, "K")
    mu = pmf_from_text(args.mu)
    if args.action == "classify":
        result = classify_invariant(J, K, mu)
        line = f"{result.verdict} {_family_str(result)}"
        if result.invariant:
            line += f" residual={_fmt(result.residual)}"
        else:
            try:
                report = invariance_oracle(J, K, mu, k=1)
                line += f" oracle_deviation={_fmt(report.deviation)}"
            except BoxBallError:
                pass
        print(line)
        return DOMAIN_EXIT if result.verdict == VERDICT_NOT_IN_MREV else 0
    if args.action == "dual-measure":
        nu = dual_measure(J, K, mu)
        print(",".join(_fmt(w) for w in nu.weights))
        return 0
    if args.action == "detailed-balance":
        if not args.nu:
            raise InvalidParams("detailed-balance needs --nu")
        nu = pmf_from_text(args.nu)
        print(f"residual={_fmt(detailed_balance_residual(J, K, mu, nu))}")
        return 0
    report = invariance_oracle(J, K, mu, k=args.k)     # action "oracle"
    print(f"deviation={_fmt(report.deviation)} k={args.k}")
    return 0


def cmd_speed(args) -> int:
    J, K = parse_capacity(args.J, "J"), parse_capacity(args.K, "K")
    mu = pmf_from_text(args.mu)
    seed = args.seed if args.seed is not None else secrets.randbits(48)
    est = speed_estimate(J, K, mu, args.t_max, args.replicas, seed)
    print(f"seed={seed} estimate={_fmt(est.ratio_estimate)} "
          f"std_error={_fmt(est.std_error)} theoretical={_fmt(est.theoretical)} "
          f"t_max={est.t_max} replicas={est.replicas}")
    if args.out:
        write_jsonl([{"record": "meta", "seed": seed,
                      "J": capacity_str(J), "K": capacity_str(K), "mu": args.mu}]
                    + est.jsonl_records(), args.out)
    if args.strict:
        rel = abs(est.ratio_estimate - est.theoretical) / abs(est.theoretical)
        if rel > args.tol_rel:
            print(f"strict: relative error {_fmt(rel)} exceeds {args.tol_rel}")
            return STAT_EXIT
    return 0


def _apply_config_file(argv: List[str]) -> List[str]:
    """Expand ``--config-file`` into leading flags (explicit flags win)."""
    if "--config-file" not in argv:
        return argv
    i = argv.index("--config-file")
    if i + 1 >= len(argv):
        raise InvalidParams("--config-file needs a path")
    path = argv[i + 1]
    rest = argv[:i] + argv[i + 2:]
    extra: List[str] = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise InvalidParams(f"config file line not key = value: {line!r}")
            key, value = (s.strip() for s in line.split("=", 1))
            extra.extend([f"--{key.replace('_', '-')}", value])
    # subcommand first, then file values, then explicit flags
    return rest[:1] + extra + rest[1:]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bbs", description="box-ball system dynamics and measure tools")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_caps(p):
        p.add_argument("--J", required=True, help="box capacity (int or inf)")
        p.add_argument("--K", required=True, help="carrier capacity (int or inf)")

    p = sub.add_parser("evolve", help="evolve a window and write CSVs")
    add_caps(p)
    p.add_argument("--config", required=True, help="window as offset:v0,v1,...")
    p.add_argument("--steps", type=int, default=1)
    p.add_argument("--boundary", default="zero",
                   choices=["zero", "detect", "seeded", "iid"])
    p.add_argument("--floor", type=int, default=0)
    p.add_argument("--carrier-seed", type=int, default=0)
    p.add_argument("--currents", default="")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("dual", help="verify space-time duality of a block")
    add_caps(p)
    p.add_argument("--in", dest="infile", required=True,
                   help="a block CSV written by bbs evolve --out")
    p.set_defaults(func=cmd_dual)

    p = sub.add_parser("measure", help="measure-level tools")
    p.add_argument("action",
                   choices=["classify", "dual-measure", "detailed-balance",
                            "oracle"])
    add_caps(p)
    p.add_argument("--mu", required=True)
    p.add_argument("--nu", default="")
    p.add_argument("--k", type=int, default=1)
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("speed", help="tagged-particle speed estimate")
    add_caps(p)
    p.add_argument("--mu", required=True)
    p.add_argument("--t-max", type=int, default=2000)
    p.add_argument("--replicas", type=int, default=32)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default="")
    p.add_argument("--strict", action="store_true")
    p.add_argument("--tol-rel", type=float, default=0.05)
    p.set_defaults(func=cmd_speed)
    return parser


# built once for callers that run main many times in one process
_parser = functools.cache(build_parser)


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _parser().parse_args(_apply_config_file(argv))
        return args.func(args)
    except (InvalidParams, FloorTooLarge, OSError) as exc:  # OSError: a file not opened
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except BoxBallError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DOMAIN_EXIT


if __name__ == "__main__":
    sys.exit(main())
