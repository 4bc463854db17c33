"""Digest manifest of the row functions, for checking that a refactor keeps
every output bit-identical.

``manifest(tmp)`` runs ``step``, ``inverse_step``, ``sweep``,
``canonical_carrier`` and ``detect_seed`` on random windows, ``evolve_block``
under ZeroPad, a constant IidInvariant (keyed "seeded") and Detect(0) (with
its CSV bytes and the ``duality_verify`` counts), ``sample_stationary_block``
and the speed records at t_max = 60, over J, K in {1, 2, 3, 5, inf} and two
seeds.  Integer outputs are stored as digests of their little-endian int64
bytes, so the manifest does not depend on the container type of a window;
an expected error is stored by type and message.  ``duals()`` stores the
``dual_measure`` weights and ``truncated`` flag over the stbGeo grid of
acceptance criterion 7 and four K = inf measures as values, for a comparison
within an absolute tolerance.  ``tests/test_golden.py`` compares a fresh run
with ``rows.json``.

Regenerate the stored manifest only on purpose, when an output is meant to
change:

    PYTHONPATH=src python3 tests/golden/rows.py --write
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile

import numpy as np

from boxball import (
    INF,
    Config,
    Detect,
    IidInvariant,
    ZeroPad,
    Pmf,
    bernoulli,
    canonical_carrier,
    capacity_str,
    detect_seed,
    dual_measure,
    duality_verify,
    evolve_block,
    inverse_step,
    sample_stationary_block,
    speed_estimate,
    stbgeo,
    step,
    sweep,
    uniform,
)
from boxball.blockio import write_block_csv
from boxball.errors import BoxBallError

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
from stbgeo_grid import stbgeo_grid  # noqa: E402

CAPS = (1, 2, 3, 5, INF)
SEEDS = (11, 12)
T_BLOCK = 6
T_SPEED = 60
STORED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "rows.json")
DUAL = "dual_measure "     # key prefix of the float entries


def digest(values) -> str:
    data = np.asarray(values, dtype="<i8").tobytes()
    return hashlib.sha256(data).hexdigest()[:16]


def _config(c):
    return {"offset": c.offset, "cells": digest(c.cells)}


def _carrier(w):
    return {"offset": w.offset, "left_seed": w.left_seed, "values": digest(w.values)}


def _outcome(fn):
    try:
        return fn()
    except (BoxBallError, ValueError) as exc:
        return {"error": type(exc).__name__, "message": str(exc)}


def _block(b, tmp):
    paths = write_block_csv(b, os.path.join(tmp, "b.csv"))
    h = hashlib.sha256()
    for p in paths:
        with open(p, "rb") as fh:
            h.update(fh.read())
    report = duality_verify(b)
    return {"offset": b.offset, "occ": digest(b.occ), "load": digest(b.load),
            "occ_span": digest(b.occ_span), "load_span": digest(b.load_span),
            "left_currents": list(b.left_currents), "csv": h.hexdigest()[:16],
            "violations": report.violations, "checked": report.cells_checked}


def _regime(J, K, seed, tmp):
    rng = np.random.default_rng([seed, CAPS.index(J), CAPS.index(K)])
    top = min(J, 4)
    cells = tuple(rng.integers(0, top + 1, size=24).tolist())
    s = int(rng.integers(0, min(K, 4) + 1))
    out = {}
    for name, bnd in (("zero", ZeroPad()), ("seeded", IidInvariant((s,) * (T_BLOCK + 1))),
                      ("detect", Detect(0))):
        c = Config(1, cells, J, bnd)
        out[f"step.{name}"] = _outcome(lambda: _config(step(J, K, c)))
        out[f"canonical_carrier.{name}"] = _outcome(lambda: _carrier(canonical_carrier(J, K, c)))
        out[f"evolve_block.{name}"] = _outcome(lambda: _block(evolve_block(J, K, c, T_BLOCK), tmp))
        if name != "seeded":
            out[f"inverse_step.{name}"] = _outcome(lambda: _config(inverse_step(J, K, c)))
    c = Config(1, cells, J)
    for drain in (False, True):
        out[f"sweep.drain={drain}"] = _outcome(
            lambda: dict(zip(("carrier", "config"),
                             (f(x) for f, x in zip((_carrier, _config),
                                                   sweep(J, K, c, s, drain=drain))))))
    for floor in (0, 1):
        # cells in [floor, J - floor], where that band is not empty
        band = Config(1, tuple(min(max(v, floor), max(J - floor, floor)) for v in cells), J)
        out[f"detect_seed.floor={floor}"] = _outcome(
            lambda: (lambda r: None if r is None else [r.position, r.forced_value])(
                detect_seed(J, K, band, floor)))
    mu = bernoulli(0.25)
    out["sample_stationary_block"] = _outcome(
        lambda: _block(sample_stationary_block(J, K, mu, 16, T_BLOCK, seed)[0], tmp))
    for mu_name, mu in (("bernoulli(0.25)", mu), ("uniform(2)", uniform(min(J, 2)))):
        out[f"speed.{mu_name}"] = _outcome(
            lambda: [dict(r) for r in speed_estimate(J, K, mu, T_SPEED, 2, seed).per_replica])
    return out


def manifest(tmp: str) -> dict:
    return {f"J={capacity_str(J)} K={capacity_str(K)} seed={seed}": _regime(J, K, seed, tmp)
            for J in CAPS for K in CAPS for seed in SEEDS}


def _dual_cases():
    """(J, K, mu name, mu): the stbGeo grid, a heavier (1, inf) tail, a
    support wider than J / 2 and a closed class below J."""
    for J, K, m, alpha, beta, mu, _ in stbgeo_grid():
        yield J, K, f"stbgeo m={m} alpha={alpha} beta={beta}", mu
    yield 1, INF, "stbgeo m=1 alpha=0.95 beta=1.0", stbgeo(1, 0.95, 1.0, 1)
    yield 5, INF, "0.3,0.3,0.2,0.2", Pmf((0.3, 0.3, 0.2, 0.2))
    yield 3, INF, "bernoulli(0.25)", bernoulli(0.25)


def duals() -> dict:
    out = {}
    for J, K, name, mu in _dual_cases():
        nu = dual_measure(J, K, mu)
        out[f"{DUAL}J={capacity_str(J)} K={capacity_str(K)} mu={name}"] = {
            "weights": list(nu.weights), "truncated": nu.truncated}
    return out


def main(argv) -> int:
    if argv != ["--write"]:
        print(__doc__.strip().splitlines()[-1].strip(), file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        data = {**duals(), **manifest(tmp)}
    with open(STORED, "w") as fh:      # one regime per line
        fh.write("{\n" + ",\n".join(f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
                                     for k, v in data.items()) + "\n}\n")
    print(f"wrote {STORED} ({len(data)} entries)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
