"""Randomized end-to-end experiments on stationary box-ball dynamics.

The sampler turns an infinite-lattice law into an exact finite algorithm:
under an invariant i.i.d. measure the loads entering the window are i.i.d.
with the dual law and independent of the window contents, so a block can be
drawn by sampling the initial row and the left-boundary currents and then
evolving deterministically.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from .capacities import Capacity
from .errors import InvalidParams
from .evolution import SpaceTimeBlock, current_column, evolve_block
from .lattice import Config, IidInvariant
from .local_rules import exchange_form, exchange_map
from .measures import (
    Pmf,
    classify_invariant,
    dual_measure,
    mean_occupancy,
    sample_pmf,
)

_ROLE_IDS = {"window": 1, "currents": 2}


@dataclass(frozen=True)
class RngSpec:
    """Key of a reproducible random substream; distinct replica indices give
    statistically independent streams."""

    master_seed: int
    replica_index: int = 0

    def stream(self, role: str) -> np.random.Generator:
        # the third key word is fixed at 0 so the streams keep their values
        key = (self.replica_index, _ROLE_IDS[role], 0)
        return np.random.default_rng(
            np.random.SeedSequence(self.master_seed, spawn_key=key))


def _as_master_seed(rng: Union[int, RngSpec]) -> int:
    return rng.master_seed if isinstance(rng, RngSpec) else int(rng)


# ---------------------------------------------------------------------------
# exact stationary block sampling
# ---------------------------------------------------------------------------


def sample_stationary_block(J: Capacity, K: Capacity, mu: Pmf, L: int,
                            T_max: int, rng: Union[int, RngSpec],
                            offset: int = 1,
                            ) -> Tuple[SpaceTimeBlock, Dict[str, object]]:
    """Draw a window of i.i.d.-mu sites and i.i.d.-dual left currents and
    evolve deterministically; the block law equals the restriction of the
    stationary dynamics exactly when mu is invariant (a warning is recorded
    in the metadata otherwise)."""
    spec = rng if isinstance(rng, RngSpec) else RngSpec(int(rng))
    result = classify_invariant(J, K, mu)
    meta: Dict[str, object] = {"verdict": result.verdict}
    if result.invariant:
        nu = result.dual
    else:
        nu = dual_measure(J, K, mu)
        meta["warning"] = ("measure is not invariant: the block law is not "
                           "the stationary restriction")
    if L < 1:
        raise InvalidParams("window must be non-empty")
    eta = sample_pmf(mu, spec.stream("window"), L)
    currents = tuple(sample_pmf(nu, spec.stream("currents"), T_max + 1).tolist())
    block = evolve_block(J, K, Config.from_array(offset, eta, J, IidInvariant(currents)), T_max)
    meta["dual"] = nu
    return block, meta


# ---------------------------------------------------------------------------
# statistical tests
# ---------------------------------------------------------------------------


def _chi2_p(counts: np.ndarray, probs: np.ndarray) -> float:
    """Chi-square goodness-of-fit p-value with low-expectation bins merged
    (expected >= 5 kept, the rest lumped together)."""
    n = counts.sum()
    expected = n * probs
    if n == 0:
        return 1.0
    keep = expected >= 5.0
    if keep.sum() < len(probs):
        rest_c = counts[~keep].sum()
        rest_e = expected[~keep].sum()
        counts = np.append(counts[keep], rest_c)
        expected = np.append(expected[keep], rest_e)
        if expected[-1] == 0.0:
            if rest_c:
                return 0.0
            counts, expected = counts[:-1], expected[:-1]
    if len(counts) < 2:
        return 1.0
    return _chi2_sf(float(((counts - expected) ** 2 / expected).sum()), len(counts) - 1)


def _chi2_sf(x: float, df: int) -> float:
    """``scipy.stats.chi2.sf(x, df)``, read from the function that it calls."""
    from scipy.special import chdtrc    # on first use, not with the package
    return float(chdtrc(df, x))


def _tv(counts: np.ndarray, probs: np.ndarray) -> float:
    emp = counts / max(counts.sum(), 1)
    return 0.5 * float(np.abs(emp - probs).sum())


@dataclass(frozen=True)
class InvarianceTestReport:
    marginal_p: float
    pair_p: float
    row_tv: Tuple[float, ...]
    significance: float
    per_replica: Tuple[Dict[str, float], ...]
    passed: bool


def invariance_mc_test(J: Capacity, K: Capacity, mu: Pmf, L: int, T_max: int,
                       replicas: int, rng: Union[int, RngSpec],
                       significance: float = 0.01) -> InvarianceTestReport:
    """Sample stationary blocks and test the final row against the product
    law: marginal and disjoint adjacent-pair chi-square plus per-row total
    variation distances.  Replica p-values are combined by Fisher's method."""
    master = _as_master_seed(rng)
    probs = mu.array()
    A = len(probs)
    pair_probs = np.multiply.outer(probs, probs).ravel()
    reports = []
    tv_rows: List[float] = []
    for rep in range(replicas):
        block, _ = sample_stationary_block(
            J, K, mu, L, T_max, RngSpec(master, rep))
        tvs = [_tv(np.bincount(row, minlength=A)[:A], probs) for row in block.occ]
        last = block.occ[-1]
        counts = np.bincount(last, minlength=A)[:A]
        p_m = _chi2_p(counts, probs)
        h = len(last) // 2
        pair_idx = last[0:2 * h:2] * A + last[1:2 * h:2]
        p_counts = np.bincount(pair_idx, minlength=A * A)[: A * A]
        p_pair = _chi2_p(p_counts, pair_probs)
        reports.append({"marginal_p": p_m, "pair_p": p_pair,
                        "final_row_tv": tvs[-1]})
        tv_rows.extend(tvs)

    def fisher(ps: List[float]) -> float:
        return _chi2_sf(-2.0 * sum(math.log(max(p, 1e-300)) for p in ps), 2 * len(ps))

    p_m = fisher([r["marginal_p"] for r in reports])
    p_pair = fisher([r["pair_p"] for r in reports])
    return InvarianceTestReport(
        marginal_p=p_m, pair_p=p_pair, row_tv=tuple(tv_rows),
        significance=significance, per_replica=tuple(reports),
        passed=(p_m > significance and p_pair > significance))


@dataclass(frozen=True)
class CurrentIidReport:
    marginal_p: float
    autocorr: float
    autocorr_bound: float
    column: int
    passed: bool


def current_iid_test(block: SpaceTimeBlock, nu_expected: Pmf,
                     column: Optional[int] = None,
                     significance: float = 0.01) -> CurrentIidReport:
    """Test an interior column of carrier loads against the expected dual
    law (marginal chi-square) and bound its lag-1 sample autocorrelation."""
    if column is None:
        lo, hi = block.load_span[0].tolist()
        column = block.offset + (lo + hi - 1) // 2
    vals = np.asarray(current_column(block, column), dtype=np.int64)
    T = len(vals)
    probs = nu_expected.array()
    counts = np.bincount(vals, minlength=len(probs))
    if len(counts) > len(probs):
        # observed loads beyond the truncation: fold into a zero-prob bin
        probs = np.append(probs, np.zeros(len(counts) - len(probs)))
    p_m = _chi2_p(counts, probs)
    x = vals.astype(float)
    v = x.var()
    if v == 0.0 or T < 3:
        rho = 0.0
    else:
        rho = float(((x[:-1] - x.mean()) * (x[1:] - x.mean())).mean() / v)
    bound = 3.0 / math.sqrt(T)
    return CurrentIidReport(p_m, rho, bound, column,
                            passed=(p_m > significance and abs(rho) <= bound))


# ---------------------------------------------------------------------------
# tagged-particle speed
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpeedEstimate:
    ratio_estimate: float
    std_error: float
    theoretical: float
    t_max: int
    replicas: int
    per_replica: Tuple[Dict[str, float], ...] = field(default_factory=tuple)

    def jsonl_records(self) -> List[Dict[str, object]]:
        recs: List[Dict[str, object]] = [
            {"record": "replica", **r} for r in self.per_replica]
        recs.append({"record": "summary",
                     "ratio_estimate": self.ratio_estimate,
                     "std_error": self.std_error,
                     "theoretical": self.theoretical,
                     "t_max": self.t_max,
                     "replicas": self.replicas})
        return recs


_DRAW_CHUNK = 256


def _draw_sites(mu: Pmf, rng: np.random.Generator) -> Iterator[int]:
    """Initial-row sites 1, 2, ... drawn on demand in chunks; the chunks
    equal one long ``sample_pmf`` draw from the same generator."""
    while True:
        yield from sample_pmf(mu, rng, _DRAW_CHUNK).tolist()


def _track_one_replica(J: Capacity, K: Capacity, mu: Pmf, nu: Pmf,
                       t_max: int, spec: RngSpec) -> Dict[str, float]:
    """Track the left-most ball at site >= 1 for t_max steps, filling the
    block one anti-diagonal t + n = d at a time: cell (t, n) takes its
    occupancy from (t-1, n) and its load from (t, n-1), so a diagonal is one
    elementwise local map.  ``occ[t]``, ``load[t]`` feed row t's next cell,
    held in the doubled state of ``exchange_map`` (2a - lo, 2b - lo); each
    diagonal writes into preallocated rows: row t's new occupancy goes to
    ``nxt[t + 1]``, its new load over ``load[t]``.
    The ball's pool (entering queue, then box) follows ``tagged_evolve``."""
    sites = _draw_sites(mu, spec.stream("window"))
    lo, zero, top = exchange_form(J, K, t_max)
    # row t joins at d = t
    load = (2 * sample_pmf(nu, spec.stream("currents"), t_max) - lo).astype(zero.dtype)
    occ, nxt, q = np.zeros((3, t_max + 1), dtype=zero.dtype)
    row = -1    # row of the ball's next cell; -1 until the ball is found
    rank = cells = d = 0    # rank: place in the pool from the first box ball
    while True:
        site0 = next(sites)
        occ[0] = 2 * site0 - lo
        if row < 0 and site0 > 0:
            row, rank, x0 = 0, 1, d + 1
        if row >= 0:
            pos = ((int(load[row]) + lo) >> 1) + rank
        m = min(d + 1, t_max)
        exchange_map(J, K, occ[:m], load[:m], nxt[1:m + 1], q[:m], zero[:m],
                     None if top is None else top[:m])
        cells += m
        if row >= 0:
            if 2 * pos - lo <= nxt[row + 1]:
                row, rank = row + 1, pos
                if row == t_max:
                    break
            else:       # the pool's tail rides on, ahead of the next box
                rank -= (int(occ[row]) + lo) >> 1
        occ, nxt = nxt, occ
        d += 1
    x_final = d - t_max + 2
    return {"replica": float(spec.replica_index), "x0": float(x0),
            "x_final": float(x_final), "ratio": x_final / t_max,
            "window": float(d + 1), "attempt": 0.0, "cells": float(cells)}


def speed_estimate(J: Capacity, K: Capacity, mu: Pmf, t_max: int,
                   replicas: int, rng: Union[int, RngSpec]) -> SpeedEstimate:
    """Monte Carlo estimate of the tagged-particle speed (theory: dual mean
    over measure mean).  Replica r uses the streams of ``RngSpec(seed, r)``
    and records ``x0``, ``x_final``, ``window`` (initial sites drawn:
    sites 1..window, about t_max + x_final), ``cells`` (cells updated) and
    ``attempt`` (always 0: sites are drawn on demand, so none run out)."""
    if J == K:
        raise InvalidParams("speed is identically 1 when J = K; nothing to estimate")
    if t_max < 1 or replicas < 1:
        raise InvalidParams(f"need t_max, replicas >= 1, got {t_max}, {replicas}")
    if mu.at(0) == 1.0:
        raise InvalidParams("measure must place mass on nonzero occupancies")
    result = classify_invariant(J, K, mu)
    if not result.invariant:
        raise InvalidParams(f"speed estimation needs an invariant measure, "
                            f"got {result.verdict}")
    nu = result.dual
    theoretical = mean_occupancy(nu) / mean_occupancy(mu)
    master = _as_master_seed(rng)
    records = [_track_one_replica(J, K, mu, nu, t_max, RngSpec(master, rep))
               for rep in range(replicas)]
    ratios = np.array([r["ratio"] for r in records])
    se = float(ratios.std(ddof=1) / math.sqrt(replicas)) if replicas > 1 else 0.0
    return SpeedEstimate(float(ratios.mean()), se, theoretical, t_max,
                         replicas, tuple(records))


def write_jsonl(records: Sequence[Dict[str, object]], path: str) -> None:
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def write_report_csv(records: Sequence[Dict[str, object]], path: str) -> None:
    """Flat CSV alternative to the JSON-lines report (one row per record)."""
    keys = list(dict.fromkeys(k for rec in records for k in rec))   # first-seen order
    with open(path, "w") as fh:
        fh.write(",".join(keys) + "\n")
        for rec in records:
            fh.write(",".join(
                "" if k not in rec else
                (format(rec[k], ".17g") if isinstance(rec[k], float) else str(rec[k]))
                for k in keys) + "\n")
