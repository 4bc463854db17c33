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
    block = evolve_block(J, K, Config(offset, eta, J, IidInvariant(currents)), T_max)
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
    """Chi-square upper tail P(X > x), X ~ chi2(df), for an integer df >= 1.
    With h = x/2 and k running over df/2 - 1, df/2 - 2, ... >= 0, it is
    sum_k h^k e^(-h) / Gamma(k + 1): for even df the Poisson tail, for odd
    df the half-integer series, plus erfc(sqrt(h)).  Each term is positive
    and formed in log space, so nothing cancels or overflows; the sum's
    rounding, a few ulps past 1 for large df and small x, is clipped."""
    if x <= 0.0:
        return 1.0
    h = 0.5 * x
    log_h, s = math.log(h), 0.5 * (df % 2)
    terms = [math.exp((s + i) * log_h - h - math.lgamma(s + i + 1))
             for i in range(df // 2)]
    if df % 2:
        terms.append(math.erfc(math.sqrt(h)))
    return min(1.0, math.fsum(terms))


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
# replicas x t_max lanes in one wavefront: enough to take the default 32
# replicas at t_max = 2000 in one, and its arrays stay within a few MB
_LANE_BUDGET = 2 ** 16


def _draw_sites(mu: Pmf, rng: np.random.Generator) -> Iterator[np.ndarray]:
    """Initial-row sites 1, 2, ... in arrays of ``_DRAW_CHUNK`` sites; the
    chunks equal one long ``sample_pmf`` draw from the same generator."""
    while True:
        yield sample_pmf(mu, rng, _DRAW_CHUNK)


def _track_replicas(J: Capacity, K: Capacity, mu: Pmf, nu: Pmf, t_max: int,
                    specs: Sequence[RngSpec]) -> List[Dict[str, float]]:
    """The records of the replicas of ``specs``, tracked in one wavefront.

    Each replica follows the left-most ball at site >= 1 for t_max steps.
    The block is filled one anti-diagonal t + n - 1 = d at a time: cell
    (t, n) takes its occupancy from (t - 1, n) and its load from (t, n - 1),
    so a diagonal is one map over the row lanes t = 0 .. min(d, t_max - 1)
    of every replica.  Lane t's load stays in row t of ``load``.  The
    occupancies live on one site strip (sites by replicas) that holds the
    newest row's value of each site: lane t writes its new occupancy over
    the value it read, where lane t + 1 reads it on the next diagonal, so a
    diagonal's lanes are one block of the strip that moves one site left per
    diagonal.  On diagonal d the occupancy is stored as -(-1)**d (2a - lo)
    and the load as (-1)**d (2b - lo): the sign-alternating form of
    ``exchange_map``, at the sign (-1)**d with the occupancy as X for
    J <= K, and at -(-1)**d with the load as X for J > K.

    Each replica draws its initial row from its own stream, C sites per
    chunk; a chunk's C diagonals are one ``exchange_map`` call.  Row t_max's
    cells are left behind the lanes and are counted once per chunk.  The
    ball is found by its rank.  A site's pool is its entering queue, then
    its box balls, and the first a' of it stay, so no ball overtakes
    another, and the balls entering at the left boundary pass in ahead of
    every ball already at a site >= 1.  At time t_max the ball is therefore
    the (1 + sum of the currents)-th ball counted from site 1: the first
    diagonal on which the count of row t_max's balls reaches that rank fixes
    the record.  ``tagged_evolve`` of ``tests/paper_views.py``, which moves
    every ball, checks this.  The dtype is ``exchange_form``'s for the most
    balls any replica has entered, checked per chunk, and the wavefront runs
    until every replica has its record."""
    R, C = len(specs), _DRAW_CHUNK
    draws = [_draw_sites(mu, s.stream("window")) for s in specs]
    currents = np.stack([sample_pmf(nu, s.stream("currents"), t_max) for s in specs], axis=1)
    balls = currents.sum(axis=0)
    rank = balls + 1
    lo, dtype, _ = exchange_form(J, K, int(balls.max()))
    alt = 1 - 2 * (np.arange(max(C, t_max)) & 1)    # (-1)**k
    load = (alt[:t_max, None] * (2 * currents - lo)).astype(dtype)    # lane t joins at d = t
    strip = np.zeros((C + t_max - 1, R), dtype=dtype)
    q, t = scratch = np.empty((2, t_max, R), dtype=dtype)
    x0 = np.zeros(R, dtype=np.int64)
    count = np.zeros(R, dtype=np.int64)    # balls of row t_max at the sites passed
    records: List[Optional[Dict[str, float]]] = [None] * R
    diagonals: List[Tuple[np.ndarray, ...]] = []
    steady = False    # every diagonal of ``diagonals`` maps all t_max lanes
    d0 = 0
    while None in records:
        chunk = np.stack([next(g) for g in draws], axis=1)    # sites d0 + 1 .. d0 + C
        balls += chunk.sum(axis=0)
        _, new_dtype, top = exchange_form(J, K, int(balls.max()))
        if new_dtype != dtype:    # promoted once, if at all
            dtype, steady = new_dtype, False
            strip, load = strip.astype(dtype), load.astype(dtype)
            q, t = scratch = scratch.astype(dtype)
        first = np.flatnonzero((x0 == 0) & chunk.any(axis=0))
        x0[first] = d0 + 1 + (chunk[:, first] != 0).argmax(axis=0)
        sign = 1 - 2 * (d0 & 1)    # (-1)**d0
        # site d0 + 1 + j enters at strip row C - 1 - j
        strip[C - 1::-1] = (-sign * alt[:C, None]) * (2 * chunk - lo)
        if not steady:
            diagonals = []    # the last chunk's views go first: less peak memory
            # diagonal d0 + k maps its n lanes at strip rows C - 1 - k onwards
            lanes = zip(range(C - 1, -1, -1),
                        np.minimum(np.arange(d0 + 1, d0 + C + 1), t_max).tolist())
            diagonals = [(strip[p:p + n], load[:n], q[:n], t[:n]) for p, n in lanes]
            if J > K:
                diagonals = [(w, a, *rest) for a, w, *rest in diagonals]
            steady = d0 + 1 >= t_max
        exchange_map(diagonals, sign if J <= K else -sign, top)
        # diagonal d0 + k left row t_max's cell at site d0 + k - t_max + 2
        # at strip row C + t_max - 2 - k, once k >= k0
        k0 = max(0, t_max - 1 - d0)
        if k0 < C:
            last = strip[t_max - 1:C + t_max - 1 - k0][::-1].astype(np.int64)
            last *= sign * alt[k0:C, None]
            last += lo
            last >>= 1
            cum = count + np.cumsum(last, axis=0)
            ks = k0 + (cum >= rank).argmax(axis=0)
            for r in np.flatnonzero(cum[-1] >= rank):
                if records[r] is None:
                    d = d0 + int(ks[r])
                    x_final = d - t_max + 2
                    records[r] = {
                        "replica": float(specs[r].replica_index), "x0": float(x0[r]),
                        "x_final": float(x_final), "ratio": x_final / t_max,
                        "window": float(d + 1), "attempt": 0.0,
                        "cells": float(t_max * (2 * d - t_max + 3) // 2)}
            count = cum[-1]
        strip[C:] = strip[:t_max - 1]    # the newest sites, where the next lanes read them
        d0 += C
    return records


def speed_estimate(J: Capacity, K: Capacity, mu: Pmf, t_max: int,
                   replicas: int, rng: Union[int, RngSpec]) -> SpeedEstimate:
    """Monte Carlo estimate of the tagged-particle speed (theory: dual mean
    over measure mean).  Replica r uses the streams of ``RngSpec(seed, r)``
    and records ``x0``, ``x_final``, ``window`` (initial sites used:
    sites 1..window, about t_max + x_final), ``cells`` (the block's cells:
    min(d + 1, t_max) on each diagonal d < window) and ``attempt`` (always
    0: sites are drawn on demand, so none run out).  The replicas are
    tracked ``_LANE_BUDGET // t_max`` (at least one) to a wavefront, so the
    default 32 at t_max = 2000 share one; a record does not depend on the
    batching, nor on the other replicas of the call."""
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
    specs = [RngSpec(master, rep) for rep in range(replicas)]
    batch = max(1, _LANE_BUDGET // t_max)
    records = [rec for i in range(0, replicas, batch)
               for rec in _track_replicas(J, K, mu, nu, t_max, specs[i:i + batch])]
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
