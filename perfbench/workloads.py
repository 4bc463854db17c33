"""The four benchmark workloads.

Each workload turns a seed into inputs and hands out passes of operations.
An operation is one replica, one grid pair or one block; it returns the
checks made on its output and the work it completed in the workload's user
unit.  A workload may add checks on the joint output of a whole pass (the
pooled speed estimate); those count against every operation of the pass.

A failed check is either an unexpected failure or one of the documented
known defects below.  Both count as failed; only an unexpected failure makes
the run incorrect.

Known defects of the measured program:

* ``dual-grid`` / ``closed_form`` on K = inf pairs: the dense least-squares
  solve of the load chain misses the closed form by ~1.9e-10 against the
  1e-10 bound on the two alpha = 0.9 pairs.
* ``blocks`` / ``csv_roundtrip`` on Detect blocks: ``write_block_csv``
  writes undetermined sites as 0 and ``read_block_csv`` rebuilds the block
  with a ``SeededCarrier(0)`` boundary, so no Detect block reads back equal.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

import boxball as bb
from boxball import blockio, cli


@dataclass
class Check:
    name: str
    ok: bool
    known: bool = False
    detail: str = ""


@dataclass
class OpResult:
    checks: List[Check] = field(default_factory=list)
    work: float = 0.0
    value: Optional[float] = None


Op = Tuple[str, Callable[[], OpResult]]


def sub_seed(*keys: int) -> int:
    """A 63-bit seed derived from the run seed and the operation's keys."""
    words = np.random.SeedSequence(list(keys)).generate_state(2, np.uint32)
    return (int(words[0]) << 31) ^ int(words[1])


def _same_padded(a, b) -> bool:
    """Equality of two windows as zero-padded infinite configurations (the
    benchmark's own, so that its checks add no spans to ``lattice``)."""
    return all(a.at(n) == b.at(n) for n in
               range(min(a.offset, b.offset), max(a.end, b.end) + 1))


def _estimate_check(results: List[OpResult], theory: float) -> Check:
    ratios = [r.value for r in results if r.value is not None]
    if len(ratios) < len(results):
        return Check("estimate_5pct", False, detail="a replica failed")
    est = float(np.mean(ratios))
    rel = abs(est - theory) / theory
    return Check("estimate_5pct", rel < 0.05,
                 detail=f"estimate={est:.5f} theory={theory:.5f} rel={rel:.4f}")


class _Replicas:
    """A speed workload: one operation is one replica with its own seed, and
    the pass's pooled estimate is checked against theory."""

    unit = "ball_steps"

    def ops(self, k: int) -> List[Op]:
        return [(f"replica {i}", lambda s=sub_seed(self.seed, k, i): self._replica(s))
                for i in range(self.replicas)]

    def pass_checks(self, results: List[OpResult]) -> List[Check]:
        return [_estimate_check(results, self.theory)]


class SpeedFinite(_Replicas):
    """Tagged-particle speed at (J, K) = (3, 5) under stbGeo(3, 0.5, 1, 1),
    four replicas per pass."""

    def __init__(self, seed: int, workdir: str, tiny: bool = False):
        self.seed = seed
        self.J, self.K = 3, 5
        self.mu = bb.stbgeo(3, 0.5, 1, 1)
        self.t_max = 60 if tiny else 2000
        self.replicas = 2 if tiny else 4
        # independent linear solve for the theoretical speed, as in c09b
        self.theory = (bb.mean_occupancy(bb.dual_measure(self.J, self.K, self.mu))
                       / bb.mean_occupancy(self.mu))

    def _replica(self, rng: int) -> OpResult:
        est = bb.speed_estimate(self.J, self.K, self.mu, t_max=self.t_max,
                                replicas=1, rng=rng)
        agree = abs(est.theoretical - self.theory) < 1e-10
        return OpResult([Check("theory_agrees", agree,
                               detail=f"closed form {est.theoretical!r}")],
                        work=self.t_max, value=est.ratio_estimate)


class SpeedInf(_Replicas):
    """The default ``bbs speed --J 1 --K inf --mu bernoulli:0.25`` run,
    in process through ``cli.main``, one replica per call, 32 per pass."""

    theory = 2.0          # dual mean / measure mean for Bernoulli(1/4), as in c09a

    def __init__(self, seed: int, workdir: str, tiny: bool = False):
        self.seed = seed
        self.out = os.path.join(workdir, "speed.jsonl")
        self.t_max = 60 if tiny else 2000
        self.replicas = 4 if tiny else 32

    def _replica(self, rng: int) -> OpResult:
        argv = ["speed", "--J", "1", "--K", "inf", "--mu", "bernoulli:0.25",
                "--t-max", str(self.t_max), "--replicas", "1",
                "--seed", str(rng), "--out", self.out]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        checks = [Check("exit_code", code == 0, detail=f"exit {code}")]
        if code != 0:
            return OpResult(checks)
        with open(self.out) as fh:
            summary = [json.loads(line) for line in fh][-1]
        agree = abs(summary["theoretical"] - self.theory) < 1e-9
        checks.append(Check("theory_agrees", agree,
                            detail=f"closed form {summary['theoretical']!r}"))
        return OpResult(checks, work=self.t_max, value=summary["ratio_estimate"])


def stbgeo_grid():
    """The (J, K, m, alpha, beta) grid of acceptance criteria 5 and 7."""
    INF = bb.INF
    for J, K in [(1, 2), (1, 3), (2, 4), (2, 6), (3, 5), (1, INF), (2, INF)]:
        finite = J != INF and K != INF
        for m in (1, 2):
            if (J != INF and J % m) or (K != INF and K % m):
                continue
            for alpha in (0.3, 0.5, 0.9, 1.0, 1.5):
                if alpha >= 1 and not finite:
                    continue
                for beta in (0.5, 1.0, 2.0):
                    if beta != 1.0 and ((J != INF and J % (2 * m))
                                        or (K != INF and K % (2 * m))):
                        continue
                    yield J, K, m, alpha, beta


class DualGrid:
    """The 70-pair stbGeo grid: dual measure against its closed form, the
    classifier, detailed balance and, on finite pairs, the k = 3 oracle.
    The seed only permutes the order of the pairs."""

    unit = "solves"

    def __init__(self, seed: int, workdir: str, tiny: bool = False):
        grid = list(stbgeo_grid())
        if tiny:
            grid = [p for p in grid if p[3] != 0.9][::6]
        order = np.random.default_rng(sub_seed(seed)).permutation(len(grid))
        self.pairs = []
        for i in order:
            J, K, m, alpha, beta = grid[i]
            NJ = J if J == bb.INF else J // m
            NK = K if K == bb.INF else K // m
            self.pairs.append((J, K, m, alpha, beta,
                               bb.stbgeo(NJ, alpha, beta, m),
                               bb.stbgeo(NK, alpha, beta, m)))

    @staticmethod
    def _pair(J, K, mu, nu_closed) -> OpResult:
        nu = bb.dual_measure(J, K, mu)
        verdict = bb.classify_invariant(J, K, mu).verdict
        residual = bb.detailed_balance_residual(J, K, mu, nu_closed)
        n = max(len(nu), len(nu_closed))
        a, b = np.zeros(n), np.zeros(n)
        a[:len(nu)] = nu.weights
        b[:len(nu_closed)] = nu_closed.weights
        err = float(np.abs(a - b).max())
        infinite = J == bb.INF or K == bb.INF
        checks = [
            Check("closed_form", err < 1e-10, known=(K == bb.INF),
                  detail=f"max |solve - closed form| = {err:.3g}"),
            Check("r_equal", bb.r_val(J, mu) == bb.r_val(K, nu)),
            Check("classify", verdict == "Invariant", detail=verdict),
            Check("balance", residual < 1e-12, detail=f"residual {residual:.3g}"),
        ]
        if infinite:
            checks.append(Check("underline_r_equal",
                                bb.underline_r(mu) == bb.underline_r(nu)))
        else:
            dev = bb.invariance_oracle(J, K, mu, 3).deviation
            checks.append(Check("oracle", dev < 1e-10, detail=f"deviation {dev:.3g}"))
        return OpResult(checks, work=1)

    def ops(self, k: int) -> List[Op]:
        return [(f"J={J} K={K} m={m} alpha={alpha} beta={beta}",
                 lambda J=J, K=K, mu=mu, nu=nu: self._pair(J, K, mu, nu))
                for J, K, m, alpha, beta, mu, nu in self.pairs]

    def pass_checks(self, results: List[OpResult]) -> List[Check]:
        return []


class Blocks:
    """Space-time blocks: five stationary blocks in each of four regimes with
    their invariant measures, and three Detect-boundary windows in each of
    three regimes.  Every block is duality-checked and written to CSV and
    read back; every operation also checks inverse_step(step(c)) == c on a
    zero-padded window.

    The stationary blocks are shallow (T = 40) and taken round robin over
    the regimes, so they spread over the pass, and they outnumber the Detect
    blocks (milliseconds each): the median and tail operations are
    stationary blocks sampled across the whole pass."""

    unit = "cells"

    def __init__(self, seed: int, workdir: str, tiny: bool = False):
        self.seed = seed
        self.path = os.path.join(workdir, "block.csv")
        self.L, self.T = (60, 10) if tiny else (2000, 40)
        self.stationary = [(3, 2, bb.uniform(3)), (2, 2, bb.uniform(2)),
                           (2, 4, bb.uniform(2)), (1, bb.INF, bb.bernoulli(0.25))]
        self.detect = [(3, 5), (4, 2), (2, 3)]
        self.per_regime = (2, 1) if tiny else (5, 3)   # stationary, Detect
        self.width, self.steps = (30, 3) if tiny else (60, 5)

    def _roundtrip(self, block, known: bool) -> Check:
        blockio.write_block_csv(block, self.path)
        back = blockio.read_block_csv(self.path, block.J, block.K)
        return Check("csv_roundtrip", back == block, known=known)

    def _inverse(self, J, K, cells) -> Check:
        c = bb.Config(1, cells, J)
        return Check("inverse_step", _same_padded(bb.inverse_step(J, K, bb.step(J, K, c)), c))

    @staticmethod
    def _duality(block) -> Check:
        rep = bb.duality_verify(block)
        return Check("duality", rep.violations == 0,
                     detail=f"{rep.violations} of {rep.cells_checked}")

    @staticmethod
    def _cells(block) -> int:
        return sum(len(cfg) for cfg, _ in block.rows)

    def _stationary(self, J, K, mu, s: int, cells) -> OpResult:
        block, meta = bb.sample_stationary_block(J, K, mu, self.L, self.T, s)
        checks = [self._duality(block)]
        bb.current_iid_test(block, meta["dual"])
        bb.invariance_mc_test(J, K, mu, self.L, self.T, 1, s + 1)
        checks += [self._roundtrip(block, known=False), self._inverse(J, K, cells)]
        return OpResult(checks, work=self._cells(block))

    def _detect(self, J, K, cells) -> OpResult:
        block = bb.evolve_block(J, K, bb.Config(1, cells, J, bb.Detect()), self.steps)
        checks = [self._duality(block), self._roundtrip(block, known=True),
                  self._inverse(J, K, cells)]
        return OpResult(checks, work=self._cells(block))

    def ops(self, k: int) -> List[Op]:
        rng = np.random.default_rng(sub_seed(self.seed, k))

        def window(J):
            return tuple(int(v) for v in rng.integers(0, J + 1, self.width))

        out: List[Op] = []
        for i in range(self.per_regime[0]):
            for J, K, mu in self.stationary:
                out.append((f"stationary J={J} K={K} #{i}",
                            lambda J=J, K=K, mu=mu, s=int(rng.integers(2 ** 62)),
                            c=window(J): self._stationary(J, K, mu, s, c)))
        for i in range(self.per_regime[1]):
            for J, K in self.detect:
                out.append((f"detect J={J} K={K} #{i}",
                            lambda J=J, K=K, c=window(J): self._detect(J, K, c)))
        return out

    def pass_checks(self, results: List[OpResult]) -> List[Check]:
        return []


WORKLOADS = {"speed-finite": SpeedFinite, "speed-inf": SpeedInf,
             "dual-grid": DualGrid, "blocks": Blocks}
