"""The paper's views of the box-ball dynamics, kept as the references that
tests compare the program against: the cases and symmetries of the local
map, path encodings and the reflected-path (Pitman) transform for J < K,
zero-padded window equality, the per-ball tagged dynamics and the exact
one-step mean of a Palm-tagged ball.  The package calls none of them.  A
violated precondition raises ValueError."""

import enum
import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from boxball import INF, Config, ZeroPad, local_map
from boxball.capacities import is_finite
from boxball.carrier import _resolve_seed
from boxball.local_rules import check_cell


# ---------------------------------------------------------------------------
# the local map: cases and symmetries
# ---------------------------------------------------------------------------


class Case(enum.Enum):
    """Region of the (a, b) square selected by a + b, lowest number wins on
    boundary overlaps (the formulas agree there)."""

    ONE = "one"        # 0 <= a+b <= min{J, K}: swap
    TWO_A = "two_a"    # J <= a+b <= K: box empties into the carrier
    TWO_B = "two_b"    # K <= a+b <= J: carrier empties into the box
    THREE = "three"    # a+b >= max{J, K}: saturated exchange


def local_case(J, K, pair) -> Case:
    """Which closed-form branch of the local map applies to (a, b)."""
    a, b = check_cell(J, K, pair)
    s = a + b
    if s <= min(J, K):
        return Case.ONE
    if J <= s <= K:
        return Case.TWO_A
    if K <= s <= J:
        return Case.TWO_B
    return Case.THREE


def sigma_dual(J, K, pair) -> Tuple[int, int]:
    """Empty/ball complement (a, b) -> (J-a, K-b); finite capacities only.
    Commutes with the local map."""
    if not (is_finite(J) and is_finite(K)):
        raise ValueError("sigma duality needs finite J and K")
    a, b = check_cell(J, K, pair)
    return J - a, K - b


def reduced_map(J, K, r: int, pair) -> Tuple[int, int]:
    """The local map of the r-reduced system BBS(J-2r, K-2r) applied to the
    shifted pair (a-r, b-r).  Requires min{J, K} > 2r and a in [r, J-r],
    b in [r, K-r]; equals the unreduced update shifted down by r."""
    if r < 0 or not isinstance(r, int):
        raise ValueError(f"reduction floor must be a nonnegative integer, got {r}")
    if min(J, K) <= 2 * r:
        raise ValueError(f"min(J, K) = {min(J, K)} must exceed 2r = {2 * r}")
    a, b = check_cell(J, K, pair)
    if not (r <= a <= J - r and r <= b <= K - r):
        raise ValueError(f"pair {pair} outside the reduced band for r={r}")
    Jr = J - 2 * r if is_finite(J) else J
    Kr = K - 2 * r if is_finite(K) else K
    return local_map(Jr, Kr, (a - r, b - r))


# ---------------------------------------------------------------------------
# windows as zero-padded configurations
# ---------------------------------------------------------------------------


def same_occupancies(a: Config, b: Config) -> bool:
    """Equality as zero-padded infinite configurations."""
    lo = min(a.offset, b.offset)
    hi = max(a.end, b.end)
    return all(a.at(n) == b.at(n) for n in range(lo, hi + 1))


def trim_zeros(c: Config) -> Config:
    """Drop empty cells at both ends (keeping at least one cell)."""
    cells = c.cells.tolist()
    lo, hi = 0, len(cells)
    while lo < hi - 1 and cells[lo] == 0:
        lo += 1
    while hi > lo + 1 and cells[hi - 1] == 0:
        hi -= 1
    return Config(c.offset + lo, cells[lo:hi], c.J, c.boundary)


def verify_carrier(J, K, c: Config, w) -> bool:
    """Check W_n = F2(eta_n, W_{n-1}) at every site where both are covered."""
    start = w.offset if w.left_seed is not None else w.offset + 1
    for n in range(start, w.end + 1):
        if n < c.offset or n > c.end:
            continue
        prev = w.at(n - 1)
        if local_map(J, K, (c.at(n), prev))[1] != w.at(n):
            return False
    return True


# ---------------------------------------------------------------------------
# path encodings (doubled units) and the reflected-path transform for J < K
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PathEncoding:
    """The walk S of a configuration stored as D_n = 2 S_n, in doubled
    units so that the two-point average stays integral for odd J.

    ``base`` is D at offset-1; windows anchor at 0 and every downstream
    formula is invariant under re-anchoring by a constant.
    """

    offset: int
    D: Tuple[int, ...]
    base: int = 0

    def dtilde(self) -> Tuple[int, ...]:
        """Two-point average of D: D~_n = (D_{n-1} + D_n) / 2, always integral."""
        out = []
        prev = self.base
        for d in self.D:
            s = prev + d
            if s % 2:
                raise ValueError("odd two-point sum in doubled units")
            out.append(s // 2)
            prev = d
        return tuple(out)


def path_encode(c: Config) -> PathEncoding:
    """Encode a configuration as the doubled walk with increments 2(J - 2 eta)."""
    if not is_finite(c.J):
        raise ValueError("path encoding requires finite J")
    out = []
    d = 0
    for v in c.cells.tolist():
        d += 2 * (c.J - 2 * v)
        out.append(d)
    return PathEncoding(c.offset, tuple(out))


def path_decode(p: PathEncoding, J, boundary=ZeroPad()) -> Config:
    """Inverse of path_encode on the same window."""
    if not is_finite(J):
        raise ValueError("path decoding requires finite J")
    cells = []
    prev = p.base
    for d in p.D:
        inc = d - prev
        num = 2 * J - inc
        if num % 4 or not 0 <= num // 4 <= J:
            raise ValueError(f"increment {inc} invalid for J={J}")
        cells.append(num // 4)
        prev = d
    return Config(p.offset, cells, J, boundary)


def pitman_M(p: PathEncoding, gap, left_init: int) -> Tuple[int, ...]:
    """Clamped running maximum of the two-point average, in doubled units.

    ``gap`` is 2(K - J) (INF for unbounded carriers), ``left_init`` the
    doubled M value at offset-1.  The recursion
    M_n = min(max(M_{n-1}, D~_n), D~_n + gap) is total, so any integral
    left_init of the correct parity is accepted.
    """
    if gap != INF and (not isinstance(gap, int) or gap <= 0 or gap % 2):
        raise ValueError(f"gap must be a positive even integer or INF, got {gap!r}")
    m = left_init
    out = []
    for s in p.dtilde():
        m = min(max(m, s), s + gap)     # s + INF never binds
        out.append(m)
    return tuple(out)


def carrier_from_path(p: PathEncoding, m2, J) -> Tuple[int, ...]:
    """Extract loads W_n = (M2_n - D_n + J)/2; raises on parity mismatch."""
    out = []
    for m, d in zip(m2, p.D):
        num = m - d + J
        if num % 2:
            raise ValueError("carrier extraction non-integral; check left_init parity")
        if num < 0:
            raise ValueError("negative load extracted; left_init below the window")
        out.append(num // 2)
    return tuple(out)


# ---------------------------------------------------------------------------
# order-preserving tagged dynamics
# ---------------------------------------------------------------------------


def label_balls(c: Config) -> List[List[int]]:
    """Ball indices 1..N per window site, increasing left to right and
    bottom to top within a site."""
    sites, nxt = [], 1
    for v in c.cells.tolist():
        sites.append(list(range(nxt, nxt + v)))
        nxt += v
    return sites


def tagged_evolve(J, K, c: Config, t_max: int, tracked: Optional[int] = None,
                  ) -> Tuple[List[Tuple[int, int]], List[List[int]]]:
    """Evolve ``c`` with ball identities, one scalar local map per site: the
    carrier queue followed by the box contents is split so that the first
    (T eta)_n balls stay and the remaining W_n travel on.  Returns the
    (site, rank) trajectory of the tracked ball (default: the left-most ball
    at a site >= 1) and the final per-site ball indices, the first list at
    site c.offset.

    The balls start labelled as ``label_balls`` labels them; balls injected
    by boundary currents take fresh indices below every existing one (they
    come from the left).  Zero-padded windows grow on the right until the
    carrier drains; under the other seeded modes the balls carried past the
    right edge leave.
    """
    sites = label_balls(c)
    if tracked is None:
        tracked = next((ids[0] for n, ids in enumerate(sites, c.offset) if n >= 1 and ids),
                       None)
        if tracked is None:
            raise ValueError("no ball at any site >= 1")

    def locate(ball: int) -> Tuple[int, int]:
        for n, ids in enumerate(sites, c.offset):
            if ball in ids:
                return n, ids.index(ball) + 1
        raise ValueError(f"ball {ball} is not in the window")

    trajectory = [locate(tracked)]
    next_low = 0
    for t in range(t_max):
        seed = _resolve_seed(c.boundary, t)
        if seed is None:
            raise ValueError("tagged dynamics need a seeded boundary mode")
        queue = list(range(next_low - seed, next_low))
        next_low -= seed
        i = 0
        while i < len(sites) or (queue and isinstance(c.boundary, ZeroPad)):
            if i == len(sites):
                sites.append([])
            keep, _ = local_map(J, K, (len(sites[i]), len(queue)))
            pool = queue + sites[i]
            sites[i], queue = pool[:keep], pool[keep:]
            i += 1
        trajectory.append(locate(tracked))
    return trajectory, sites


def palm_step_mean(J, K, mu, nu) -> float:
    """E[x_1 - x_0] of a Palm ball, with no sampling.  Site 1 holds a balls
    with probability a mu(a) / E mu, the tagged ball is the r-th of them
    (r uniform in 1..a) and the load entering site 1 has the law nu.  The
    ball is followed site by site as a Markov chain on (its place p in the
    queue that leaves a site, that queue's length W): at the next site the
    pool is the W queued balls, then the a ~ mu box balls, and the first a'
    of ``local_map`` stay, so the ball stays there if p <= a' and is else
    p - a'-th in the next queue.  The mean is the sum over n >= 1 of the
    mass that leaves site n, summed until it falls below 1e-18."""
    boxes = [(a, w) for a, w in enumerate(mu.weights) if w]
    mean = sum(a * w for a, w in boxes)
    mass: Dict[Tuple[int, int], float] = defaultdict(float)
    for b, wb in enumerate(nu.weights):
        for a, wa in boxes:
            keep, out = local_map(J, K, (a, b))
            for p in range(max(b, keep) + 1, b + a + 1):    # the tagged ball is p-th in the pool
                mass[p - keep, out] += wb * wa / mean
    total = 0.0
    while (left := math.fsum(mass.values())) >= 1e-18:
        total += left
        moved: Dict[Tuple[int, int], float] = defaultdict(float)
        for (p, W), w in mass.items():
            for a, wa in boxes:
                keep, out = local_map(J, K, (a, W))
                if p > keep:
                    moved[p - keep, out] += w * wa
        mass = moved
    return total
