"""Probability measures on box occupancies and their behaviour under the
box-ball dynamics.

The central objects are the detailed balance equation mu x nu = (mu x nu)
pushed through the local map, the Markov chain of carrier loads under an
i.i.d. configuration, and the scaled truncated bipartite geometric family,
which together classify all invariant i.i.d. measures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from .capacities import INF, Capacity, is_finite, validate_capacity
from .errors import (
    InvalidParams,
    InvalidPmf,
    NotInMrev,
    StateSpaceTooLarge,
)
from .local_rules import check_cell, local_map_array

_SUM_TOL = 1e-12
_TAIL_EPS = 1e-13   # tail mass cut from stbGeo and dual pmfs on infinite support
_THETA_GRID = 32    # drift exponents tried for the K = inf tail bound
_MAX_STATES = 1 << 13   # K = inf load states: a 0.5 GB dense kernel
_MAX_TERMS = 10 ** 7    # joint-law entries of invariance_oracle
_CLASSIFY_TOL = 1e-9    # classify_invariant: |beta - 1| for beta = 1, and the residual


# ---------------------------------------------------------------------------
# pmf type
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Pmf:
    """Finite probability vector over occupancies 0..len-1.

    ``truncated`` marks a tail cut from an infinite-capacity measure.
    Either way the weights sum to 1 within 1e-12.
    """

    weights: Tuple[float, ...]
    truncated: bool = False

    def __post_init__(self):
        if not self.weights:
            raise InvalidPmf("empty weight vector")
        if not all(0 <= w < math.inf for w in self.weights):   # NaN fails too
            raise InvalidPmf("weights must be finite and non-negative")
        s = sum(self.weights)
        if abs(s - 1) > _SUM_TOL:
            raise InvalidPmf(f"weights sum to {s}, need 1 within 1e-12")

    def __len__(self) -> int:
        return len(self.weights)

    def at(self, a: int) -> float:
        return self.weights[a] if 0 <= a < len(self.weights) else 0.0

    def support(self) -> Tuple[int, ...]:
        return tuple(a for a, w in enumerate(self.weights) if w > 0)

    def array(self) -> np.ndarray:
        return np.asarray(self.weights, dtype=float)

    def max_occupancy(self) -> int:
        return len(self.weights) - 1


def bernoulli(p: float) -> Pmf:
    if not 0 <= p <= 1:
        raise InvalidParams(f"bernoulli parameter {p} outside [0, 1]")
    return Pmf((1 - p, p))


def uniform(J: int) -> Pmf:
    validate_capacity(J, "J")
    if not is_finite(J):
        raise InvalidParams("uniform measure needs finite J")
    return Pmf((1.0 / (J + 1),) * (J + 1))


def mean_occupancy(mu: Pmf) -> float:
    return float(sum(a * w for a, w in enumerate(mu.weights)))


def underline_r(mu: Pmf) -> int:
    """Smallest occupancy in the support."""
    return mu.support()[0]


def r_val(J: Capacity, mu: Pmf) -> int:
    """min over the support of min{a, J - a} (distance to either capacity edge)."""
    if is_finite(J) and mu.max_occupancy() > J:
        raise InvalidPmf(f"support exceeds capacity J={J}")
    return int(min(min(a, J - a) for a in mu.support()))


# ---------------------------------------------------------------------------
# scaled truncated bipartite geometric family
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StbGeoParams:
    """Weights C * alpha^x * beta^(x mod 2) at occupancies m*x, x = 0..N."""

    N: Capacity
    alpha: float
    beta: float
    m: int
    C: float

    def pmf_value(self, x: int) -> float:
        return self.C * self.alpha ** x * (self.beta if x % 2 else 1.0)


def stbgeo_params(N: Capacity, alpha: float, beta: float, m: int = 1) -> StbGeoParams:
    if alpha <= 0 or beta <= 0:
        raise InvalidParams("alpha and beta must be positive")
    if not isinstance(m, int) or m < 1:
        raise InvalidParams("m must be a positive integer")
    if N == INF:
        if alpha >= 1:
            raise InvalidParams("N = inf requires alpha < 1")
        total = (1 + alpha * beta) / (1 - alpha * alpha)
    else:
        if not isinstance(N, int) or N < 0:
            raise InvalidParams(f"N must be a nonnegative integer or inf, got {N!r}")
        total = sum(alpha ** x * (beta if x % 2 else 1.0) for x in range(N + 1))
    return StbGeoParams(N, float(alpha), float(beta), m, 1.0 / total)


def stbgeo(N: Capacity, alpha: float, beta: float, m: int = 1) -> Pmf:
    """The stbGeo pmf over occupancies (zeros interleave between multiples
    of m); for N = inf the tail beyond mass 1e-13 is dropped, as in
    ``dual_measure``, and the pmf is marked truncated."""
    par = stbgeo_params(N, alpha, beta, m)
    if N == INF:
        # smallest X with remaining tail mass below _TAIL_EPS
        vals = []
        tail = 1.0
        x = 0
        while tail > _TAIL_EPS:
            w = par.pmf_value(x)
            vals.append(w)
            tail -= w
            x += 1
        n_sup = len(vals)
        truncated = True
    else:
        vals = [par.pmf_value(x) for x in range(N + 1)]
        n_sup = N + 1
        truncated = False
    weights = [0.0] * ((n_sup - 1) * m + 1)
    for x in range(n_sup):
        weights[x * m] = vals[x]
    return Pmf(tuple(weights), truncated)


# ---------------------------------------------------------------------------
# detailed balance
# ---------------------------------------------------------------------------


def _map_table(J: Capacity, K: Capacity, a: np.ndarray,
               b: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The local map (a', b') on the grid a x b, indexed [i, j]; validated as
    ``local_map`` validates each pair (both grids are >= 0: the maxima decide)."""
    check_cell(J, K, (int(a.max()), int(b.max())))
    return local_map_array(J, K, a[:, None], b[None, :])


def detailed_balance_residual(J: Capacity, K: Capacity, mu: Pmf, nu: Pmf) -> float:
    """max over the (truncated) grid of |mu(a) nu(b) - mu(a') nu(b')| where
    (a', b') is the local-map image; zero iff the pair is a local fixed
    point of the dynamics in law."""
    m, n = mu.array(), nu.array()
    a2, b2 = _map_table(J, K, np.arange(len(m)), np.arange(len(n)))
    # a' + b' = a + b, so padding each pmf by the other's length covers the image
    image = np.pad(m, (0, len(n) - 1))[a2] * np.pad(n, (0, len(m) - 1))[b2]
    return float(np.abs(np.outer(m, n) - image).max())


# ---------------------------------------------------------------------------
# carrier load chain and the dual measure
# ---------------------------------------------------------------------------


def w_chain(J: Capacity, K: Capacity, mu: Pmf) -> np.ndarray:
    """Row-stochastic kernel P[a, b] = mu({x : F2(x, a) = b}) of carrier
    loads under an i.i.d. configuration.

    Infinite K is truncated at the cap of ``_certified_cap``, past which the
    untruncated chain's stationary law holds at most 1e-13; transitions past
    the cap are clipped into it.
    """
    cap = int(K) if is_finite(K) else _certified_cap(J, mu)
    xs = np.flatnonzero(mu.array())
    wx = mu.array()[xs]
    # loads a outer, occupancies x inner: each entry sums in x order
    b2 = _map_table(J, K, xs, np.arange(cap + 1))[1].T
    kernel = np.zeros((cap + 1, cap + 1))
    np.add.at(kernel, (np.arange(cap + 1)[:, None], np.minimum(b2, cap)), wx)
    return kernel


def _certified_cap(J: int, mu: Pmf) -> int:
    """The smallest K = inf load cap n with pi[n, inf) <= _TAIL_EPS for the
    untruncated stationary law pi, rounded up onto the loads the chain reaches.

    As b' <= (b - J)^+ + 2a after a site (equal for b >= J), V(b) = e^(theta b) meets the
    drift condition E V(b') <= phi V(b) + phi e^(theta J) 1{b < J}, phi = E e^(theta (2a - J))
    (Meyn and Tweedie, Markov Chains and Stochastic Stability), so pi[n, inf) <= phi
    e^(theta (J - n)) / (1 - phi) for theta in (0, theta*), phi(theta*) = 1, which exists
    when 2 mean < J; minimised over a grid of theta.  When 2 max supp mu <= J the chain never
    leaves [0, max supp mu]: the cap is one past it, outside the closed class."""
    if not mrev_member(J, INF, mu):
        raise NotInMrev(f"2 mean = {2 * mean_occupancy(mu)} >= J = {J}: no drift")
    supp = mu.support()
    if 2 * supp[-1] <= J:
        return supp[-1] + 1
    terms = [(math.log(mu.weights[a] / math.fsum(mu.weights)), 2 * a - J) for a in supp]

    def phi(theta: float) -> float:
        return math.fsum(math.exp(lw + theta * step) for lw, step in terms)

    # phi(0) = 1, phi'(0) < 0, phi is convex, its top term alone is 1 at `above`
    below, above = 0.0, -terms[-1][0] / terms[-1][1]
    for _ in range(60):
        mid = (below + above) / 2
        below, above = (mid, above) if phi(mid) < 1 else (below, mid)
    need = min((J + (math.log(p / (1 - p)) - math.log(_TAIL_EPS)) / theta
                for theta in (below * k / _THETA_GRID for k in range(1, _THETA_GRID))
                for p in (phi(theta),) if p < 1), default=math.inf)
    # past J the chain reaches exactly the loads b1 + gZ, b1 the load after supp[-1]
    # from supp[0] and g = gcd(2a - J): a cap off them would add a state outside the class
    b1 = max(supp[0] + supp[-1] - J, 0) + supp[-1]
    cap = max(math.ceil(min(need, _MAX_STATES)), J)
    cap += (b1 - cap) % math.gcd(*(step for _, step in terms))
    if cap >= _MAX_STATES:
        raise StateSpaceTooLarge(f"K = inf dual needs load cap {need:.0f} > {_MAX_STATES - 1}")
    return cap


def _closed_class(kernel: np.ndarray, start: int) -> np.ndarray:
    """Mask of the closed communicating class that the chain started at
    start ends in; start itself may be transient."""
    n = len(kernel)
    succ: List[List[int]] = [[] for _ in range(n)]
    pred: List[List[int]] = [[] for _ in range(n)]
    for a, b in zip(*(ix.tolist() for ix in np.nonzero(kernel > 0))):
        succ[a].append(b)
        pred[b].append(a)
    while True:
        fwd = _reachable(succ, start)
        # reached from start but unable to lead back to it
        escaped = fwd - _reachable(pred, start)
        if not escaped:
            mask = np.zeros(n, dtype=bool)
            mask[list(fwd)] = True
            return mask
        # a state that cannot lead back reaches strictly fewer states
        start = min(escaped)


def _reachable(adj: List[List[int]], start: int) -> Set[int]:
    """States reachable from start along the adjacency lists adj, by
    depth-first search on plain lists: the K = inf load chains are long
    paths, one array step per state would cost more than the search."""
    seen = {start}
    stack = [start]
    while stack:
        for b in adj[stack.pop()]:
            if b not in seen:
                seen.add(b)
                stack.append(b)
    return seen


def _stationary_on_class(kernel: np.ndarray, start: int) -> np.ndarray:
    """Stationary vector of the closed communicating class reached from
    start; zero elsewhere.

    Solved by Grassmann-Taksar-Heyman state reduction (Oper. Res. 33,
    1985): states are censored out from the last one down, dividing by the
    censored chain's exit rate P[k, :k].sum() in place of 1 - P[k, k].
    Only non-negative numbers are added, multiplied and divided, so every
    entry, however small, keeps its relative accuracy, and the vector is
    non-negative by construction; nothing is clipped.
    """
    idx = np.flatnonzero(_closed_class(kernel, start))
    P = kernel[np.ix_(idx, idx)]
    m = len(idx)
    for k in range(m - 1, 0, -1):
        P[:k, k] /= P[k, :k].sum()
        P[:k, :k] += np.outer(P[:k, k], P[k, :k])
    pi = np.zeros(m)
    pi[0] = 1.0
    for k in range(1, m):
        pi[k] = math.fsum(pi[:k] * P[:k, k])
    out = np.zeros(kernel.shape[0])
    out[idx] = pi / pi.sum()
    return out


def mrev_member(J: Capacity, K: Capacity, mu: Pmf) -> bool:
    """Whether i.i.d.-mu configurations admit two-sided canonical dynamics."""
    if J == K:
        return True
    if J > K:
        return 2 * r_val(J, mu) < K
    if K == INF:
        return 2 * mean_occupancy(mu) < J
    return 2 * r_val(J, mu) < J


def dual_measure(J: Capacity, K: Capacity, mu: Pmf) -> Pmf:
    """Law of the carrier load under an i.i.d.-mu configuration: the
    stationary distribution of the load chain on the recurrent class it
    reaches from r(mu), solved by subtraction-free GTH state reduction
    (see ``_stationary_on_class``).

    For K = inf the chain is solved once, at the cap of ``_certified_cap``,
    past which a drift bound certifies that the untruncated law holds at
    most 1e-13; the pmf is cut where its remaining tail drops below 1e-13,
    as in ``stbgeo``, and marked truncated.  A closed class without the cap
    state (GTH leaves it at 0) loses nothing to the clipping: its pmf is
    exact, cut at its trailing zeros and marked truncated only if mu is.
    """
    if not mrev_member(J, K, mu):
        raise NotInMrev(f"measure with r={r_val(J, mu)} not reversible for "
                        f"BBS({J},{K})")
    if J == K:
        return Pmf(mu.weights, mu.truncated)
    pi = _stationary_on_class(w_chain(J, K, mu), start=r_val(J, mu))
    if is_finite(K):
        return Pmf(tuple(pi.tolist()), mu.truncated)
    cut = bool(pi[-1])      # else the class misses the cap state: exact
    tail = np.cumsum(pi[::-1])[::-1]
    pi = pi[:np.count_nonzero(tail >= _TAIL_EPS if cut else tail > 0)]
    return Pmf(tuple(pi.tolist()), mu.truncated or cut)


# ---------------------------------------------------------------------------
# classification of invariant i.i.d. measures
# ---------------------------------------------------------------------------


VERDICT_INVARIANT = "Invariant"
VERDICT_NOT_INVARIANT = "NotInvariant"
VERDICT_NOT_IN_MREV = "NotInMrev"


@dataclass(frozen=True)
class JEqualsKFamily:
    """Every measure is invariant when box and carrier capacities agree."""


@dataclass(frozen=True)
class TrivialShiftFamily:
    """Support inside {0..floor(min/2)} after reduction: the dynamics act as
    a deterministic shift and the dual equals the measure itself."""

    r_shift: int
    reflected: bool


@dataclass(frozen=True)
class StbGeoFamily:
    """Reduced measure is bipartite geometric with the given parameters."""

    params: StbGeoParams
    r_shift: int
    reflected: bool


Family = Union[JEqualsKFamily, TrivialShiftFamily, StbGeoFamily, None]


@dataclass(frozen=True)
class ClassifyResult:
    verdict: str
    family: Family
    residual: float
    dual: Optional[Pmf]
    detail: str = ""

    @property
    def invariant(self) -> bool:
        return self.verdict == VERDICT_INVARIANT


def _reduce_measure(J: Capacity, mu: Pmf) -> Tuple[Tuple[float, ...], int, bool]:
    """Shift the support down by r (reflecting first when the support hugs
    the full side); returns (reduced weights, r, reflected)."""
    r = r_val(J, mu)
    reflected = underline_r(mu) != r
    if reflected:
        src = [mu.at(J - a - r) for a in range(int(J) - 2 * r + 1)]
    else:
        src = [mu.at(a + r) for a in range(len(mu) - r)]
    while len(src) > 1 and src[-1] == 0.0:
        src.pop()
    return tuple(src), r, reflected


def _unreduce(weights: Sequence[float], cap: Capacity, r: int,
              reflected: bool, truncated: bool) -> Pmf:
    """Inverse of the reduction on the dual side: shift up by r, reflecting
    within [0, cap] when the original was reflected."""
    shifted = [0.0] * r + list(weights)
    if reflected:
        out = [0.0] * (int(cap) + 1)
        for a, w in enumerate(shifted):
            out[int(cap) - a] = w
        return Pmf(tuple(out), truncated)
    return Pmf(tuple(shifted), truncated)


def _fit_stbgeo(weights: Tuple[float, ...], Jr: Capacity,
                Kr: Capacity) -> Optional[StbGeoParams]:
    """The bipartite geometric parameters read off the reduced weights at
    0, m and 2m, or None when the support or the capacities rule the family
    out.  The weights hold mass at 0 and past it (a point mass at 0 is a
    trivial shift).  Whether every weight fits is left to the detailed
    balance check of ``classify_invariant`` against the dual built from
    them."""
    supp = [a for a, w in enumerate(weights) if w > 0]
    mx = supp[-1]
    m = math.gcd(*supp)
    if is_finite(Jr) and mx != Jr:
        return None
    # support must be every multiple of m up to the maximum
    if supp != list(range(0, mx + 1, m)):
        return None
    w0 = weights[0]
    if len(supp) == 2:
        alpha, beta = weights[m] / w0, 1.0
    else:
        alpha = math.sqrt(weights[2 * m] / w0)
        beta = weights[m] / (alpha * w0)
    beta_one = abs(beta - 1.0) <= _CLASSIFY_TOL
    infinite = not (is_finite(Jr) and is_finite(Kr))
    if infinite and not alpha < 1.0:
        return None
    if beta_one and is_finite(Kr) and Kr % m:
        return None
    N = INF if not is_finite(Jr) else Jr // m
    return stbgeo_params(N, alpha, 1.0 if beta_one else beta, m)


def classify_invariant(J: Capacity, K: Capacity, mu: Pmf) -> ClassifyResult:
    """Decide whether i.i.d.-mu configurations are invariant under the
    dynamics, and name the family: measures reduce by their distance r to
    the capacity edges (reflecting when the support hugs the full side),
    and the reduced measure must either sit inside the trivially-shifted
    band or be bipartite geometric with compatible parameters.  The detailed
    balance residual against the dual reconstructed from the family decides
    the verdict: invariant when it is at most 1e-9, the tolerance that also
    reads a fitted beta within 1e-9 of 1 as beta = 1."""
    validate_capacity(J, "J")
    validate_capacity(K, "K")
    if is_finite(J) and mu.max_occupancy() > J:
        raise InvalidPmf(f"support exceeds capacity J={J}")
    if J == K:
        return ClassifyResult(VERDICT_INVARIANT, JEqualsKFamily(), 0.0,
                              Pmf(mu.weights, mu.truncated),
                              "J = K: dynamics are a deterministic shift")
    if not mrev_member(J, K, mu):
        return ClassifyResult(VERDICT_NOT_IN_MREV, None, math.inf, None,
                              "no two-sided canonical dynamics")
    reduced, r, reflected = _reduce_measure(J, mu)
    if reflected and not (is_finite(J) and is_finite(K)):
        return ClassifyResult(VERDICT_NOT_INVARIANT, None, math.inf, None,
                              "reflected support needs both capacities finite")
    Jr = J - 2 * r if is_finite(J) else INF
    Kr = K - 2 * r if is_finite(K) else INF
    mx = max(a for a, w in enumerate(reduced) if w > 0)

    family: Family = None
    nu_reduced: Optional[Tuple[float, ...]] = None
    truncated = mu.truncated
    if mx <= min(Jr, Kr) // 2:
        family = TrivialShiftFamily(r, reflected)
        nu_reduced = reduced
    else:
        params = _fit_stbgeo(reduced, Jr, Kr)
        if params is not None:
            family = StbGeoFamily(params, r, reflected)
            dual_N = INF if not is_finite(Kr) else Kr // params.m
            nu_pmf = stbgeo(dual_N, params.alpha, params.beta, params.m)
            nu_reduced = nu_pmf.weights
            truncated = truncated or nu_pmf.truncated
    if family is None:
        return ClassifyResult(VERDICT_NOT_INVARIANT, None, math.inf, None,
                              "reduced measure fits no invariant family")
    nu = _unreduce(nu_reduced, K, r, reflected, truncated)
    residual = detailed_balance_residual(J, K, mu, nu)
    if residual > _CLASSIFY_TOL:
        return ClassifyResult(VERDICT_NOT_INVARIANT, None, residual, None,
                              "reconstructed dual fails detailed balance")
    return ClassifyResult(VERDICT_INVARIANT, family, residual, nu)


# ---------------------------------------------------------------------------
# exact invariance oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OracleReport:
    deviation: float
    k: int
    joint: np.ndarray
    expected: np.ndarray


def invariance_oracle(J: Capacity, K: Capacity, mu: Pmf, k: int,
                      dual: Optional[Pmf] = None) -> OracleReport:
    """Exact joint law of the first k updated sites when the entering load
    is drawn from the dual measure and the sites are i.i.d. mu, compared to
    the product law.  Invariance holds iff the deviation vanishes."""
    if not isinstance(k, int) or not 1 <= k <= 4:
        raise InvalidParams("oracle supports 1 <= k <= 4 sites")
    if is_finite(validate_capacity(J, "J")) and not any(mu.weights[J + 1:]):  # trim zeros
        mu = Pmf(mu.weights[:J + 1], mu.truncated)
    nu = dual if dual is not None else dual_measure(J, K, mu)
    A = len(mu)
    w_max = len(nu) + k * max(A - 1, 0)          # loads grow at most A-1 per site
    if is_finite(K):
        w_max = min(w_max, int(K) + 1)
    # updated occupancies can exceed the input support, up to the capacity
    out_A = int(J) + 1 if is_finite(J) else A + w_max
    if (out_A ** k) * w_max > _MAX_TERMS:
        raise StateSpaceTooLarge(f"{(out_A ** k) * w_max} terms exceed {_MAX_TERMS}")
    P = np.zeros((1, w_max))
    P[0, : len(nu)] = nu.weights
    xs = np.flatnonzero(mu.array())
    wx = mu.array()[xs]
    for _ in range(k):
        ws = np.flatnonzero(P.any(axis=0))
        a2, w2 = _map_table(J, K, xs, ws)
        # the map is a bijection, so no two (x, w) share a target
        P2 = np.zeros((len(P), out_A, w_max))
        P2[:, a2, w2] = P[:, None, ws] * wx[:, None]
        P = P2.reshape(-1, w_max)
    joint = P.sum(axis=1).reshape((out_A,) * k)
    marg = np.zeros(out_A)
    marg[:A] = mu.weights
    expected = marg
    for _ in range(k - 1):
        expected = np.multiply.outer(expected, marg)
    deviation = float(np.abs(joint - expected).max())
    return OracleReport(deviation, k, joint, expected)


# ---------------------------------------------------------------------------
# sampling and parsing
# ---------------------------------------------------------------------------


def sample_pmf(mu: Pmf, rng: np.random.Generator, size: int) -> np.ndarray:
    """Exact inverse-CDF sampling over the finite support."""
    cum = np.cumsum(mu.array())
    idx = np.searchsorted(cum, rng.random(size), side="right")
    return np.minimum(idx, len(mu) - 1).astype(np.int64)


def pmf_from_text(text: str) -> Pmf:
    """Parse ``w0,w1,...``, ``bernoulli:p``, ``uniform:J`` or
    ``stbgeo:N,alpha,beta,m``."""
    name, colon, body = (s.strip() for s in text.partition(":"))
    try:
        if not colon:
            return Pmf(tuple(float(tok) for tok in name.split(",")))
        name = name.lower()
        if name == "bernoulli":
            return bernoulli(float(body))
        if name == "uniform":
            return uniform(int(body))
        if name == "stbgeo":
            parts = [p.strip() for p in body.split(",")]
            if len(parts) != 4:
                raise InvalidParams("stbgeo spec needs N,alpha,beta,m")
            N = INF if parts[0].lower() in ("inf", "infinity") else int(parts[0])
            return stbgeo(N, float(parts[1]), float(parts[2]), int(parts[3]))
    except ValueError:
        raise InvalidParams(f"cannot parse pmf from {text!r}") from None
    raise InvalidParams(f"unknown pmf family {name!r}")
