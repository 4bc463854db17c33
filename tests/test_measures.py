import math

import numpy as np
import pytest

from boxball import (
    INF,
    Pmf,
    bernoulli,
    classify_invariant,
    detailed_balance_residual,
    dual_measure,
    invariance_oracle,
    mean_occupancy,
    mrev_member,
    pmf_from_text,
    r_val,
    stbgeo,
    underline_r,
    uniform,
    w_chain,
)
from boxball import measures
from boxball.errors import (
    InvalidCell,
    InvalidParams,
    InvalidPmf,
    NotInMrev,
    StateSpaceTooLarge,
)
from boxball.measures import (
    JEqualsKFamily,
    StbGeoFamily,
    TrivialShiftFamily,
    VERDICT_INVARIANT,
    VERDICT_NOT_IN_MREV,
    VERDICT_NOT_INVARIANT,
    _certified_cap,
    _closed_class,
    sample_pmf,
)
from boxball.local_rules import local_map

GEO_13 = Pmf((4 / 7, 2 / 7, 1 / 7))


# ---------------------------------------------------------------------------
# pmf basics
# ---------------------------------------------------------------------------


def test_pmf_validation():
    with pytest.raises(InvalidPmf):
        Pmf((0.5, 0.6))
    with pytest.raises(InvalidPmf):
        Pmf((0.7, -0.1, 0.4))
    Pmf((0.5, 0.49999999999999), truncated=True)
    # one bound, |sum - 1| <= 1e-12, on both sides and either flag
    for truncated in (False, True):
        for w in (0.5 + 2e-12, 0.5 - 2e-12):
            with pytest.raises(InvalidPmf, match=r"weights sum to .*, need 1 within 1e-12"):
                Pmf((0.5, w), truncated=truncated)


def test_r_underline_mean():
    mu = Pmf((0.0, 0.5, 0.5))
    assert r_val(3, mu) == 1 and underline_r(mu) == 1
    point0 = Pmf((1.0,))
    assert r_val(5, point0) == 0 and mean_occupancy(point0) == 0.0
    b = bernoulli(0.25)
    assert r_val(1, b) == 0 and mean_occupancy(b) == 0.25
    assert r_val(INF, Pmf((0.0, 0.0, 1.0))) == 2


def test_pmf_text_forms():
    assert pmf_from_text("0.5,0.3,0.2").weights == (0.5, 0.3, 0.2)
    assert pmf_from_text("bernoulli:0.25") == bernoulli(0.25)
    assert pmf_from_text("uniform:2") == uniform(2)
    assert pmf_from_text("stbgeo:2,0.5,1,1") == stbgeo(2, 0.5, 1, 1)
    with pytest.raises(InvalidParams):
        pmf_from_text("cauchy:1")


# ---------------------------------------------------------------------------
# stbGeo family
# ---------------------------------------------------------------------------


def test_stbgeo_finite():
    mu = stbgeo(2, 0.5, 1.0, 1)
    assert mu.weights == pytest.approx((4 / 7, 2 / 7, 1 / 7), abs=1e-15)
    assert not mu.truncated


def test_stbgeo_infinite_is_geometric():
    mu = stbgeo(INF, 0.4, 1.0, 1)
    assert mu.truncated
    for k, w in enumerate(mu.weights):
        assert w == pytest.approx(0.6 * 0.4 ** k, rel=1e-12)
    assert sum(mu.weights) >= 1 - 1e-12


def test_stbgeo_scaled_two_point():
    alpha, beta = 0.7, 2.5
    mu = stbgeo(1, alpha, beta, 2)
    c = 1 / (1 + alpha * beta)
    assert mu.weights == pytest.approx((c, 0.0, alpha * beta * c), abs=1e-15)


def test_stbgeo_invalid():
    with pytest.raises(InvalidParams):
        stbgeo(INF, 1.0, 1.0, 1)
    with pytest.raises(InvalidParams):
        stbgeo(2, -0.5, 1.0, 1)
    with pytest.raises(InvalidParams):
        stbgeo(2, 0.5, 1.0, 0)


# ---------------------------------------------------------------------------
# detailed balance
# ---------------------------------------------------------------------------


def test_detailed_balance_examples():
    assert detailed_balance_residual(1, 2, bernoulli(1 / 3), GEO_13) < 1e-15
    mu = Pmf((0.3, 0.5, 0.2))
    assert detailed_balance_residual(2, 2, mu, mu) == 0.0
    bad = detailed_balance_residual(1, 2, bernoulli(1 / 3), uniform(2))
    assert bad > 0.05


def test_stbgeo_pairs_balance_all_conditions():
    cases = [
        (2, 4, 0.5, 1.0, 1),    # (i) alpha < 1, beta = 1
        (2, 4, 0.5, 2.0, 1),    # (ii) even capacities, beta != 1
        (3, 5, 1.4, 1.0, 1),    # (iii) alpha >= 1, finite
        (2, 6, 1.2, 0.5, 1),    # (iv) alpha >= 1, beta != 1, even
        (2, 4, 0.6, 1.0, 2),    # scaled by m = 2
        (1, INF, 0.3, 1.0, 1),  # infinite carrier
    ]
    for J, K, a, b, m in cases:
        NJ = INF if J == INF else J // m
        NK = INF if K == INF else K // m
        mu, nu = stbgeo(NJ, a, b, m), stbgeo(NK, a, b, m)
        assert detailed_balance_residual(J, K, mu, nu) < 1e-12, (J, K, a, b, m)


# ---------------------------------------------------------------------------
# carrier load chain and the dual measure
# ---------------------------------------------------------------------------


def test_w_chain_examples():
    k = w_chain(1, 2, bernoulli(0.3))
    assert k[1, 0] == pytest.approx(0.7) and k[1, 2] == pytest.approx(0.3)
    assert k[0, 0] == pytest.approx(0.7) and k[0, 1] == pytest.approx(0.3)
    # J = K: every row equals the measure itself
    mu = Pmf((0.2, 0.5, 0.3))
    k = w_chain(2, 2, mu)
    assert np.allclose(k, np.tile(mu.array(), (3, 1)))
    # J = 1, K = inf: birth-death reflecting at 0
    k = w_chain(1, INF, bernoulli(0.25))
    assert k[0, 0] == pytest.approx(0.75) and k[0, 1] == pytest.approx(0.25)
    assert k[3, 2] == pytest.approx(0.75) and k[3, 4] == pytest.approx(0.25)


def test_dual_measure_examples():
    nu = dual_measure(1, 2, bernoulli(1 / 3))
    assert nu.weights == pytest.approx(GEO_13.weights, abs=1e-13)

    nu = dual_measure(1, INF, bernoulli(0.25))
    for k, w in enumerate(nu.weights):
        assert w == pytest.approx((2 / 3) * (1 / 3) ** k, abs=1e-12)
    assert mean_occupancy(nu) == pytest.approx(0.5, abs=1e-10)

    mu = Pmf((0.4, 0.1, 0.5))
    assert dual_measure(3, 3, mu).weights == mu.weights

    # r(mu) = 0 is transient: full boxes fill the carrier, which stays at K
    assert dual_measure(1, 5, Pmf((0.0, 1.0))).weights == (0.0,) * 5 + (1.0,)


def ref_reach(adj):
    """Warshall transitive closure: [a, b] is True when b is reachable
    from a in zero or more steps along adj."""
    reach = adj | np.eye(adj.shape[0], dtype=bool)
    for k in range(adj.shape[0]):
        reach |= reach[:, k:k + 1] & reach[k:k + 1, :]
    return reach


def ref_closed_class(reach, start):
    """The closed class that the selection rule picks, read from the
    closure ``reach``."""
    while True:
        escaped = reach[start] & ~reach[:, start]
        if not escaped.any():
            return reach[start]
        start = int(np.argmax(escaped))


def test_closed_class_matches_transitive_closure():
    rng = np.random.default_rng(11)
    several = transient = 0
    for _ in range(120):
        n = int(rng.integers(1, 61))
        kernel = rng.random((n, n)) * (rng.random((n, n)) < rng.uniform(0.01, 0.3))
        for s in np.flatnonzero(rng.random(n) < 0.1):   # a self-loop only
            kernel[s] = 0.0
            kernel[s, s] = 1.0
        reach = ref_reach(kernel > 0)
        classes = set()
        for start in range(n):
            got = _closed_class(kernel, start)
            assert np.array_equal(got, ref_closed_class(reach, start)), (kernel, start)
            assert not kernel[np.ix_(got, ~got)].any()   # closed
            # strongly connected: paths from a closed class stay inside it
            assert reach[np.ix_(got, got)].all()
            assert reach[start, got].all()               # reached from start
            classes.add(got.tobytes())
            transient += not got[start]
        several += len(classes) > 1
    assert several > 50 and transient > 300


def test_dual_measure_tail_relative_accuracy():
    # The dual of stbGeo(1, 0.9, 1, 1) on (1, inf) is geometric with ratio
    # 0.9.  Every entry above 1e-12 must match to relative accuracy: a
    # solve whose entries carry an absolute noise floor (~1e-15) passes an
    # absolute-tolerance check yet gets the tail wrong, and the cut at a
    # remaining tail of 1e-13 then falls in that noise.
    nu = dual_measure(1, INF, stbgeo(1, 0.9, 1, 1))
    k = 0
    while 0.1 * 0.9 ** k > 1e-12:
        assert nu.at(k) == pytest.approx(0.1 * 0.9 ** k, rel=1e-9), k
        k += 1


def test_k_inf_dual_is_solved_once(monkeypatch):
    calls = []
    solve = measures._stationary_on_class
    monkeypatch.setattr(measures, "_stationary_on_class",
                        lambda *args, **kw: calls.append(args) or solve(*args, **kw))
    dual_measure(1, INF, stbgeo(1, 0.9, 1, 1))
    assert len(calls) == 1


def test_certified_cap_bounds_the_closed_form_tail():
    # (1, inf): nu(k) = (1 - alpha) alpha^k, so nu[cap, inf) = alpha^cap;
    # (2, inf) with m = 2: nu(2x) = (1 - alpha) alpha^x on even loads
    for alpha in (0.5, 0.9, 0.95):
        assert alpha ** _certified_cap(1, stbgeo(1, alpha, 1, 1)) <= 1e-13
        cap = _certified_cap(2, stbgeo(1, alpha, 1, 2))
        assert cap % 2 == 0 and alpha ** (cap // 2) <= 1e-13


def test_certified_cap_lies_on_the_reached_loads():
    # loads past J keep their residue mod gcd(2a - J); the cap must be one
    # of them, or clipping into it joins states outside the closed class
    for J, mu, off_lattice in [
        (2, stbgeo(1, 0.9, 1, 2), slice(1, None, 2)),       # support {0, 2}: even
        (4, Pmf((0.6, 0.0, 0.0, 0.4)), slice(2, None, 2)),  # {0, 3}: 0 and odd
        (4, Pmf((0.0, 0.75, 0.0, 0.0, 0.25)), slice(0, None, 2)),  # {1, 4}: odd
        (2, Pmf((0.5, 0.3, 0.2)), slice(0, 0)),             # {0, 1, 2}: every load
        (5, Pmf((0.3, 0.3, 0.2, 0.2)), slice(0, 0)),
    ]:
        kernel = w_chain(J, INF, mu)
        cls = _closed_class(kernel, r_val(J, mu))
        assert cls[-1] and not cls[off_lattice].any(), (J, mu)


def test_dual_measure_state_space_guard():
    # 2 mean = 0.9998 < J = 1: the drift bound needs about 128k load states
    for f in (dual_measure, w_chain):
        with pytest.raises(StateSpaceTooLarge, match=r"load cap 12\d{4} > 8191"):
            f(1, INF, bernoulli(0.4999))


def test_dual_measure_exact_k_inf_class_is_not_truncated():
    # the load chain's closed class stays below the cap, so no clipped
    # transition leaves it and the solve is exact: nu = mu, untruncated
    for J in (2, 3, 10 ** 6):
        nu = dual_measure(J, INF, bernoulli(0.25))
        assert nu.weights == (0.75, 0.25) and not nu.truncated
        assert all(type(w) is float for w in nu.weights)
    # a class that reaches the cap keeps its cut tail and the flag
    nu = dual_measure(1, INF, bernoulli(0.25))
    assert nu.truncated and all(type(w) is float for w in nu.weights)
    assert all(type(w) is float for w in dual_measure(1, 2, bernoulli(1 / 3)).weights)


def test_dual_measure_requires_mrev():
    with pytest.raises(NotInMrev):
        dual_measure(2, 1, Pmf((0.0, 1.0, 0.0)))
    with pytest.raises(NotInMrev):
        dual_measure(1, INF, bernoulli(0.6))
    with pytest.raises(NotInMrev):
        w_chain(1, INF, bernoulli(0.5))


def test_mrev_member_table():
    assert not mrev_member(2, 1, Pmf((0.0, 1.0, 0.0)))  # 2r = 2 >= K = 1
    assert not mrev_member(1, INF, bernoulli(0.6))      # 2 mean > J
    assert mrev_member(1, INF, bernoulli(0.25))
    assert mrev_member(4, 4, Pmf((0.0, 0.0, 1.0, 0.0, 0.0)))
    assert not mrev_member(2, 4, Pmf((0.0, 1.0, 0.0)))  # point mass at J/2
    assert mrev_member(2, 4, Pmf((0.1, 0.8, 0.1)))


def test_dual_of_dual_round_trip():
    for J, K, mu in [
        (1, 2, bernoulli(1 / 3)),
        (2, 4, stbgeo(2, 0.5, 1, 1)),
        (3, 5, stbgeo(3, 0.5, 1, 1)),
        (1, INF, bernoulli(0.25)),
    ]:
        nu = dual_measure(J, K, mu)
        back = dual_measure(K, J, nu)
        n = min(len(back), len(mu))
        assert np.allclose(back.weights[:n], mu.weights[:n], atol=1e-10)
        assert max(list(back.weights[n:]) + [0.0]) < 1e-10
        assert r_val(J, mu) == r_val(K, nu)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def test_classify_j_equals_k():
    res = classify_invariant(3, 3, Pmf((0.5, 0.1, 0.2, 0.2)))
    assert res.invariant and isinstance(res.family, JEqualsKFamily)


def test_classify_stbgeo_fit():
    res = classify_invariant(2, 4, GEO_13)
    assert res.invariant
    fam = res.family
    assert isinstance(fam, StbGeoFamily)
    assert fam.params.m == 1 and fam.r_shift == 0 and not fam.reflected
    assert fam.params.alpha == pytest.approx(0.5, abs=1e-12)
    assert fam.params.beta == pytest.approx(1.0, abs=1e-12)
    assert res.residual < 1e-12


def test_classify_uniform_alpha_one():
    res = classify_invariant(2, 4, uniform(2))
    assert res.invariant
    assert res.family.params.alpha == pytest.approx(1.0)


def test_classify_even_capacities_have_two_parameter_family():
    # both capacities even: every full-support three-point measure is
    # bipartite geometric, including the (0.5, 0.1, 0.4) example
    res = classify_invariant(2, 4, Pmf((0.5, 0.1, 0.4)))
    assert res.invariant
    assert isinstance(res.family, StbGeoFamily)
    assert res.family.params.beta != pytest.approx(1.0)
    assert invariance_oracle(2, 4, Pmf((0.5, 0.1, 0.4)), 1).deviation < 1e-12


def test_classify_odd_carrier_rejects_beta():
    # K = 3 odd: beta != 1 impossible, so the same weights are not invariant
    res = classify_invariant(2, 3, Pmf((0.5, 0.1, 0.4)))
    assert res.verdict == VERDICT_NOT_INVARIANT
    assert invariance_oracle(2, 3, Pmf((0.5, 0.1, 0.4)), 1).deviation > 1e-3


def test_classify_trivial_shift():
    res = classify_invariant(4, 6, Pmf((0.3, 0.4, 0.3)))  # support in {0..2}
    assert res.invariant and isinstance(res.family, TrivialShiftFamily)
    assert res.dual.weights[:3] == pytest.approx((0.3, 0.4, 0.3))


def test_classify_er_shift():
    base = stbgeo(2, 0.5, 1, 1)                # invariant for (2, 4)
    lifted = Pmf((0.0,) + base.weights + (0.0,))
    res = classify_invariant(4, 6, lifted)     # E_1 into capacities (4, 6)
    assert res.invariant
    assert res.family.r_shift == 1 and not res.family.reflected


def test_classify_sigma_reflection():
    # reflecting a full-support stbGeo lands back in the family (alpha -> 1/alpha)
    base = stbgeo(2, 0.5, 1, 1)
    res = classify_invariant(2, 4, Pmf(tuple(reversed(base.weights))))
    assert res.invariant and not res.family.reflected
    assert res.family.params.alpha == pytest.approx(2.0)
    # the reflected branch proper: support hugging the full side
    res = classify_invariant(2, 4, Pmf((0.0, 0.6, 0.4)))
    assert res.invariant
    assert isinstance(res.family, TrivialShiftFamily) and res.family.reflected
    res = classify_invariant(4, 6, Pmf((0.0, 0.0, 0.0, 0.7, 0.3)))
    assert res.invariant
    assert res.family.reflected and res.family.r_shift == 0
    # reflected supports need both capacities finite
    res = classify_invariant(3, INF, Pmf((0.0, 0.0, 0.75, 0.25)))
    assert res.verdict in (VERDICT_NOT_INVARIANT, VERDICT_NOT_IN_MREV)
    # in M_rev (2 mean = 3.8 < 10), and r = 0 comes from the full side
    mu = Pmf((0.0, 0.9) + (0.0,) * 8 + (0.1,))
    res = classify_invariant(10, INF, mu)
    assert (res.verdict, res.detail, res.residual, res.dual) == (
        VERDICT_NOT_INVARIANT, "reflected support needs both capacities finite", math.inf, None)


def test_classify_not_in_mrev():
    res = classify_invariant(2, 4, Pmf((0.0, 1.0, 0.0)))
    assert res.verdict == VERDICT_NOT_IN_MREV


def test_classify_geometric_on_infinite_carrier():
    res = classify_invariant(1, INF, bernoulli(0.25))
    assert res.invariant
    assert res.family.params.alpha == pytest.approx(1 / 3)
    assert res.dual.weights[0] == pytest.approx(2 / 3, abs=1e-12)


def test_classify_rejects_perturbations():
    rng = np.random.default_rng(2)
    positives = [
        (2, 3, stbgeo(2, 0.5, 1, 1)),
        (3, 5, stbgeo(3, 0.6, 1, 1)),
        (3, 4, stbgeo(3, 1.3, 1, 1)),
    ]
    for J, K, mu in positives:
        assert classify_invariant(J, K, mu).invariant
        for _ in range(15):
            noise = rng.random(len(mu)) - 0.5
            noise -= noise.mean()
            w = np.clip(mu.array() + 0.06 * noise / np.abs(noise).sum() * 2, 1e-9, None)
            w /= w.sum()
            pert = Pmf(tuple(w))
            if 0.5 * np.abs(pert.array() - mu.array()).sum() < 1e-2:
                continue
            res = classify_invariant(J, K, pert)
            assert res.verdict == VERDICT_NOT_INVARIANT, (J, K, pert)


def characterisation_sample():
    """(J, K, mu) over J, K in {1, ..., 6, inf}: stbGeo measures, the same
    perturbed by up to 2.5% per weight, and random measures; at K = inf the
    random ones get a heavy atom at 0 or at the top, so every drift-bound
    cap stays near 100 states."""
    rng = np.random.default_rng(9)
    caps = (1, 2, 3, 4, 5, 6, INF)
    for J in caps:
        for K in caps:
            top = 4 if J == INF else J
            for m in (1, 2):
                if J != INF and J % m:
                    continue
                for alpha in (0.25, 0.5, 1.5):
                    if alpha > 1 and INF in (J, K):
                        continue
                    beta = float(rng.choice((1.0, rng.uniform(0.3, 3.0))))
                    mu = stbgeo(INF if J == INF else J // m, alpha, beta, m)
                    yield J, K, mu
                    w = mu.array() * (1 + 0.05 * (rng.random(len(mu)) - 0.5))
                    yield J, K, Pmf(tuple(w / w.sum()), mu.truncated)
            for _ in range(3):
                w = rng.random(top + 1) * (rng.random(top + 1) < 0.7)
                w[rng.integers(0, top + 1)] += 0.05
                if K == INF:
                    w[rng.choice((0, top))] += 2 * w.sum()
                yield J, K, Pmf(tuple(w / w.sum()))


def test_classify_matches_the_dual_measure_characterisation():
    # the paper's characterisation: mu is invariant iff it is in M_rev and
    # detailed balance holds against the solved dual measure
    verdicts = []
    for J, K, mu in characterisation_sample():
        verdict = classify_invariant(J, K, mu).verdict
        mrev = mrev_member(J, K, mu)
        fits = mrev and detailed_balance_residual(J, K, mu, dual_measure(J, K, mu)) <= 1e-9
        assert (verdict == VERDICT_INVARIANT) == fits, (J, K, mu, verdict)
        assert (verdict == VERDICT_NOT_IN_MREV) == (not mrev), (J, K, mu, verdict)
        verdicts.append(verdict)
    assert len(verdicts) > 500 and min(map(verdicts.count, (
        VERDICT_INVARIANT, VERDICT_NOT_INVARIANT, VERDICT_NOT_IN_MREV))) >= 10


# ---------------------------------------------------------------------------
# exact invariance oracle
# ---------------------------------------------------------------------------


def test_oracle_invariant_cases():
    rep = invariance_oracle(1, 2, bernoulli(1 / 3), 1)
    assert rep.deviation < 1e-14
    assert rep.joint[1].sum() == pytest.approx(1 / 3, abs=1e-14)
    rep = invariance_oracle(1, 2, bernoulli(1 / 3), 3)
    assert rep.deviation < 1e-14
    rep = invariance_oracle(2, 2, Pmf((0.3, 0.3, 0.4)), 2)
    assert rep.deviation < 1e-15


def test_oracle_detects_non_invariance():
    rep = invariance_oracle(2, 3, Pmf((0.5, 0.1, 0.4)), 1)
    assert rep.deviation > 1e-2
    # uniform(2) is the true dual of bernoulli(1/2) (alpha = 1 branch)
    rep = invariance_oracle(1, 2, Pmf((0.5, 0.5)), 2, dual=uniform(2))
    assert rep.deviation < 1e-15
    # a genuinely corrupted dual as the negative control
    rep = invariance_oracle(1, 2, Pmf((0.5, 0.5)), 2, dual=Pmf((0.7, 0.2, 0.1)))
    assert rep.deviation > 1e-2


def test_oracle_guards(monkeypatch):
    with pytest.raises(InvalidParams):
        invariance_oracle(1, 2, bernoulli(0.25), 5)
    monkeypatch.setattr(measures, "_MAX_TERMS", 10)
    with pytest.raises(StateSpaceTooLarge):
        invariance_oracle(1, INF, bernoulli(0.25), 4)


def test_oracle_matches_balance_for_stbgeo():
    mu = stbgeo(3, 0.5, 1, 1)
    rep = invariance_oracle(3, 5, mu, 2)
    assert rep.deviation < 1e-12


def test_oracle_support_narrower_than_capacity():
    # updated occupancies may exceed the input support (deposits fill boxes)
    mu = Pmf((0.6, 0.4))
    rep = invariance_oracle(3, 6, mu, 2)      # trivial-shift family
    assert rep.deviation < 1e-14
    rep = invariance_oracle(2, 3, Pmf((0.7, 0.3)), 1)
    assert rep.deviation < 1e-14


# ---------------------------------------------------------------------------
# the local-map table against its scalar definition
# ---------------------------------------------------------------------------


def ref_residual(J, K, mu, nu):
    """detailed_balance_residual as one validated local_map call per pair."""
    worst = 0.0
    for a in range(len(mu)):
        for b in range(len(nu)):
            a2, b2 = local_map(J, K, (a, b))
            diff = abs(mu.weights[a] * nu.weights[b] - mu.at(a2) * nu.at(b2))
            if diff > worst:
                worst = diff
    return worst


def ref_w_chain(J, K, mu, cap):
    """The load kernel summed load by load, occupancy by occupancy, with
    loads past the cap clipped into it; zero weights are never mapped."""
    kernel = np.zeros((cap + 1, cap + 1))
    for a in range(cap + 1):
        for x in range(len(mu)):
            if mu.weights[x] != 0.0:
                b = local_map(J, K, (x, a))[1]
                kernel[a, min(b, cap)] += mu.weights[x]
    return kernel


def ref_oracle_joint(J, K, mu, k, nu, w_max, out_A):
    """The joint law of k updated sites pushed forward one (x, w) at a time."""
    P = np.zeros((1, w_max))
    P[0, :len(nu)] = nu.weights
    for _ in range(k):
        P2 = np.zeros((P.shape[0] * out_A, w_max))
        for x in range(len(mu)):
            if mu.weights[x] == 0.0:
                continue
            for w in range(w_max):
                if P[:, w].any():
                    a2, w2 = local_map(J, K, (x, w))
                    P2[a2::out_A, w2] += P[:, w] * mu.weights[x]
        P = P2
    return P.sum(axis=1).reshape((out_A,) * k)


def outcome(f, *args):
    """f's value, or InvalidCell when f rejects a cell pair."""
    try:
        return f(*args)
    except InvalidCell:
        return InvalidCell


def table_cases():
    """(J, K, mu, duals) over J, K in {1, 2, 3, 5, inf}, not both infinite;
    pmfs with interior zeros and a zero weight one past J, at K = inf a
    geometric pmf whose load chain reaches its cap, and duals of several
    lengths up to K + 1."""
    rng = np.random.default_rng(6)
    caps = (1, 2, 3, 5, INF)
    for J in caps:
        for K in caps:
            if J == K == INF:
                continue
            top = 4 if J == INF else J
            w = rng.random(top + 1) * (rng.random(top + 1) < 0.6)
            w[0] += 0.1
            mus = [Pmf((0.5,) + (0.0,) * (top - 1) + (0.5,)),   # interior zeros
                   Pmf(tuple(w / w.sum())),
                   Pmf(tuple(w / w.sum()) + (0.0,))]            # a zero past J
            if K == INF:
                mus.append(Pmf(tuple(0.5 ** a / (2 - 0.5 ** top) for a in range(top + 1))))
            kt = 4 if K == INF else K
            duals = [Pmf(tuple(v / v.sum())) for v in
                     (rng.random(n) for n in sorted({1, (kt + 2) // 2, kt + 1}))]
            yield J, K, mus, duals


def test_table_matches_scalar_local_map():
    n_oracle = 0
    compared = set()
    for J, K, mus, duals in table_cases():
        for mu in mus:
            for nu in duals:   # the full grid is validated: a zero past J is rejected
                assert (outcome(detailed_balance_residual, J, K, mu, nu)
                        == outcome(ref_residual, J, K, mu, nu))
            if K == INF and not 2 * mean_occupancy(mu) < J:
                with pytest.raises(NotInMrev):     # no drift: no cap exists
                    w_chain(J, K, mu)
            else:
                got = w_chain(J, K, mu)     # at K = inf, at the cap it picks
                assert np.array_equal(got, ref_w_chain(J, K, mu, len(got) - 1)), (J, K, mu)
                compared.add((J, K))
            for nu in duals:
                for k in (1, 2, 3):
                    rep = invariance_oracle(J, K, mu, k, dual=nu)
                    # a zero weight past J is trimmed before loads are bounded
                    w_max = len(nu) + k * (min(len(mu), J + 1) - 1)
                    if K != INF:
                        w_max = min(w_max, K + 1)
                    ref = ref_oracle_joint(J, K, mu, k, nu, w_max, rep.joint.shape[0])
                    assert np.array_equal(rep.joint, ref), (J, K, mu, nu, k)
                    assert rep.deviation == float(np.abs(ref - rep.expected).max())
                    n_oracle += 1
    assert n_oracle >= 400
    assert {(J, INF) for J in (1, 2, 3, 5)} <= compared


def test_table_validates_like_local_map():
    beyond = Pmf((0.5, 0.0, 0.5))        # positive weight at 2 > J = 1
    with pytest.raises(InvalidCell):
        w_chain(1, 3, beyond)
    with pytest.raises(InvalidCell):
        invariance_oracle(1, 3, beyond, 1, dual=uniform(3))
    with pytest.raises(InvalidCell):
        detailed_balance_residual(1, 3, beyond, uniform(3))
    # a residual dual longer than K + 1 holds loads the carrier cannot carry
    with pytest.raises(InvalidCell):
        detailed_balance_residual(1, 2, bernoulli(0.5), uniform(3))
    with pytest.raises(InvalidCell):
        ref_residual(1, 2, bernoulli(0.5), uniform(3))


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def test_sample_pmf_reproducible_and_exact():
    mu = Pmf((0.2, 0.5, 0.3))
    a = sample_pmf(mu, np.random.default_rng(42), 20000)
    b = sample_pmf(mu, np.random.default_rng(42), 20000)
    assert np.array_equal(a, b)
    freq = np.bincount(a, minlength=3) / len(a)
    assert np.abs(freq - mu.array()).max() < 0.02
