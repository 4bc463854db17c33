"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Check 6b asks whether the oracle separates the weights (0.5, 0.1, 0.4)
correctly.  On capacities (2, 4), both divisible by 2m = 2, they lie in the
bipartite geometric family (alpha = sqrt(0.8), beta = 0.1 / (alpha * 0.5)
!= 1) and are exactly invariant: against the dual built from the closed
form the oracle deviation is ~1e-16 and the detailed balance residual
~1e-17.  Where the capacities rule out beta != 1 the same weights leave
the family and the oracle deviation exceeds 1e-3: on (3, 5) in 6b, and on
(2, 3) in 6c.
"""

import time

import numpy as np
from scipy import stats

from boxball import (
    Config,
    IidInvariant,
    INF,
    Pmf,
    bernoulli,
    classify_invariant,
    current_column,
    current_iid_test,
    detailed_balance_residual,
    dual_measure,
    duality_verify,
    evolve_block,
    invariance_mc_test,
    invariance_oracle,
    inverse_step,
    local_map,
    mean_occupancy,
    mrev_member,
    r_val,
    sample_stationary_block,
    speed_estimate,
    stbgeo,
    step,
    sweep,
    underline_r,
    uniform,
)
from boxball.capacities import is_finite
from boxball.measures import StbGeoFamily, VERDICT_INVARIANT, VERDICT_NOT_INVARIANT

from paper_views import (
    PathEncoding,
    palm_step_mean,
    path_decode,
    path_encode,
    pitman_M,
    reduced_map,
    same_occupancies,
    sigma_dual,
)
from stbgeo_grid import stbgeo_grid


def report(num: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def random_config(rng, J, n_max=16, offset_lo=-4, offset_hi=4):
    jmax = 5 if J == INF else J
    n = int(rng.integers(2, n_max))
    cells = tuple(int(v) for v in rng.integers(0, jmax + 1, n))
    return Config(int(rng.integers(offset_lo, offset_hi)), cells, J)


# ---------------------------------------------------------------------------
# 1. local-rule identities, exhaustive
# ---------------------------------------------------------------------------


def test_c01_local_rule_identities():
    t0 = time.monotonic()

    def pairs():
        for J in range(1, 7):
            for K in range(1, 7):
                yield J, K, range(J + 1), range(K + 1)
        for J in range(1, 7):
            yield J, INF, range(J + 1), range(41)
        for K in range(1, 7):
            yield INF, K, range(41), range(K + 1)

    bad = 0
    for J, K, a_range, b_range in pairs():
        for a in a_range:
            for b in b_range:
                a2, b2 = local_map(J, K, (a, b))
                if local_map(J, K, (a2, b2)) != (a, b):
                    bad += 1
                if a + b != a2 + b2:
                    bad += 1
                if local_map(K, J, (b, a)) != (b2, a2):
                    bad += 1
                if is_finite(J) and is_finite(K):
                    if sigma_dual(J, K, local_map(J, K, (a, b))) != \
                            local_map(J, K, sigma_dual(J, K, (a, b))):
                        bad += 1
                for r in (1, 2):
                    if min(J, K) > 2 * r and r <= a <= J - r and r <= b <= K - r:
                        if reduced_map(J, K, r, (a, b)) != (a2 - r, b2 - r):
                            bad += 1
    dt = time.monotonic() - t0
    report("1", bad == 0 and dt < 10.0,
           f"exhaustive identities, violations={bad}, runtime={dt:.2f}s (< 10s)")


# ---------------------------------------------------------------------------
# 2. sweep equals path transform for J < K
# ---------------------------------------------------------------------------


def pitman_step_zero_pad(J, K, c):
    p = path_encode(c)
    gap = INF if K == INF else 2 * (K - J)
    m2_0 = -J  # doubled M at offset-1 for an empty entering carrier
    m2 = pitman_M(p, gap, left_init=m2_0)
    td = tuple(2 * m - d - 2 * m2_0 for m, d in zip(m2, p.D))
    return path_decode(PathEncoding(c.offset, td, 0), J)


def test_c02_pitman_equivalence():
    rng = np.random.default_rng(2024)
    groups = {"finite": [(1, 2), (2, 5), (3, 4), (2, 3)],
              "infinite": [(1, INF), (3, INF)]}
    mismatches = 0
    total = 0
    for name, regime in groups.items():
        for i in range(1000):
            J, K = regime[i % len(regime)]
            c = random_config(rng, J)
            pad = (min(K, sum(c.cells)) // J if K != INF else sum(c.cells) // J) + 2
            padded = Config(c.offset, c.cells.tolist() + [0] * int(pad), J, c.boundary)
            _, swept = sweep(J, K, padded, 0)
            if pitman_step_zero_pad(J, K, padded).cells.tolist() != swept.cells.tolist():
                mismatches += 1
            total += 1
    report("2", mismatches == 0,
           f"sweep vs path transform on {total} configs, mismatches={mismatches}")


# ---------------------------------------------------------------------------
# 3. reversibility
# ---------------------------------------------------------------------------


def test_c03_reversibility():
    rng = np.random.default_rng(3)
    groups = [[(1, 3), (2, 5)], [(1, INF), (2, INF)], [(2, 2), (4, 4)],
              [(3, 2), (5, 3)], [(INF, 2), (INF, 4)]]
    bad = 0
    for regime in groups:
        for i in range(1000):
            J, K = regime[i % len(regime)]
            c = random_config(rng, J, n_max=12)
            if not same_occupancies(inverse_step(J, K, step(J, K, c)), c):
                bad += 1
            if not same_occupancies(step(J, K, inverse_step(J, K, c)), c):
                bad += 1
    report("3", bad == 0, f"T^-1 T = T T^-1 = id on 5x1000 configs, failures={bad}")


# ---------------------------------------------------------------------------
# 4. duality on blocks, including the intertwining column check
# ---------------------------------------------------------------------------


def test_c04_block_duality():
    rng = np.random.default_rng(4)
    regimes = [(1, 2), (3, 5), (2, 2), (4, 2), (1, INF), (INF, 3)]
    t_max = 6
    violations = 0
    intertwine_bad = 0
    for J, K in regimes:
        for i in range(100):
            for mode in ("zero", "iid"):
                c = random_config(rng, J, n_max=12)
                if mode == "iid":
                    hi = 4 if K == INF else K
                    supply = tuple(int(v) for v in rng.integers(0, hi + 1, t_max + 2))
                    c = Config(c.offset, c.cells, J, IidInvariant(supply))
                b1 = evolve_block(J, K, c, t_max)
                violations += duality_verify(b1).violations
                if i % 10 == 0:
                    c1 = step(J, K, c)
                    if mode == "iid":
                        c1 = Config(c1.offset, c1.cells, J, IidInvariant(supply[1:]))
                    b2 = evolve_block(J, K, c1, t_max - 1)
                    lo = max(b1.carrier(0).offset, b2.carrier(0).offset)
                    hi_n = min(min(w.end for _, w in b1.rows),
                               min(w.end for _, w in b2.rows))
                    for n in range(lo, hi_n + 1):
                        if current_column(b1, n)[1:] != current_column(b2, n):
                            intertwine_bad += 1
                            break
    report("4", violations == 0 and intertwine_bad == 0,
           f"block duality violations={violations}, "
           f"intertwining failures={intertwine_bad}")


# ---------------------------------------------------------------------------
# 5 & 7. detailed balance and dual-measure agreement over the stbGeo grid
# ---------------------------------------------------------------------------


def test_c05_detailed_balance_grid():
    worst = 0.0
    count = 0
    for J, K, m, alpha, beta, mu, nu in stbgeo_grid():
        res = detailed_balance_residual(J, K, mu, nu)
        worst = max(worst, res)
        count += 1
        assert res < 1e-12, (J, K, m, alpha, beta, res)
    report("5", count >= 60 and worst < 1e-12,
           f"{count} stbGeo pairs, max residual={worst:.2e} (< 1e-12)")


def test_c07_dual_measure_agreement():
    worst = 0.0
    count = 0
    ok_r = True
    for J, K, m, alpha, beta, mu, nu_closed in stbgeo_grid():
        nu_solved = dual_measure(J, K, mu)
        n = max(len(nu_solved), len(nu_closed))
        a = np.zeros(n)
        b = np.zeros(n)
        a[: len(nu_solved)] = nu_solved.weights
        b[: len(nu_closed)] = nu_closed.weights
        worst = max(worst, float(np.abs(a - b).max()))
        if r_val(J, mu) != r_val(K, nu_solved):
            ok_r = False
        if (J == INF or K == INF) and underline_r(mu) != underline_r(nu_solved):
            ok_r = False
        count += 1
    report("7", worst < 1e-10 and ok_r and count >= 60,
           f"{count} pairs, max |solve - closed form|={worst:.2e} (< 1e-10), "
           f"r and underline-r equalities hold={ok_r}")


# ---------------------------------------------------------------------------
# 6. exact invariance oracle
# ---------------------------------------------------------------------------


def test_c06_oracle_invariant_measures():
    cases = {
        (1, 2): [bernoulli(1 / 3), bernoulli(0.5), Pmf((1.0, 0.0))],
        (2, 4): [stbgeo(2, 0.5, 1, 1), uniform(2), stbgeo(2, 0.8, 2.0, 1),
                 Pmf((0.6, 0.4, 0.0))],
    }
    worst = 0.0
    for (J, K), mus in cases.items():
        for mu in mus:
            for k in (1, 2, 3):
                worst = max(worst, invariance_oracle(J, K, mu, k).deviation)
    report("6", worst < 1e-10,
           f"invariant pushforward deviation={worst:.2e} (< 1e-10) for k <= 3")


def test_c06b_negative_control_as_specified():
    # (0.5, 0.1, 0.4) on (2, 4) is stbGeo(2, alpha, beta, 1) with
    # alpha = sqrt(0.8), beta = 0.1 / (0.5 alpha) != 1, admissible because
    # 2m = 2 divides both capacities, so the oracle must find it invariant
    # against the dual written down from the closed form (not from the
    # classifier or the load chain).  The negative control keeps the
    # > 1e-3 threshold on (3, 5), where the odd capacities take the same
    # weights out of the family; check 6c covers (2, 3).
    mu = Pmf((0.5, 0.1, 0.4))
    alpha = np.sqrt(0.8)
    beta = 0.1 / (0.5 * alpha)
    in_family = np.allclose(stbgeo(2, alpha, beta, 1).weights, mu.weights,
                            rtol=0, atol=1e-15)
    nu = stbgeo(4, alpha, beta, 1)
    dev = max(invariance_oracle(2, 4, mu, k, dual=nu).deviation for k in (1, 2, 3))
    residual = detailed_balance_residual(2, 4, mu, nu)
    family = classify_invariant(2, 4, mu).family
    beta_fit = family.params.beta if isinstance(family, StbGeoFamily) else None
    dev_out = invariance_oracle(3, 5, Pmf((0.5, 0.1, 0.4, 0.0)), 1).deviation
    report("6b", in_family and dev < 1e-10 and residual < 1e-12
           and beta_fit is not None and abs(beta_fit - 1) > 1e-3
           and dev_out > 1e-3,
           f"(0.5,0.1,0.4) on (2,4) against closed-form stbGeo(4, sqrt(0.8), "
           f"{beta:.4f}, 1): oracle deviation={dev:.2e} (< 1e-10) for k <= 3, "
           f"balance residual={residual:.2e} (< 1e-12), classified beta="
           f"{beta_fit}; on (3,5) oracle deviation={dev_out:.2e} (> 1e-3)")


def test_c06c_true_negative_control():
    # The same weights on (2, 3) do leave the invariant family: K odd
    # forbids beta != 1.
    dev = invariance_oracle(2, 3, Pmf((0.5, 0.1, 0.4)), 1).deviation
    report("6c", dev > 1e-3,
           f"(0.5,0.1,0.4) on (2,3): oracle deviation={dev:.2e} (> 1e-3)")


# ---------------------------------------------------------------------------
# 8. classification of the invariant family and perturbations
# ---------------------------------------------------------------------------


def lift(weights, r, J=None, reflect=False):
    w = [0.0] * r + list(weights)
    if reflect:
        out = [0.0] * (J + 1)
        for a, v in enumerate(w):
            out[J - a] = v
        return Pmf(tuple(out))
    return Pmf(tuple(w))


def test_c08_classification():
    positives = []
    for J, K, m, alpha, beta, mu, _ in stbgeo_grid():
        positives.append((J, K, mu))
    # E_r shifts of reduced family members, r up to floor(min/2) - 1
    for J, K, base_J, base_K in [(4, 6, 2, 4), (5, 7, 3, 5), (6, 8, 2, 4)]:
        max_r = min(J, K) // 2 - 1
        for r in range(1, max_r + 1):
            bj, bk = J - 2 * r, K - 2 * r
            positives.append((J, K, lift(stbgeo(bj, 0.5, 1, 1).weights, r)))
    # sigma reflections (finite capacities) and trivial-shift supports
    positives += [
        (4, 6, lift((0.3, 0.5, 0.2), 0, J=4, reflect=True)),
        (2, 4, lift((0.6, 0.4), 0, J=2, reflect=True)),
        (4, 3, Pmf((0.5, 0.5, 0.0, 0.0, 0.0))),
        (5, 8, Pmf((0.2, 0.5, 0.3, 0.0, 0.0, 0.0))),
        (4, 6, lift((0.25, 0.75), 1)),
    ]
    mis = 0
    for J, K, mu in positives:
        if classify_invariant(J, K, mu).verdict != VERDICT_INVARIANT:
            mis += 1
    n_pos = len(positives)

    # 50 perturbed negatives with TV >= 1e-2, on capacity pairs where the
    # family has codimension > 0
    rng = np.random.default_rng(8)
    neg_pairs = [(2, 3), (3, 5), (3, 4), (2, 5), (3, INF)]
    bases = {p: stbgeo(3 if p[0] == 3 else 2, 0.4, 1, 1) for p in neg_pairs}
    n_neg = 0
    while n_neg < 50:
        J, K = neg_pairs[n_neg % len(neg_pairs)]
        base = bases[(J, K)]
        noise = rng.random(len(base)) - 0.5
        noise -= noise.mean()
        w = np.clip(base.array() + 0.05 * noise / np.abs(noise).sum() * 2, 1e-9, None)
        w /= w.sum()
        pert = Pmf(tuple(w))
        if 0.5 * np.abs(pert.array() - base.array()).sum() < 1e-2:
            continue
        if not mrev_member(J, K, pert):
            continue
        if classify_invariant(J, K, pert).verdict != VERDICT_NOT_INVARIANT:
            mis += 1
        n_neg += 1
    report("8", mis == 0,
           f"{n_pos} family members Invariant, {n_neg} perturbations "
           f"NotInvariant, misclassifications={mis}")


# ---------------------------------------------------------------------------
# 9. tagged-particle speed
# ---------------------------------------------------------------------------


def test_c09_speed_bernoulli_quarter():
    t0 = time.monotonic()
    est = speed_estimate(1, INF, bernoulli(0.25), t_max=2000, replicas=32,
                         rng=42)
    dt = time.monotonic() - t0
    nu = dual_measure(1, INF, bernoulli(0.25))
    assert abs(est.theoretical - palm_step_mean(1, INF, bernoulli(0.25), nu)) < 1e-11
    rel = abs(est.ratio_estimate - 2.0) / 2.0
    report("9a", rel < 0.05 and dt < 120.0,
           f"(1,inf) Bernoulli(0.25): estimate={est.ratio_estimate:.4f}, "
           f"|rel err|={rel:.4f} (< 0.05), runtime={dt:.1f}s (< 120s)")


def test_c09_speed_stbgeo_three_five():
    mu = stbgeo(3, 0.5, 1, 1)
    nu = dual_measure(3, 5, mu)  # independent linear solve
    theory = mean_occupancy(nu) / mean_occupancy(mu)
    t0 = time.monotonic()
    est = speed_estimate(3, 5, mu, t_max=2000, replicas=32, rng=42)
    dt = time.monotonic() - t0
    assert abs(est.theoretical - palm_step_mean(3, 5, mu, nu)) < 1e-12
    rel = abs(est.ratio_estimate - theory) / theory
    agree = abs(est.theoretical - theory) < 1e-10
    report("9b", rel < 0.05 and dt < 120.0 and agree,
           f"(3,5) stbGeo: estimate={est.ratio_estimate:.4f}, "
           f"theory(solve)={theory:.4f}, |rel err|={rel:.4f} (< 0.05), "
           f"runtime={dt:.1f}s (< 120s)")


def test_c09c_speed_duality():
    # v_{J,K}(mu) v_{K,J}(nu) = 1 for the dual pair: each side and the product
    # (delta method) within 4 standard errors
    t0 = time.monotonic()
    lines, ok = [], True
    for J, K, mu in ((1, INF, bernoulli(0.25)), (3, 5, stbgeo(3, 0.5, 1, 1)),
                     (2, 4, Pmf((0.5, 0.1, 0.4))), (2, 3, uniform(2))):
        nu = classify_invariant(J, K, mu).dual
        sides = []
        for j, k, m in ((J, K, mu), (K, J, nu)):
            est = speed_estimate(j, k, m, t_max=1000, replicas=16, rng=7)
            sides.append((est.ratio_estimate, est.std_error, est.theoretical))
        (v1, s1, th1), (v2, s2, th2) = sides
        z = ((v1 - th1) / s1, (v2 - th2) / s2, (v1 * v2 - 1) / np.hypot(v2 * s1, v1 * s2))
        ok &= max(map(abs, z)) < 4 and abs(th1 * th2 - 1) < 1e-9
        lines.append(f"({J},{K}) v={v1:.4f} dual v={v2:.4f} product={v1 * v2:.4f} "
                     f"z=" + ",".join(f"{x:.2f}" for x in z))
    dt = time.monotonic() - t0
    report("9c", ok, "; ".join(lines) + f"; runtime={dt:.1f}s")


# ---------------------------------------------------------------------------
# 10. staircase-of-solitons current regression
# ---------------------------------------------------------------------------


def staircase_config(n_max):
    lo = -(2 * n_max + 1) * (n_max - 1)
    cells = [0] * (1 - lo)
    for n in range(1, n_max + 1):
        for i in range(-(2 * n + 1) * (n - 1), -2 * n * (n - 1) + 1):
            cells[i - lo] = 1
    return Config(lo, tuple(cells), 1)


def test_c10_staircase_current_prefix():
    want = (1, 0, 2, 0, 3, 0, 4, 0, 5)
    results = {}
    for n_max in (12, 16):
        b = evolve_block(1, INF, staircase_config(n_max), 8)
        results[n_max] = tuple(current_column(b, 0))
    ok = results[12] == want and results[16] == want
    report("10", ok,
           f"origin current prefix {results[12]} == {want}, "
           f"stable from truncation 12 to 16")


# ---------------------------------------------------------------------------
# 11. statistical calibration
# ---------------------------------------------------------------------------


def test_c11_calibration_and_rejection():
    mu = bernoulli(0.25)
    nu = dual_measure(1, INF, mu)
    m_ps, p_ps, c_ps = [], [], []
    for seed in range(200):
        rep = invariance_mc_test(1, INF, mu, L=3000, T_max=2, replicas=1,
                                 rng=seed)
        m_ps.append(rep.marginal_p)
        p_ps.append(rep.pair_p)
        block, _ = sample_stationary_block(1, INF, mu, L=32, T_max=600,
                                           rng=10_000 + seed)
        c_ps.append(current_iid_test(block, nu).marginal_p)
    ks = {name: stats.kstest(ps, "uniform").statistic
          for name, ps in [("marginal", m_ps), ("pair", p_ps),
                           ("current", c_ps)]}
    uniform_ok = all(v < 0.12 for v in ks.values())

    bad_mu = Pmf((0.5, 0.1, 0.4))
    rej1 = invariance_mc_test(2, 3, bad_mu, L=20000, T_max=1, replicas=1,
                              rng=0).marginal_p
    block, _ = sample_stationary_block(1, INF, mu, L=32, T_max=600, rng=77)
    rej2 = current_iid_test(block, Pmf((0.4, 0.3, 0.2, 0.1))).marginal_p
    reject_ok = rej1 < 1e-3 and rej2 < 1e-3
    report("11", uniform_ok and reject_ok,
           f"KS over 200 seeds: marginal={ks['marginal']:.3f}, "
           f"pair={ks['pair']:.3f}, current={ks['current']:.3f} (< 0.12); "
           f"negative controls p={rej1:.1e}, {rej2:.1e} (< 1e-3)")
