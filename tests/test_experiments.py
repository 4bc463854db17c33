import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from boxball import (
    Config,
    Detect,
    IidInvariant,
    INF,
    Pmf,
    RngSpec,
    ZeroPad,
    bernoulli,
    classify_invariant,
    current_iid_test,
    dual_measure,
    evolve_block,
    invariance_mc_test,
    invariance_oracle,
    sample_stationary_block,
    speed_estimate,
    stbgeo,
    uniform,
)
from boxball import experiments
from boxball.capacities import is_finite
from boxball.errors import InvalidParams, Undetermined
from boxball.local_rules import exchange_form, exchange_map, local_map, local_map_array
from boxball.measures import mean_occupancy, sample_pmf

from paper_views import label_balls, palm_step_mean, tagged_evolve


def test_rng_substreams_reproducible_and_distinct():
    a = RngSpec(7, 0).stream("window").random(4)
    b = RngSpec(7, 0).stream("window").random(4)
    c = RngSpec(7, 1).stream("window").random(4)
    d = RngSpec(7, 0).stream("currents").random(4)
    e = RngSpec(7, 0).stream("tag").random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
    assert not np.array_equal(a, e) and not np.array_equal(d, e)


# ---------------------------------------------------------------------------
# stationary sampler
# ---------------------------------------------------------------------------


def test_sampler_row_density_and_reproducibility():
    mu = bernoulli(0.25)
    block, meta = sample_stationary_block(1, INF, mu, L=4000, T_max=20, rng=5)
    assert meta["verdict"] == "Invariant"
    for t in (0, 10, 20):
        row = block.config(t).cells
        assert abs(row.mean() - 0.25) < 0.03
    block2, _ = sample_stationary_block(1, INF, mu, L=4000, T_max=20, rng=5)
    assert block2.rows[20][0] == block.rows[20][0]


def fold_row(J, K, cells, seed):
    """One row by the scalar local map: (loads, next cells)."""
    w, loads, out = seed, [], []
    for v in cells:
        v2, w = local_map(J, K, (v, w))
        out.append(v2)
        loads.append(w)
    return loads, out


def fold_block(J, K, c, t_max):
    """The block of c by the scalar local map, row after row: per row
    (first site, cells, first load site, loads, entering load), or None when
    a Detect row is undetermined.  A Detect row starts at the first site
    where every entering load of the floor band gives one load; for
    J < K = inf the band is unbounded and no site is forced.  Zero-padded
    rows drain past the window end and are padded to the union window."""
    b, rows = c.boundary, []
    start, cells = c.offset, c.cells.tolist()
    for t in range(t_max + 1):
        if not cells:
            return None
        if isinstance(b, Detect):
            if J < K == INF:
                return None
            folds = [fold_row(J, K, cells, s) for s in range(b.floor, K - b.floor + 1)]
            i = next((k for k in range(len(cells))
                      if len({loads[k] for loads, _ in folds}) == 1), None)
            if i is None:
                return None
            loads, out = folds[0]
            rows.append((start, cells, start + i, loads[i:], None))
            start, cells = start + i + 1, out[i + 1:]
            continue
        seed = 0 if isinstance(b, ZeroPad) else b.currents[t]
        loads, out = fold_row(J, K, cells, seed)
        while isinstance(b, ZeroPad) and loads[-1] > 0:
            cells = cells + [0]
            v2, w = local_map(J, K, (0, loads[-1]))
            loads, out = loads + [w], out + [v2]
        rows.append((start, cells, start, loads, seed))
        cells = out
    if isinstance(b, ZeroPad):
        hi = max(len(r[1]) for r in rows)
        rows = [(s, v + [0] * (hi - len(v)), s, w + [0] * (hi - len(w)), seed)
                for s, v, _, w, seed in rows]
    return rows


def assert_block_is_fold(block, J, K, c, rows):
    """Arrays, spans, offset, currents and boundary against fold_block."""
    lo = min(min(r[0], r[2]) for r in rows)
    hi = max(max(r[0] + len(r[1]), r[2] + len(r[3])) for r in rows)
    occ, load = np.zeros((2, len(rows), hi - lo), dtype=np.int64)
    for t, (s, v, sw, w, _) in enumerate(rows):
        occ[t, s - lo:s - lo + len(v)] = v
        load[t, sw - lo:sw - lo + len(w)] = w
    assert block.offset == lo
    assert np.array_equal(block.occ, occ) and np.array_equal(block.load, load)
    assert block.occ_span.tolist() == [[s - lo, s - lo + len(v)] for s, v, *_ in rows]
    assert block.load_span.tolist() == [[sw - lo, sw - lo + len(w)]
                                        for _, _, sw, w, _ in rows]
    seeds = tuple(r[4] for r in rows)
    assert block.left_currents == seeds
    trimmed = IidInvariant(seeds) if isinstance(c.boundary, IidInvariant) else c.boundary
    assert block.boundary == trimmed


def test_sampler_equals_row_by_row_evolution():
    # the sampler and evolve_block against the scalar local map, row by row
    caps = [1, 2, 3, 5, INF]
    rng = np.random.default_rng(29)
    drained = shrunk = undetermined = 0
    for J in caps:
        for K in caps:
            if J == K == INF:
                continue
            mu = stbgeo(J, 0.5, 1, 1)
            block, meta = sample_stationary_block(J, K, mu, L=40, T_max=6, rng=11)
            assert meta["verdict"] == "Invariant"
            spec = RngSpec(11)
            eta = tuple(sample_pmf(mu, spec.stream("window"), 40).tolist())
            currents = tuple(sample_pmf(meta["dual"], spec.stream("currents"), 7).tolist())
            c = Config(1, eta, J, IidInvariant(currents))
            assert_block_is_fold(block, J, K, c, fold_block(J, K, c, 6))

            top = 6 if J == INF else J
            seeds = range(min(K, 4) + 1)
            # more currents than rows, of which the block keeps the first six
            currents = tuple(rng.choice(seeds, 8).tolist())
            for boundary in [ZeroPad(), ZeroPad(), IidInvariant((int(rng.choice(seeds)),) * 6),
                             IidInvariant(currents), Detect(0), Detect(0), Detect(1)]:
                r = boundary.floor if isinstance(boundary, Detect) else 0
                if min(J, K) <= 2 * r:
                    continue
                n = 24 if isinstance(boundary, Detect) else 8
                cells = tuple(int(v) for v in rng.integers(r, top - r + 1, n))
                c = Config(-2, cells, J, boundary)
                steps = 3 if isinstance(boundary, Detect) else 5
                rows = fold_block(J, K, c, steps)
                if rows is None:
                    undetermined += 1
                    with pytest.raises(Undetermined):
                        evolve_block(J, K, c, steps)
                    continue
                assert_block_is_fold(evolve_block(J, K, c, steps), J, K, c, rows)
                drained += len(rows[-1][1]) > n
                shrunk += rows[-1][0] > c.offset
    assert drained and shrunk and undetermined


def test_sampler_j_equals_k_shifts_with_insertions():
    mu = Pmf((0.3, 0.5, 0.2))
    block, _ = sample_stationary_block(2, 2, mu, L=50, T_max=10, rng=3)
    for t in range(10):
        row = block.config(t)
        nxt = block.config(t + 1)
        assert nxt.cells[1:].tolist() == row.cells[:-1].tolist()
        assert nxt.cells[0] == block.left_currents[t]


def test_sampler_point_mass_at_zero():
    block, _ = sample_stationary_block(2, 3, Pmf((1.0, 0.0, 0.0)), 30, 5, rng=1)
    assert all(int(block.config(t).cells.sum()) == 0 for t in range(6))


def test_sampler_warns_on_non_invariant():
    mu = Pmf((0.5, 0.1, 0.4))
    _, meta = sample_stationary_block(2, 3, mu, 10, 2, rng=1)
    assert meta["verdict"] == "NotInvariant"
    assert "warning" in meta


def _row1_pair_tv(J, K, mu, L, rng):
    oracle = invariance_oracle(J, K, mu, 2)
    block, _ = sample_stationary_block(J, K, mu, L=L, T_max=1, rng=rng)
    row = block.config(1).cells
    A = oracle.joint.shape[0]
    pairs = row[0:-1:2] * A + row[1::2]
    emp = np.bincount(pairs, minlength=A * A)[: A * A] / len(pairs)
    return 0.5 * float(np.abs(emp - oracle.joint.ravel()).sum())


def test_sampler_empirical_matches_oracle_with_root_n_rate():
    # row-1 pair law converges to the exact oracle law, roughly like 1/sqrt(L)
    for J, K, mu in [(1, 2, bernoulli(1 / 3)), (2, 4, stbgeo(2, 0.5, 1, 1))]:
        tv_small = _row1_pair_tv(J, K, mu, 4000, rng=11)
        tv_large = _row1_pair_tv(J, K, mu, 64000, rng=11)
        assert tv_large < 0.01
        assert tv_large < 0.6 * tv_small  # 16x the data, expect ~4x smaller


# ---------------------------------------------------------------------------
# statistical tests
# ---------------------------------------------------------------------------


def test_invariance_mc_test_accepts_invariant():
    rep = invariance_mc_test(1, INF, bernoulli(0.25), L=3000, T_max=3,
                             replicas=2, rng=123)
    assert rep.marginal_p > 1e-4 and rep.pair_p > 1e-4
    assert max(rep.row_tv) < 0.05
    # the p-values are scipy.stats' chi-square tail to 1e-12 relative
    fisher = -2.0 * sum(math.log(r["marginal_p"]) for r in rep.per_replica)
    assert rep.marginal_p == pytest.approx(stats.chi2.sf(fisher, df=4), rel=1e-12)
    counts, probs = np.array([50, 30, 20]), np.array([0.4, 0.35, 0.25])
    chi2 = ((counts - 100 * probs) ** 2 / (100 * probs)).sum()
    assert experiments._chi2_p(counts, probs) == pytest.approx(
        stats.chi2.sf(chi2, df=2), rel=1e-12)


def test_chi2_sf_matches_scipy_on_a_grid():
    # df 1..200, x from 0 to tails near the double range's floor; odd df
    # end in erfc, even df are a Poisson tail
    xs = [0.0, 1e-300, 1e-12, 1e-6, 1e-3, *np.geomspace(0.01, 1500, 40).tolist()]
    for df in range(1, 201):
        grid = xs + [df - 1.0, float(df), df + 3 * math.sqrt(2 * df)]
        for x, ref in zip(grid, stats.chi2.sf(grid, df).tolist()):
            got = experiments._chi2_sf(x, df)
            assert 0.0 <= got <= 1.0
            if ref > 1e-290:
                assert got == pytest.approx(ref, rel=1e-12), (df, x)
            else:
                assert got < 1e-280, (df, x)
    for x in (1e-9, 0.5, 3.0, 40.0, 700.0):
        assert experiments._chi2_sf(x, 1) == pytest.approx(math.erfc(math.sqrt(x / 2)),
                                                            rel=1e-15)
        assert experiments._chi2_sf(x, 2) == pytest.approx(math.exp(-x / 2), rel=1e-15)
    assert experiments._chi2_sf(-1.0, 3) == 1.0


def test_invariance_mc_test_rejects_non_invariant():
    mu = Pmf((0.5, 0.1, 0.4))
    rep = invariance_mc_test(2, 3, mu, L=20000, T_max=1, replicas=1,
                             rng=42)
    assert not rep.passed
    assert rep.marginal_p < 1e-3


def test_invariance_mc_test_needs_a_replica():
    # Fisher's method over no replicas gives p = 1: no data must not pass
    for replicas in (0, -1):
        with pytest.raises(InvalidParams, match="replicas >= 1"):
            invariance_mc_test(1, INF, bernoulli(0.25), 10, 2, replicas, 7)


def test_current_iid_test_accepts_true_dual():
    mu = bernoulli(0.25)
    nu = dual_measure(1, INF, mu)
    block, _ = sample_stationary_block(1, INF, mu, L=40, T_max=600, rng=9)
    rep = current_iid_test(block, nu)
    assert rep.marginal_p > 1e-4
    assert abs(rep.autocorr) <= rep.autocorr_bound


def test_current_iid_test_rejects_corrupted_dual():
    mu = bernoulli(0.25)
    block, _ = sample_stationary_block(1, INF, mu, L=40, T_max=600, rng=10)
    rep = current_iid_test(block, Pmf((0.4, 0.3, 0.2, 0.1)))
    assert not rep.passed
    assert rep.marginal_p < 1e-3


def test_current_column_j_equals_k_is_reversed_row():
    from boxball import current_column

    mu = Pmf((0.2, 0.3, 0.5))
    block, _ = sample_stationary_block(2, 2, mu, L=30, T_max=8, rng=6)
    n = 15
    col = current_column(block, n)
    row0 = block.config(0)
    for t in range(9):
        assert col[t] == row0.at(n - t)  # the column reads the row backwards


# ---------------------------------------------------------------------------
# tagged-particle speed
# ---------------------------------------------------------------------------


def test_speed_preconditions():
    with pytest.raises(InvalidParams):
        speed_estimate(2, 2, Pmf((0.5, 0.3, 0.2)), 10, 2, rng=1)
    with pytest.raises(InvalidParams):
        speed_estimate(1, 2, Pmf((1.0, 0.0)), 10, 2, rng=1)
    with pytest.raises(InvalidParams):
        speed_estimate(2, 3, Pmf((0.5, 0.1, 0.4)), 10, 2, rng=1)
    for t_max, replicas in ((0, 2), (10, 0)):
        with pytest.raises(InvalidParams):
            speed_estimate(1, INF, bernoulli(0.25), t_max, replicas, rng=1)


def test_calls_take_an_int_seed():
    # replica r of a call uses RngSpec(seed, r); an RngSpec as the seed of a
    # call would name one replica's streams, so it is refused, not reduced
    with pytest.raises(TypeError):
        speed_estimate(1, INF, bernoulli(0.25), 20, 2, RngSpec(7, 5))
    with pytest.raises(TypeError):
        invariance_mc_test(1, INF, bernoulli(0.25), 20, 2, 1, RngSpec(7, 5))
    # the sampler takes an int or an RngSpec; a float is refused, not truncated
    mu = uniform(3)
    with pytest.raises(TypeError):
        sample_stationary_block(3, 2, mu, 12, 3, 7.9)
    block = sample_stationary_block(3, 2, mu, 12, 3, 7)[0]
    assert block == sample_stationary_block(3, 2, mu, 12, 3, RngSpec(7))[0]
    spec = RngSpec(7)
    eta = sample_pmf(mu, spec.stream("window"), 12)
    nu = classify_invariant(3, 2, mu).dual
    currents = tuple(sample_pmf(nu, spec.stream("currents"), 4).tolist())
    assert block == evolve_block(3, 2, Config(1, eta, 3, IidInvariant(currents)), 3)


def test_speed_smoke_and_reproducible():
    est = speed_estimate(1, INF, bernoulli(0.25), t_max=300, replicas=6, rng=77)
    assert est.theoretical == pytest.approx(2.0, abs=1e-9)  # dual tail cut at 1e-13
    assert abs(est.ratio_estimate - 2.0) / 2.0 < 0.15
    est2 = speed_estimate(1, INF, bernoulli(0.25), t_max=300, replicas=6, rng=77)
    assert est2.ratio_estimate == est.ratio_estimate


def _palm_pick(mu, spec):
    """Site 1's occupancy a (size-biased) and the tagged ball's rank r in 1..a,
    drawn from the replica's tag stream."""
    tag = spec.stream("tag")
    palm = Pmf(tuple(a * w / mean_occupancy(mu) for a, w in enumerate(mu.weights)))
    a = int(sample_pmf(palm, tag, 1)[0])
    return a, 1 + int(tag.integers(a))


def test_speed_tracker_matches_tagged_evolve(monkeypatch):
    # a small draw chunk so that every ball crosses several chunks; the
    # regimes run in one test so that it keeps its id; seven replicas so
    # that some tagged balls are not the bottom ball of site 1
    chunk = 16
    monkeypatch.setattr(experiments, "_DRAW_CHUNK", chunk)
    t_max, master, ranks = 100, 99, set()
    for J, K, mu in [(2, 5, stbgeo(2, 0.5, 1, 1)),        # J < K < inf
                     (4, 2, uniform(4)),                  # J > K
                     (1, INF, bernoulli(0.25)),           # K = inf
                     (INF, 2, stbgeo(INF, 0.5, 1, 1))]:   # J = inf
        est = speed_estimate(J, K, mu, t_max=t_max, replicas=7, rng=master)
        nu = classify_invariant(J, K, mu).dual
        for rec in est.per_replica:
            assert rec["attempt"] == 0
            assert rec["x_final"] > 2 * chunk
            spec = RngSpec(master, int(rec["replica"]))
            L = int(rec["window"])
            assert rec["cells"] == sum(min(d + 1, t_max) for d in range(L))
            eta = sample_pmf(mu, spec.stream("window"), L)
            eta[0], r = _palm_pick(mu, spec)
            currents = sample_pmf(nu, spec.stream("currents"), t_max)
            c = Config(1, tuple(int(v) for v in eta), J,
                       IidInvariant(tuple(int(v) for v in currents)))
            traj, _ = tagged_evolve(J, K, c, t_max, tracked=label_balls(c)[0][r - 1])
            assert traj[0] == (1, r), (J, K)
            assert traj[-1][0] == int(rec["x_final"]), (J, K)
            ranks.add(r)
    assert ranks >= {1, 2, 3}


def test_tracker_chunked_draws_equal_one_draw():
    # the tracker draws a replica's sites in chunks from one generator, and
    # the replay of test_speed_tracker_matches_tagged_evolve draws them at once
    mu = stbgeo(INF, 0.5, 1, 1)
    g = RngSpec(3, 1).stream("window")
    chunks = [sample_pmf(mu, g, 7) for _ in range(15)]
    whole = sample_pmf(mu, RngSpec(3, 1).stream("window"), 15 * 7)
    assert np.concatenate(chunks).tolist() == whole.tolist()


_CAPS = st.sampled_from([1, 2, 3, 5, INF])


# (x_final, window, cells) of replicas 0 and 1, master seed 99, each
# replayed ball by ball with tagged_evolve when recorded
_GOLDEN_TRACKS = [
    (2, 5, stbgeo(2, 0.5, 1, 1), {
        1: [(2, 2, 2), (2, 2, 2)],
        2: [(3, 4, 7), (3, 4, 7)],
        3: [(5, 7, 18), (4, 6, 15)],
        100: [(168, 267, 21750), (165, 264, 21450)]}),
    (4, 2, uniform(4), {
        1: [(2, 2, 2), (2, 2, 2)],
        2: [(3, 4, 7), (3, 4, 7)],
        3: [(4, 6, 15), (4, 6, 15)],
        100: [(51, 150, 10050), (53, 152, 10250)]}),
    (1, INF, bernoulli(0.25), {
        1: [(2, 2, 2), (2, 2, 2)],
        2: [(4, 5, 9), (3, 4, 7)],
        3: [(7, 9, 24), (4, 6, 15)],
        100: [(180, 279, 22950), (184, 283, 23350)],
        2000: [(4204, 6203, 10407000)]}),
    (INF, 2, stbgeo(INF, 0.5, 1, 1), {
        1: [(2, 2, 2), (2, 2, 2)],
        2: [(3, 4, 7), (3, 4, 7)],
        3: [(4, 6, 15), (4, 6, 15)],
        100: [(59, 158, 10850), (59, 158, 10850)]}),
    (3, 5, stbgeo(3, 0.5, 1, 1), {
        2000: [(2536, 4535, 7071000)]}),
]


def _track(rec):
    return tuple(int(rec[k]) for k in ("x_final", "window", "cells"))


def test_tracker_golden_records():
    for J, K, mu, by_t in _GOLDEN_TRACKS:
        for t_max, want in by_t.items():
            est = speed_estimate(J, K, mu, t_max=t_max, replicas=len(want), rng=99)
            assert [_track(r) for r in est.per_replica] == want, (J, K, t_max)
            for rec, (x_final, _, _) in zip(est.per_replica, want):
                assert rec["ratio"] == (x_final - 1) / t_max and rec["attempt"] == 0


def test_tracker_batching_and_chunking_leave_records_unchanged(monkeypatch):
    # every replica's record is its own: the same in a call of 1, 3 or 16
    # replicas, split into batches of 3 by a small lane budget, and under
    # draw chunks of 16 and of 7 (odd, so chunks start on odd diagonals), in
    # the regimes of test_speed_tracker_matches_tagged_evolve; at chunk 7 the
    # replicas of every regime cross in different chunks (at 16 all of (4, 2)
    # cross in one)
    t_max, master = 100, 99
    for J, K, mu in [(2, 5, stbgeo(2, 0.5, 1, 1)), (4, 2, uniform(4)),
                     (1, INF, bernoulli(0.25)), (INF, 2, stbgeo(INF, 0.5, 1, 1))]:
        want = speed_estimate(J, K, mu, t_max=t_max, replicas=16, rng=master).per_replica
        for chunk in (16, 7):
            monkeypatch.setattr(experiments, "_DRAW_CHUNK", chunk)
            crossed = {(int(r["window"]) - 1) // chunk for r in want}
            assert len(crossed) > 1 or chunk == 16, (J, K)
            for replicas in (1, 3, 16):
                got = speed_estimate(J, K, mu, t_max=t_max, replicas=replicas, rng=master)
                assert got.per_replica == want[:replicas], (J, K, chunk, replicas)
            monkeypatch.setattr(experiments, "_LANE_BUDGET", 3 * t_max)
            got = speed_estimate(J, K, mu, t_max=t_max, replicas=16, rng=master)
            assert got.per_replica == want, (J, K, chunk)
            monkeypatch.undo()


def test_tracker_promotes_state_mid_run(monkeypatch):
    # the balls entered (row currents, the Palm site 1 and the drawn sites
    # after it) leave the int16 range
    # of exchange_form after the first draw chunk and before the last; every
    # diagonal of the chunk that crosses it, and after, maps int64 lanes, and
    # diagonal d maps the min(d + 1, t_max) lanes of the rows joined
    J, K, mu, t_max, master = INF, 2, stbgeo(INF, 0.9, 1, 1), 1500, 11
    lanes = []

    def spy(diagonals, sign, top):
        lanes.extend((X.dtype, len(X)) for X, *_ in diagonals)
        exchange_map(diagonals, sign, top)

    monkeypatch.setattr(experiments, "exchange_map", spy)
    rec, = speed_estimate(J, K, mu, t_max=t_max, replicas=1, rng=master).per_replica
    assert _track(rec) == (163, 1662, 1368750)
    spec, nu = RngSpec(master, 0), classify_invariant(J, K, mu).dual
    chunk, window = experiments._DRAW_CHUNK, int(rec["window"])
    n_chunks = -(-window // chunk)
    sites = sample_pmf(mu, spec.stream("window"), n_chunks * chunk)
    sites[0], _ = _palm_pick(mu, spec)
    balls = (int(sample_pmf(nu, spec.stream("currents"), t_max).sum())
             + np.cumsum(sites.reshape(n_chunks, chunk).sum(axis=1)))
    dtypes = [exchange_form(J, K, int(b))[1] for b in balls]
    assert dtypes[0] == np.int16 and dtypes[-1] == np.int64
    assert lanes == [(dtypes[d // chunk], min(d + 1, t_max)) for d in range(n_chunks * chunk)]


def _signed_state(a, b, sign, dtype, lo):
    """The strip form at the sign s: occupancy -s (2a - lo), load s (2b - lo)."""
    return ((-sign * (2 * np.asarray(a) - lo)).astype(dtype),
            (sign * (2 * np.asarray(b) - lo)).astype(dtype))


def _map_signed(J, K, occ, load, q, t, sign, top):
    """One diagonal on the strip form at the sign s: the occupancy is X for
    J <= K (kernel sign s), the load is X for J > K (kernel sign -s)."""
    pair = (occ, load) if J <= K else (load, occ)
    exchange_map([(*pair, q, t)], sign if J <= K else -sign, top)


def _unsigned(occ, load, sign, lo):
    """(a, b) from the strip form at the sign -s, the sign after one map."""
    return list(zip(((sign * occ.astype(np.int64) + lo) >> 1).tolist(),
                    ((-sign * load.astype(np.int64) + lo) >> 1).tolist()))


@settings(max_examples=60)
@given(_CAPS, _CAPS, st.one_of(st.just(INF), st.integers(0, 2 ** 15)),
       st.sampled_from([1, -1]))
def test_empty_lane_is_a_fixed_point(J, K, balls, sign):
    # the doubled empty pair (-lo, -lo) maps to itself at either sign; two
    # diagonals in one call flip the sign twice
    lo, dtype, top = exchange_form(J, K, balls)
    X, Y, q, t = np.empty((4, 3), dtype=dtype)
    X[:], Y[:] = sign * lo, -sign * lo
    exchange_map([(X, Y, q, t)], sign, top)
    assert (X == -sign * lo).all() and (Y == sign * lo).all()
    exchange_map([(X, Y, q, t)] * 2, -sign, top)
    assert (X == -sign * lo).all() and (Y == sign * lo).all()


@settings(max_examples=80)
@given(_CAPS, _CAPS, st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)),
                              min_size=1, max_size=12), st.sampled_from([1, -1]))
def test_diagonal_map_equals_local_map(J, K, pairs, sign):
    pairs = [(min(a, J), min(b, K)) for a, b in pairs]
    a, b = (np.array(v, dtype=np.int64) for v in zip(*pairs))
    want = [local_map(J, K, p) for p in pairs]
    a2, b2 = local_map_array(J, K, a, b)
    assert a2.dtype == b2.dtype == np.int64
    assert list(zip(a2.tolist(), b2.tolist())) == want
    # the tracker's form at either sign: the occupancies on a slice of a
    # strip, the loads on lanes; no strip entry outside the slice is written
    m = len(pairs)
    lo, dtype, top = exchange_form(J, K)
    assert dtype == (np.int16 if is_finite(J) and is_finite(K) else np.int64)
    assert (top is None) == (is_finite(J) != is_finite(K))
    assert top is None or top.dtype == dtype
    strip, load, q, t = np.full((4, m + 2), -7, dtype=dtype)
    occ = strip[1:m + 1]
    occ[:], load[:m] = _signed_state(a, b, sign, dtype, lo)
    _map_signed(J, K, occ, load[:m], q[:m], t[:m], sign, top)
    assert _unsigned(occ, load[:m], sign, lo) == want
    assert strip[0] == strip[m + 1] == load[m] == q[m] == t[m] == -7


@pytest.mark.parametrize("K, dtype", [(2 ** 14 - 2, np.int16), (2 ** 14 - 1, np.int64)])
def test_exchange_dtype_edge(K, dtype):
    # J + K < 2**14 picks int16, and so does a ball count J + K at K = inf;
    # the extreme pairs give the extreme sums, and |X - Y| <= 2B at either
    # sign, B = J + K
    J, pairs = 1, [(1, K), (0, 0)]
    a, b = (np.array(v, dtype=np.int64) for v in zip(*pairs))
    for K_map, balls in ((K, INF), (INF, J + K)):
        lo, got_dtype, top = exchange_form(J, K_map, balls)
        assert got_dtype == dtype
        assert top is None if K_map == INF else top.dtype == dtype
        for sign in (1, -1):
            occ, load = _signed_state(a, b, sign, dtype, lo)
            q, t = np.empty((2, len(pairs)), dtype=dtype)
            _map_signed(J, K_map, occ, load, q, t, sign, top)
            assert _unsigned(occ, load, sign, lo) == [local_map(J, K_map, p) for p in pairs]
            assert np.abs(q.astype(np.int64)).max() <= 2 * (J + K)
    # without a ball count an infinite capacity stays int64; lo = K at
    # J = inf bounds the values from below whatever the ball count
    assert exchange_form(J, INF)[1] == np.int64
    assert exchange_form(INF, K + 1, 0)[1] == dtype


def test_exchange_clip_width_capped():
    # M = |J - K| past the int16 range with few balls: 2M is capped at
    # 2 (2**14 - lo), which the clip's argument 2 (a + b - lo) never reaches
    J, K, balls = 1, 2 ** 15, 2 ** 14 - 2
    lo, dtype, top = exchange_form(J, K, balls)
    assert dtype == np.int16 and int(top) == 2 * (2 ** 14 - lo)
    pairs = [(1, balls - 1), (0, balls), (1, 0), (0, 0), (1, 2)]
    a, b = (np.array(v, dtype=np.int64) for v in zip(*pairs))
    for sign in (1, -1):
        occ, load = _signed_state(a, b, sign, dtype, lo)
        _map_signed(J, K, occ, load, *np.empty((2, len(pairs)), dtype=dtype), sign, top)
        assert _unsigned(occ, load, sign, lo) == [local_map(J, K, p) for p in pairs]


def test_speed_jsonl_records():
    est = speed_estimate(1, 3, bernoulli(0.3), t_max=50, replicas=2, rng=4)
    recs = est.jsonl_records()
    assert recs[-1]["record"] == "summary"
    assert len(recs) == 3


def test_speed_estimate_is_unbiased_at_small_t_max():
    # a Palm-tagged ball moves t_max E nu / E mu in expectation at every
    # t_max, so a short run's estimate is within 4 standard errors of theory;
    # tagging the left-most ball at a site >= 1 instead puts these estimates
    # 9 to 54 standard errors off
    for J, K, mu in [(1, INF, bernoulli(0.25)), (3, 5, stbgeo(3, 0.5, 1, 1)),
                     (2, 4, stbgeo(2, 0.6, 1, 1)), (5, 3, bernoulli(0.3))]:
        est = speed_estimate(J, K, mu, t_max=10, replicas=2000, rng=1)
        if (J, K) == (5, 3):    # a + b <= 2 <= min(J, K): every ball moves one site a step
            assert est.std_error == 0 and est.ratio_estimate == est.theoretical
        else:
            z = (est.ratio_estimate - est.theoretical) / est.std_error
            assert abs(z) <= 4, (J, K, z)


def test_palm_step_mean_equals_speed_theory():
    # the exact one-step mean of a Palm ball is E nu / E mu (mass transport);
    # at K = inf nu is cut at 1e-13
    for J, K, mu, tol in [(3, 5, stbgeo(3, 0.5, 1, 1), 1e-12), (5, 3, bernoulli(0.3), 1e-12),
                          (4, 2, uniform(4), 1e-12), (2, 4, stbgeo(2, 0.6, 1, 1), 1e-12),
                          (1, INF, bernoulli(0.25), 1e-11)]:
        nu = classify_invariant(J, K, mu).dual
        theory = mean_occupancy(nu) / mean_occupancy(mu)
        assert abs(palm_step_mean(J, K, mu, nu) - theory) <= tol, (J, K)

