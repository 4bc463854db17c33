import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from boxball import (
    Config,
    Detect,
    IidInvariant,
    INF,
    SeedReport,
    canonical_carrier,
    detect_seed,
    evolve_block,
    inverse_step,
    local_map,
    step,
    sweep,
    sweep_row,
)
from boxball.errors import FloorTooLarge, InvalidCell, InvalidParams, Undetermined

from paper_views import carrier_from_path, path_encode, pitman_M, verify_carrier


def cfg(offset, cells, J, boundary=None):
    if boundary is None:
        return Config(offset, cells, J)
    return Config(offset, cells, J, boundary)


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_sweep_examples():
    w, out = sweep(3, 4, cfg(1, (2, 1, 0), 3), 0)
    assert w.values.tolist() == [2, 1, 0] and out.cells.tolist() == [0, 2, 1]

    w, out = sweep(1, INF, cfg(1, (1, 1, 0, 0), 1), 0)
    assert w.values.tolist() == [1, 2, 1, 0] and out.cells.tolist() == [0, 0, 1, 1]

    c = cfg(0, (2, 0, 1, 2), 2)
    w, out = sweep(2, 2, c, 1)
    assert w.values.tolist() == c.cells.tolist()    # J = K: the window is its own carrier
    assert out.cells.tolist() == [1] + c.cells[:-1].tolist()


def test_sweep_conservation_and_consistency():
    rng = np.random.default_rng(7)
    for J, K in [(3, 4), (4, 2), (2, 2), (1, INF), (3, 5)]:
        hi = 40 if K == INF else K
        for _ in range(50):
            cells = tuple(int(v) for v in rng.integers(0, (J if J != INF else 6) + 1, 12))
            seed = int(rng.integers(0, min(hi, 6) + 1))
            c = cfg(-3, cells, J)
            w, out = sweep(J, K, c, seed)
            prev = seed
            for n in range(c.offset, c.end + 1):
                assert c.at(n) + prev == out.at(n) + w.at(n)
                prev = w.at(n)
            assert verify_carrier(J, K, c, w)


def test_sweep_drain_conserves_balls():
    c = cfg(0, (0, 1, 1), 1)
    w, out = sweep(1, INF, c, 0, drain=True)
    assert sum(out.cells) == 2
    assert out.cells.tolist() == [0, 0, 0, 1, 1]
    assert w.values[-1] == 0


# ---------------------------------------------------------------------------
# reflected-path transform
# ---------------------------------------------------------------------------


def test_pitman_running_max_example():
    c = cfg(1, (1, 1, 0, 0), 1)
    p = path_encode(c)
    m2 = pitman_M(p, INF, left_init=-1)
    assert m2 == (-1, -1, -1, -1)
    assert carrier_from_path(p, m2, 1) == (1, 2, 1, 0)


def test_pitman_constant_on_half_filled_window():
    c = cfg(0, (1, 1, 1), 2)  # J even, cells at J/2: flat path
    p = path_encode(c)
    for gap in (2, 6, INF):
        m2 = pitman_M(p, gap, left_init=0)
        assert len(set(m2)) == 1


def test_pitman_snaps_after_fluctuation():
    c = cfg(1, (0, 0, 0), 2)
    p = path_encode(c)
    m2 = pitman_M(p, 2 * (4 - 2), left_init=-1000)
    dt = p.dtilde()
    assert m2[-1] == dt[-1]  # clamped up to the running average


def test_pitman_parity_violation():
    c = cfg(1, (1, 0), 1)
    p = path_encode(c)
    with pytest.raises(ValueError, match="non-integral"):
        carrier_from_path(p, pitman_M(p, INF, left_init=0), 1)  # wrong parity


def sweep_vs_pitman(J, K, cells, seed):
    c = cfg(0, cells, J)
    w_sweep, _ = sweep(J, K, c, seed)
    p = path_encode(c)
    gap = INF if K == INF else 2 * (K - J)
    m2 = pitman_M(p, gap, left_init=2 * seed - J)
    return w_sweep.values.tolist(), list(carrier_from_path(p, m2, J))


def test_sweep_pitman_agreement():
    rng = np.random.default_rng(11)
    for J, K in [(1, 2), (2, 5), (3, 4), (1, INF), (3, INF)]:
        for _ in range(100):
            cells = tuple(int(v) for v in rng.integers(0, J + 1, 15))
            seed = int(rng.integers(0, J + 2))
            a, b = sweep_vs_pitman(J, K, cells, seed)
            assert a == b


CAPS = (1, 2, 3, 5, INF)


def local_map_fold(J, K, cells, seed):
    """The defining recursion, one local map per cell: (loads, T eta)."""
    w, loads, out = seed, [], []
    for v in cells:
        v2, w = local_map(J, K, (v, w))
        out.append(v2)
        loads.append(w)
    return tuple(loads), tuple(out)


def flat_window(J, K, n):
    """A window whose composed carrier maps never become constant: half
    filled boxes for finite J, boxes holding K balls for J = inf."""
    if J == INF:
        return (K,) * n
    return ((J // 2, (J + 1) // 2) * n)[:n]


def assert_kernel_matches_fold(J, K, cells, seed):
    want = local_map_fold(J, K, cells, seed)
    wf, tf = sweep_row(J, K, np.array(cells), seed)
    assert (tuple(wf.tolist()), tuple(tf.tolist())) == want
    w, out = sweep(J, K, cfg(0, cells, J), seed)
    assert (tuple(w.values.tolist()), tuple(out.cells.tolist())) == want


def test_sweep_row_matches_sweep_all_regimes():
    rng = np.random.default_rng(13)
    for J in CAPS:
        for K in CAPS:
            if J == K == INF:
                continue
            jmax = 6 if J == INF else J
            for i in range(20):
                n = int(2 ** rng.uniform(0, 8.2))  # 1 to ~300 sites, log-uniform
                if i < 2:
                    cells = flat_window(J, K, n)
                else:
                    cells = tuple(int(v) for v in rng.integers(0, jmax + 1, n))
                seed = int(rng.integers(0, (6 if K == INF else K) + 1))
                assert_kernel_matches_fold(J, K, cells, seed)


# ---------------------------------------------------------------------------
# seed detection
# ---------------------------------------------------------------------------


def test_detect_seed_examples():
    rep = detect_seed(3, 2, cfg(1, (1, 0, 2), 3))
    assert rep.position == 2 and rep.forced_value == 0

    # loads 0 and 4 entering (2,4) both reach 0 after two empty boxes
    rep = detect_seed(2, 4, cfg(1, (0, 0, 0), 2))
    assert rep.position == 2 and rep.forced_value == 0

    assert detect_seed(1, INF, cfg(0, (1, 0, 1, 1), 1)) is None

    rep = detect_seed(2, 2, cfg(5, (1, 0), 2))
    assert rep.position == 5 and rep.forced_value == 1


def test_detect_seed_full_rule():
    rep = detect_seed(3, 2, cfg(0, (1, 3, 0), 3))
    assert rep.position == 1 and rep.forced_value == 2


def test_detect_floor_validation():
    with pytest.raises(FloorTooLarge):
        detect_seed(3, 2, cfg(0, (1,), 3), floor=1)
    with pytest.raises(FloorTooLarge):
        detect_seed(2, 4, cfg(0, (1,), 2), floor=1)
    with pytest.raises(FloorTooLarge, match="floor must be >= 0, got -1"):
        detect_seed(3, 5, cfg(0, (1,), 3), floor=-1)
    # every cell must lie in the floor band [r, J - r], in every regime
    for J, K, cells in [(4, 3, (1, 0, 2)), (4, 3, (2, 4)), (3, 5, (1, 3)),
                        (3, 5, (0, 2)), (3, INF, (2, 0)), (INF, 3, (0, 5))]:
        with pytest.raises(InvalidCell):
            detect_seed(J, K, cfg(0, cells, J), floor=1)
    with pytest.raises(InvalidCell):
        canonical_carrier(3, 5, cfg(0, (1, 3, 2), 3, Detect(1)))
    # J < K = inf Detect rows pass the same checks, though nothing is forced
    below = cfg(0, (0, 3, 0, 3, 1, 0, 0, 2), 3, Detect(1))
    with pytest.raises(InvalidCell):
        canonical_carrier(3, INF, below)
    with pytest.raises(InvalidCell):
        evolve_block(3, INF, below, 1)
    assert detect_seed(3, 5, cfg(0, (1, 1, 1), 3), floor=1) == SeedReport(2, 1)


def band_fold(J, K, cells, r):
    """The set of loads after each site over every seed in [r, K - r]."""
    loads = set(range(r, K - r + 1))
    out = []
    for v in cells:
        loads = {local_map(J, K, (v, w))[1] for w in loads}
        out.append(loads)
    return out


def paper_seed(J, K, cells, r):
    """The paper's forcing rules, kept as the reference for detect_seed:
    (index, value) or None.  J > K: an occupancy at a floor-band edge pins
    the load there.  J < K < inf: once the doubled two-point path average
    fluctuates by more than 2(K - J) the reflected path snaps to a fresh
    extreme (this rule ignores r).  J = K: the window supplies the carrier."""
    if J == K:
        return 0, cells[0]
    if J > K:
        for i, v in enumerate(cells):
            if v == r:
                return i, r
            if v == J - r:
                return i, K - r
        return None
    dtil = path_encode(cfg(0, cells, J)).dtilde()
    lo = hi = dtil[0]
    for i, s in enumerate(dtil):
        lo, hi = min(lo, s), max(hi, s)
        if hi - lo > 2 * (K - J):
            return i, cells[i] if s == hi else cells[i] + K - J
    return None


def random_band_window(rng, J, r):
    n = int(rng.integers(1, 12))
    top = J - r if J != INF else r + 6
    return tuple(int(v) for v in rng.integers(r, top + 1, n))


def test_detect_seed_soundness_brute_force():
    """The reported position is the first where every carrier entering
    from the floor band carries one load, and that load is reported."""
    rng = np.random.default_rng(3)
    for J in [1, 2, 3, 4, 5, INF]:
        for K in [1, 2, 3, 4, 5, INF]:
            for r in range(3):
                if J == K == INF or min(J, K) <= 2 * r:
                    continue
                for _ in range(40):
                    cells = random_band_window(rng, J, r)
                    rep = detect_seed(J, K, cfg(4, cells, J), floor=r)
                    if J < K == INF:
                        assert rep is None
                        continue
                    fold = band_fold(J, K, cells, r)
                    first = next((i for i, s in enumerate(fold) if len(s) == 1), None)
                    if first is None:
                        assert rep is None, (J, K, r, cells)
                    else:
                        got = (rep.position, {rep.forced_value})
                        assert got == (4 + first, fold[first]), (J, K, r, cells, rep)


def test_detect_seed_never_later_than_paper_rule():
    """Against the paper's rules: the kernel forces no later, and its
    carrier takes the paper's value at the paper's position."""
    rng = np.random.default_rng(11)
    cases = [(J, K, r) for J in [1, 2, 3, 4, 5, INF] for K in [1, 2, 3, 4, 5]
             for r in range(3) if min(J, K) > 2 * r]
    compared = 0
    for J, K, r in cases:
        for _ in range(60):
            cells = random_band_window(rng, J, r)
            c = cfg(0, cells, J, Detect(r))
            paper = paper_seed(J, K, cells, r)
            if paper is None:
                continue
            rep = detect_seed(J, K, c, floor=r)
            assert rep is not None and rep.position <= paper[0], (J, K, r, cells)
            assert canonical_carrier(J, K, c).at(paper[0]) == paper[1], (J, K, r, cells)
            compared += 1
    assert compared > 1000


# ---------------------------------------------------------------------------
# canonical carrier
# ---------------------------------------------------------------------------


def test_canonical_zero_pad_all_regimes():
    for J, K in [(3, 4), (4, 2), (2, 2), (1, INF)]:
        c = cfg(0, (1, 0, 1), J)
        w = canonical_carrier(J, K, c)
        assert w.left_seed == 0
        assert verify_carrier(J, K, c, w)


def test_canonical_detect_propagates_from_seed():
    c = cfg(1, (1, 0, 2), 3, Detect(0))
    w = canonical_carrier(3, 2, c)
    assert w.offset == 2 and w.left_seed is None
    assert w.values[0] == 0
    assert w.values[1] == local_map(3, 2, (2, 0))[1] == 2


def test_canonical_supplied_seed():
    c = cfg(0, (1, 0, 1), 1, IidInvariant((1,)))
    w = canonical_carrier(1, 2, c)
    assert w.left_seed == 1
    c = cfg(0, (1, 0, 1), 1, IidInvariant((1, 0)))
    assert canonical_carrier(1, 2, c).left_seed == 1
    assert canonical_carrier(1, 2, c, t=1).left_seed == 0


def test_seeded_rows_validate_K():
    # a K that is neither a positive integer nor inf is a parameter error,
    # not a seed outside [0, K] or a row with all-zero loads
    for boundary in (None, IidInvariant((1, 1, 1)), IidInvariant((1, 0))):
        c = cfg(0, (1, 0, 2), 2, boundary)
        for K in (0, -1, 2.5, True):
            for call in (lambda: evolve_block(2, K, c, 2), lambda: step(2, K, c),
                         lambda: sweep(2, K, c, 0), lambda: canonical_carrier(2, K, c)):
                with pytest.raises(InvalidParams, match="K must be"):
                    call()


def test_j_mismatch_is_a_parameter_error():
    # the J of the call and of the window disagree: InvalidParams everywhere
    c = cfg(0, (1, 0, 2), 2)
    for call in (lambda: step(3, 4, c), lambda: inverse_step(3, 4, c),
                 lambda: canonical_carrier(3, 4, c), lambda: evolve_block(3, 4, c, 2)):
        with pytest.raises(InvalidParams, match="config carries J=2, got J=3"):
            call()


def test_seed_outside_capacity_is_an_invalid_cell():
    with pytest.raises(InvalidCell, match=r"seed 4 outside \[0, 3\]"):
        step(2, 3, Config(1, (1, 0), 2, IidInvariant((4,))))


def test_canonical_undetermined():
    c = cfg(0, (1, 1, 1, 1), 2, Detect(0))  # constant average, no forcing
    with pytest.raises(Undetermined):
        canonical_carrier(2, 4, c)


def test_canonical_running_max_undetermined():
    # J < K = inf: the carrier is a running maximum over the unbounded past,
    # so no Detect window forces it, however long
    for J, cells in [(1, (1, 0, 1, 0, 1, 0, 0, 1) * 8), (3, (3, 0, 2, 3, 1, 0, 3, 2) * 8)]:
        c = cfg(0, cells, J, Detect(0))
        for call in (lambda: canonical_carrier(J, INF, c), lambda: step(J, INF, c),
                     lambda: inverse_step(J, INF, c), lambda: evolve_block(J, INF, c, 1)):
            with pytest.raises(Undetermined, match="running maximum over the unbounded past"):
                call()


def test_verify_carrier_on_flat_window():
    # eta = 1, carrier = 1 on (2,4): the swept carrier holds at every site
    c = cfg(0, (1, 1, 1, 1), 2)
    w, _ = sweep(2, 4, c, 1)
    assert verify_carrier(2, 4, c, w)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(CAPS), st.sampled_from(CAPS),
       st.lists(st.integers(0, 6), min_size=1, max_size=300),
       st.integers(0, 6), st.booleans())
def test_sweep_row_agreement_property(J, K, cells, seed, flat):
    assume(not J == K == INF)
    cells = flat_window(J, K, len(cells)) if flat else tuple(min(v, J) for v in cells)
    assert_kernel_matches_fold(J, K, cells, min(seed, K))
