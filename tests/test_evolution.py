import numpy as np
import pytest

from boxball import (
    Config,
    Detect,
    IidInvariant,
    INF,
    SpaceTimeBlock,
    ZeroPad,
    bernoulli,
    current_column,
    duality_verify,
    evolve_block,
    inverse_step,
    sample_stationary_block,
    step,
    uniform,
)
from boxball.errors import (
    BoundaryNotReversible,
    InvalidCell,
    InvalidParams,
    OutOfWindow,
    Undetermined,
)
from boxball.evolution import DualityReport
from boxball.local_rules import local_map

from block_rows import block_from_rows
from paper_views import path_encode, pitman_M, same_occupancies, tagged_evolve, trim_zeros


def cfg(offset, cells, J, boundary=None):
    if boundary is None:
        return Config(offset, cells, J)
    return Config(offset, cells, J, boundary)


def random_zero_padded(rng, J, n_max=14):
    jmax = 5 if J == INF else J
    n = int(rng.integers(1, n_max))
    cells = tuple(int(v) for v in rng.integers(0, jmax + 1, n))
    return cfg(int(rng.integers(-5, 5)), cells, J)


REGIMES = [(2, 5), (3, 5), (1, INF), (3, INF), (2, 2), (4, 2), (INF, 3)]


# ---------------------------------------------------------------------------
# step / inverse_step
# ---------------------------------------------------------------------------


def test_step_examples():
    assert step(3, 4, cfg(1, (2, 1, 0), 3)).cells.tolist() == [0, 2, 1]
    assert step(1, INF, cfg(1, (1, 1, 0, 0), 1)).cells.tolist() == [0, 0, 1, 1]
    c = cfg(0, (2, 0, 1), 2)
    assert step(2, 2, c).cells.tolist() == [0, 2, 0, 1]  # right shift, drained


def test_step_inverse_round_trip_randomized():
    rng = np.random.default_rng(21)
    for J, K in REGIMES:
        for _ in range(60):
            c = random_zero_padded(rng, J)
            fwd = step(J, K, c)
            assert same_occupancies(inverse_step(J, K, fwd), c)
            back = inverse_step(J, K, c)
            assert same_occupancies(step(J, K, back), c)


def test_inverse_needs_reversible_boundary():
    c = cfg(0, (1, 0), 1, IidInvariant((1,)))
    with pytest.raises(BoundaryNotReversible):
        inverse_step(1, 2, c)


def test_step_pitman_path_identity():
    # path encoding of the update equals 2M - S - 2M0 on J < K windows
    rng = np.random.default_rng(5)
    for J, K in [(1, 3), (2, 5), (1, INF), (3, INF)]:
        for _ in range(40):
            c = random_zero_padded(rng, J)
            out = trim_zeros(step(J, K, c))
            p = path_encode(c)
            gap = INF if K == INF else 2 * (K - J)
            m2 = pitman_M(p, gap, left_init=-J)      # seed 0
            m2_0 = -J
            ts = tuple(2 * m - d - 2 * m2_0 for m, d in zip(m2, p.D))
            dec = path_encode(Config(c.offset, out_cells(c, out), c.J))
            assert ts == dec.D[: len(ts)]


def out_cells(c, out):
    """Occupancies of `out` on c's window extended to out's end."""
    hi = max(c.end, out.end)
    return tuple(out.at(n) for n in range(c.offset, hi + 1))


# ---------------------------------------------------------------------------
# blocks
# ---------------------------------------------------------------------------


def test_block_single_ball():
    c = cfg(1, (1,), 1)
    b = evolve_block(1, INF, c, 3)
    for t in range(4):
        row = b.config(t)
        assert int(row.cells.sum()) == 1
        assert row.at(1 + t) == 1
    assert all(v == 0 for v in b.left_currents)


def test_block_all_empty():
    b = evolve_block(2, 3, cfg(0, (0, 0, 0), 2), 3)
    assert all(int(b.config(t).cells.sum()) == 0 for t in range(4))


def test_block_j_equals_k_right_shifts():
    c = cfg(0, (2, 1, 0, 1), 2, IidInvariant((1, 2, 0, 1, 0)))
    b = evolve_block(2, 2, c, 4)
    for t in range(4):
        row = b.config(t)
        nxt = b.config(t + 1)
        assert nxt.cells[1:].tolist() == row.cells[:-1].tolist()
        assert nxt.cells[0] == b.left_currents[t]


def test_block_ball_conservation_zero_pad():
    rng = np.random.default_rng(9)
    for J, K in REGIMES:
        c = random_zero_padded(rng, J)
        b = evolve_block(J, K, c, 5)
        counts = {int(b.config(t).cells.sum()) for t in range(6)}
        assert len(counts) == 1


def test_block_holds_one_current_per_row():
    # the boundary alone gives the loads entering the rows
    rows = [(0, (1, 0, 2))] * 3
    for currents in ((1, 0), (1, 0, 2, 1)):
        with pytest.raises(InvalidParams, match="3 rows needs 3 currents"):
            SpaceTimeBlock.from_spans(2, 3, rows, rows, IidInvariant(currents))
    b = SpaceTimeBlock.from_spans(2, 3, rows, rows, IidInvariant((1, 0, 2)))
    assert b.left_currents == (1, 0, 2) and b.carrier(2).left_seed == 2
    assert SpaceTimeBlock.from_spans(2, 3, rows, rows, ZeroPad()).left_currents == (0, 0, 0)
    assert SpaceTimeBlock.from_spans(2, 3, rows, rows, Detect()).left_currents == (None,) * 3


def test_current_column_single_ball():
    c = cfg(1, (1,), 1)
    b = evolve_block(1, INF, c, 3)
    assert current_column(b, 0) == (0, 0, 0, 0)
    # mass passes a site right of all balls exactly once per soliton
    col = current_column(b, 2)
    assert sum(col) == 1


def test_current_column_out_of_window():
    b = evolve_block(1, 2, cfg(0, (1, 0), 1), 2)
    with pytest.raises(OutOfWindow):
        current_column(b, 99)


def test_duality_verify_exact_blocks():
    rng = np.random.default_rng(33)
    for J, K in REGIMES:
        for boundary in ("zero", "iid"):
            c = random_zero_padded(rng, J)
            if boundary == "iid":
                hi = 3 if K == INF else K
                cur = tuple(int(v) for v in rng.integers(0, hi + 1, 8))
                c = cfg(c.offset, c.cells, J, IidInvariant(cur))
            b = evolve_block(J, K, c, 6)
            rep = duality_verify(b)
            assert rep.violations == 0
            assert rep.cells_checked > 0


def test_duality_verify_detects_corruption():
    c = cfg(0, (1, 0, 1, 1, 0), 1)
    b = evolve_block(1, 2, c, 4)
    cfg2, w2 = b.rows[2]
    bad_cells = cfg2.cells.tolist()
    bad_cells[2] = 1 - bad_cells[2]
    bad_row = (Config(cfg2.offset, bad_cells, cfg2.J, cfg2.boundary), w2)
    rows = b.rows[:2] + (bad_row,) + b.rows[3:]
    bad = block_from_rows(b.J, b.K, rows)
    assert duality_verify(bad).violations >= 1


def reference_duality(b):
    """The duality check by definition: fold the scalar BBS(K, J) local map
    over every site n whose load and both occupancies at n + 1 are stored."""
    bad = checked = 0
    first = None
    for t in range(b.t_max):
        (cfg0, w0), cfg1 = b.rows[t], b.rows[t + 1][0]
        for n in range(w0.offset, w0.end + 1):
            if not (cfg0.offset <= n + 1 <= cfg0.end and cfg1.offset <= n + 1 <= cfg1.end):
                continue
            checked += 1
            if local_map(b.K, b.J, (w0.at(n), cfg0.at(n + 1)))[1] != cfg1.at(n + 1):
                bad += 1
                if first is None:
                    first = (n, t)
    return DualityReport(bad, checked, first)


def with_row(b, t, cells=None, loads=None):
    """b with the cells or the loads of row t replaced; the new values reach
    the block constructor's own checks unconverted."""
    occ = [(c.offset, c.cells) for c, _ in b.rows]
    load = [(w.offset, w.values) for _, w in b.rows]
    if cells is not None:
        occ[t] = (occ[t][0], cells)
    if loads is not None:
        load[t] = (load[t][0], loads)
    return SpaceTimeBlock.from_spans(b.J, b.K, occ, load, b.boundary)


DUAL_CAPS = [1, 2, 3, 5, INF]


def duality_blocks(rng):
    """Stationary, zero-padded and Detect blocks over every capacity pair."""
    for J, K, mu in [(3, 2, uniform(3)), (2, 2, uniform(2)), (2, 4, uniform(2)),
                     (1, INF, bernoulli(0.25))]:
        yield sample_stationary_block(J, K, mu, 80, 6, int(rng.integers(1000)))[0]
    for J in DUAL_CAPS:
        for K in DUAL_CAPS:
            if J == K == INF:
                continue
            for _ in range(3):
                c = random_zero_padded(rng, J, n_max=30)
                yield evolve_block(J, K, c, 5)
                try:
                    yield evolve_block(J, K, cfg(1, c.cells.tolist() * 2, J, Detect()), 3)
                except Undetermined:
                    pass


def test_duality_verify_equals_reference_fold():
    rng = np.random.default_rng(17)
    shrinking = 0
    for b in duality_blocks(rng):
        shrinking += b.config(b.t_max).offset > b.config(0).offset
        assert duality_verify(b) == reference_duality(b)
        # corrupt one to three loads or occupancies of a row, within range
        for _ in range(4):
            t = int(rng.integers(b.t_max + 1))
            cfg0, w0 = b.rows[t]
            on_loads = rng.random() < 0.5
            vals = (w0.values if on_loads else cfg0.cells).tolist()
            top = 5 if (b.K if on_loads else b.J) == INF else (b.K if on_loads else b.J)
            for i in rng.integers(len(vals), size=int(rng.integers(1, 4))):
                vals[i] = int(rng.integers(top + 1))
            bad = with_row(b, t, loads=vals) if on_loads else with_row(b, t, cells=vals)
            assert duality_verify(bad) == reference_duality(bad)
    assert shrinking > 0


def test_block_rejects_invalid_loads():
    # the block constructor decides every range, so duality_verify checks none
    b = evolve_block(2, 3, cfg(0, (2, 1, 0, 2, 1), 2), 3)
    assert not (b.occ.flags.writeable or b.load.flags.writeable)
    w0 = b.carrier(1)
    for v in (4, -1):
        loads = w0.values.tolist()
        loads[2] = v
        with pytest.raises(InvalidCell, match=f"load {v} outside"):
            with_row(b, 1, loads=loads)
    rows = [(0, (1, 0, 2))] * 2
    for v in (4, -1):
        with pytest.raises(InvalidCell, match=f"current {v} outside"):
            SpaceTimeBlock.from_spans(2, 3, rows, rows, IidInvariant((1, v)))
    with pytest.raises(InvalidParams, match="K must be"):
        SpaceTimeBlock.from_spans(2, 0, rows, rows, ZeroPad())
    binf = evolve_block(1, INF, cfg(0, (1, 0, 1, 1), 1), 2)
    loads = binf.carrier(0).values.tolist()
    loads[1] = -1
    with pytest.raises(InvalidCell, match="load -1 outside"):
        with_row(binf, 0, loads=loads)
    for v in (1.0, 1.7, "1"):
        loads[1] = v
        with pytest.raises(InvalidCell, match="must be integers"):
            with_row(binf, 0, loads=loads)


def test_intertwining_column_shift():
    # one extra time step shifts the current column by one
    rng = np.random.default_rng(4)
    for J, K in [(1, 2), (3, 5), (2, 2), (4, 2)]:
        c = random_zero_padded(rng, J)
        b1 = evolve_block(J, K, c, 6)
        b2 = evolve_block(J, K, step(J, K, c), 5)
        n = c.offset - 1
        col1 = current_column(b1, n)
        col2 = current_column(b2, n)
        assert col1[1:] == col2


# ---------------------------------------------------------------------------
# tagged dynamics
# ---------------------------------------------------------------------------


def test_tagged_fifo_pair():
    traj, final = tagged_evolve(1, INF, cfg(1, (1, 1), 1), 1)
    assert traj == [(1, 1), (3, 1)]
    assert final == [[], [], [1], [2]]       # sites 1..4


def test_tagged_swap_with_finite_carrier():
    traj, final = tagged_evolve(2, 1, cfg(1, (2, 0), 2), 1)
    assert traj == [(1, 1), (1, 1)]          # ball 1 stays
    assert final == [[1], [2]]               # ball 2 carried one site


def test_tagged_j_equals_k_moves_every_ball():
    traj, final = tagged_evolve(2, 2, cfg(0, (2, 1), 2), 1, tracked=3)
    assert final == [[], [1, 2], [3]]        # sites 0..2
    assert traj[-1] == (2, 1)


def test_tagged_occupancy_agreement_and_order():
    rng = np.random.default_rng(17)
    for J, K in [(1, INF), (2, 1), (3, 4), (2, 2)]:
        for _ in range(30):
            c = random_zero_padded(rng, J, n_max=10)
            if int(c.cells.sum()) == 0 or all(c.at(n) == 0 for n in range(max(1, c.offset), c.end + 1)):
                continue
            traj, final = tagged_evolve(J, K, c, 3)
            expect = c
            for _ in range(3):
                expect = step(J, K, expect)
            assert same_occupancies(Config(c.offset, [len(ids) for ids in final], c.J), expect)
            # order preservation: positions sorted by ball index
            placed = []
            for n, ids in enumerate(final, c.offset):
                for rank, ball in enumerate(ids):
                    placed.append((ball, (n, rank)))
            placed.sort()
            coords = [pos for _, pos in placed]
            assert coords == sorted(coords)


def test_tagged_with_injected_balls():
    c = cfg(1, (0, 1, 0, 0, 0, 0, 0, 0), 1, IidInvariant((1, 1, 0)))
    traj, final = tagged_evolve(1, INF, c, 3)
    assert traj[0] == (2, 1)
    sites = [p[0] for p in traj]
    assert sites == sorted(sites)  # balls only move right
    # injected balls carry lower indices and stay behind the tracked one
    tracked_site = traj[-1][0]
    for n, ids in enumerate(final, c.offset):
        for ball in ids:
            if ball < 1:
                assert n <= tracked_site


def test_tagged_errors():
    with pytest.raises(ValueError, match="no ball at any site >= 1"):
        tagged_evolve(1, 2, cfg(1, (0, 0), 1), 1)
    with pytest.raises(ValueError, match="not in the window"):
        tagged_evolve(1, INF, cfg(1, (1,), 1, IidInvariant((0, 0, 0))), 3)
