import numpy as np
import pytest
from hypothesis import given, strategies as st

from boxball import (
    Config,
    INF,
    config_from_text,
    label_balls,
    path_decode,
    path_encode,
    reverse,
    shift,
)
from boxball.errors import InvalidCell, InvalidParams, JInfinite
from boxball.lattice import Detect, IidInvariant, ZeroPad, same_occupancies, trim_zeros


def cfg(offset, cells, J):
    return Config(offset, tuple(cells), J)


def test_construction_validates():
    with pytest.raises(InvalidCell):
        cfg(0, (2,), 1)
    with pytest.raises(InvalidParams):
        Config(0, (), 3)
    with pytest.raises(InvalidParams):
        cfg(0, (0,), 0)
    c = cfg(0, (3, 1, 4), INF)
    assert c.at(2) == 4 and c.at(99) == 0


def test_construction_validation_edge_cases():
    # bools are ints and pass; numpy scalars, floats and out-of-range values
    # are rejected naming the first offending cell
    for J in (1, 3, INF):
        for cells in [(True,), (0, 1, True), (False, 0), (1, 0, 1)]:
            assert cfg(0, cells, J).cells == cells
        for cells, bad in [((np.int64(1),), "np.int64(1)"), ((0, np.int64(1)), "np.int64(1)"),
                           ((-1,), "-1"), ((1, 1.0), "1.0"), ((0, "1"), "'1'"),
                           ((1, None, -1), "None")]:
            with pytest.raises(InvalidCell) as err:
                cfg(0, cells, J)
            assert str(err.value) == f"cell value {bad} outside [0, {J}]"
    for J in (1, 3):
        with pytest.raises(InvalidCell) as err:
            cfg(0, (0, J, J + 1, -1), J)
        assert str(err.value) == f"cell value {J + 1} outside [0, {J}]"
    assert cfg(0, (10 ** 6, 0), INF).cells == (10 ** 6, 0)


def _raised(kind, f):
    with pytest.raises(kind) as err:
        f()
    return str(err.value)


def test_from_array_matches_tuple_constructor():
    rng = np.random.default_rng(3)
    for J in (1, 2, 5, 12, INF):
        for n in (1, 7, 300):
            arr = rng.integers(0, 13 if J == INF else J + 1, n)
            for boundary in (ZeroPad(), Detect(1), IidInvariant((1, 0))):
                c = Config.from_array(-4, arr, J, boundary)
                ref = Config(-4, tuple(arr.tolist()), J, boundary)
                assert c == ref and hash(c) == hash(ref) and c.cells == ref.cells
                assert all(type(v) is int for v in c.cells)
        assert Config.from_array(2, np.array([0]), J) == Config(2, (0,), J)
        # an out-of-range cell or an empty window raises as the tuple form does
        for cells in ([0, -1, 3], [J + 1 if J != INF else -2, 0]):
            arr = np.array(cells, dtype=np.int64)
            got = _raised(InvalidCell, lambda: Config.from_array(0, arr, J))
            assert got == _raised(InvalidCell, lambda: Config(0, tuple(cells), J))
            assert got.startswith(f"cell value {cells[0] or cells[1]} outside")
        with pytest.raises(InvalidParams, match="non-empty"):
            Config.from_array(0, np.zeros(0, dtype=np.int64), J)
    with pytest.raises(InvalidParams):
        Config.from_array(0, np.zeros(3, dtype=np.int64), 0)
    # a non-int64 array goes through the tuple constructor's checks
    assert Config.from_array(0, np.array([1, 2], dtype=np.int32), 2) == Config(0, (1, 2), 2)
    with pytest.raises(InvalidCell, match="cell value 1.5 outside"):
        Config.from_array(0, np.array([1.5]), 2)


def test_text_round_trip():
    c = cfg(-2, (2, 0, 1), 3)
    assert c.text() == "-2:2,0,1"
    assert config_from_text(c.text(), 3) == c
    with pytest.raises(InvalidParams):
        config_from_text("1:2,inf", 3)


def test_path_encode_examples():
    assert path_encode(cfg(1, (1, 1, 0, 0), 1)).D == (-2, -4, -2, 0)
    assert path_encode(cfg(1, (0, 0), 3)).D == (6, 12)
    assert path_encode(cfg(1, (1,), 2)).D == (0,)
    with pytest.raises(JInfinite):
        path_encode(cfg(1, (1,), INF))


def test_path_round_trip():
    for cells, J in [((1, 1, 0, 0), 1), ((0, 0), 3), ((1,), 2), ((3, 0, 2, 1), 3)]:
        c = cfg(-1, cells, J)
        assert path_decode(path_encode(c), J) == c


def test_dtilde_is_integral_for_odd_and_even_J():
    for J in (1, 2, 3, 4, 5):
        c = cfg(0, tuple(i % (J + 1) for i in range(7)), J)
        p = path_encode(c)
        dt = p.dtilde()
        assert len(dt) == len(c)
        prev = 0
        for d, t in zip(p.D, dt):
            assert 2 * t == prev + d
            prev = d


def test_reverse_examples():
    c = cfg(1, (2, 0, 1), 3)
    rc = reverse(c)
    assert rc.offset == -2 and rc.cells == (1, 0, 2)
    single = cfg(0, (2,), 2)
    assert reverse(single).offset == 1
    assert reverse(reverse(c)) == c


def test_shift():
    c = cfg(3, (1, 0), 1)
    assert shift(c, 2).offset == 1
    assert shift(c, -5).offset == 8
    assert shift(shift(c, 4), -4) == c


def test_reverse_shift_commutation():
    # R theta = theta^{-1} R at the window level
    c = cfg(-1, (1, 2, 0, 2), 2)
    assert reverse(shift(c, 3)) == shift(reverse(c), -3)


def test_label_balls():
    c = cfg(1, (2, 0, 1), 2)
    lab = label_balls(c)
    assert lab.site(1) == (1, 2)
    assert lab.site(2) == ()
    assert lab.site(3) == (3,)
    assert lab.total() == 3
    assert label_balls(cfg(5, (0, 0), 1)).total() == 0
    assert label_balls(cfg(1, (0, 3), 3)).site(2) == (1, 2, 3)


def test_zero_pad_helpers():
    a = cfg(0, (0, 1, 2, 0), 2)
    b = cfg(1, (1, 2), 2)
    assert same_occupancies(a, b)
    assert trim_zeros(a) == b


@given(st.integers(1, 4), st.lists(st.integers(0, 4), min_size=1, max_size=20),
       st.integers(-10, 10))
def test_path_bijection_property(J, cells, offset):
    cells = tuple(min(v, J) for v in cells)
    c = Config(offset, cells, J)
    assert path_decode(path_encode(c), J) == c
