import numpy as np
import pytest
from hypothesis import given, strategies as st

from boxball import (
    CarrierPath,
    Config,
    INF,
    config_from_text,
    reverse,
)
from boxball.errors import InvalidCell, InvalidParams
from boxball.lattice import Detect, IidInvariant, ZeroPad

from paper_views import label_balls, path_decode, path_encode, same_occupancies, trim_zeros


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
            assert cfg(0, cells, J).cells.tolist() == list(cells)
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
    assert cfg(0, (10 ** 6, 0), INF).cells.tolist() == [10 ** 6, 0]


def _raised(kind, f):
    with pytest.raises(kind) as err:
        f()
    return str(err.value)


def test_tuple_list_and_array_constructors_agree():
    rng = np.random.default_rng(3)
    for J in (1, 2, 5, 12, INF):
        for n in (1, 7, 300):
            arr = rng.integers(0, 13 if J == INF else J + 1, n)
            for boundary in (ZeroPad(), Detect(1), IidInvariant((1, 0))):
                ref = Config(-4, tuple(arr.tolist()), J, boundary)
                for cells in (arr.tolist(), arr.astype(np.int64), arr.astype(np.int32)):
                    c = Config(-4, cells, J, boundary)
                    assert c == ref and hash(c) == hash(ref)
                    assert c.cells.dtype == np.int64 and c.cells.tolist() == arr.tolist()
        # an out-of-range cell or an empty window raises alike from every form
        for cells in ([0, -1, 3], [J + 1 if J != INF else -2, 0]):
            got = {_raised(InvalidCell, lambda: Config(0, form, J)) for form in (
                tuple(cells), cells, np.array(cells, dtype=np.int64),
                np.array(cells, dtype=np.int32))}
            assert got == {f"cell value {cells[0] or cells[1]} outside [0, {J}]"}
        for empty in ((), [], np.zeros(0, dtype=np.int64)):
            with pytest.raises(InvalidParams, match="non-empty"):
                Config(0, empty, J)
    with pytest.raises(InvalidParams):
        Config(0, np.zeros(3, dtype=np.int64), 0)
    # windows differing in offset, J, boundary or one cell differ
    c = Config(0, (1, 2), 2)
    for other in (Config(1, (1, 2), 2), Config(0, (1, 2), 3), Config(0, (1, 1), 2),
                  Config(0, (1, 2), 2, Detect()), Config(0, (1, 2, 0), 2)):
        assert c != other
    # a non-integer array is checked cell by cell
    with pytest.raises(InvalidCell, match="cell value 1.5 outside"):
        Config(0, np.array([1.5]), 2)


def test_windows_are_read_only_copies():
    arr = np.array([1, 0, 2], dtype=np.int64)
    c = Config(0, arr, 2)
    w = CarrierPath(0, arr, None)
    for held in (c.cells, w.values):
        assert not held.flags.writeable
        with pytest.raises(ValueError):
            held[0] = 0
    arr[:] = 0
    assert c.cells.tolist() == [1, 0, 2] and w.values.tolist() == [1, 0, 2]
    assert c == Config(0, (1, 0, 2), 2) and w == CarrierPath(0, (1, 0, 2), None)


def test_cells_past_int64_raise_invalid_cell():
    big = 10 ** 30
    assert _raised(InvalidCell, lambda: Config(0, (big, 0), INF)) == \
        f"cell value {big} does not fit in int64"
    assert _raised(InvalidCell, lambda: Config(0, (0, big), 3)) == \
        f"cell value {big} outside [0, 3]"
    huge = np.array([2 ** 63], dtype=np.uint64)
    assert _raised(InvalidCell, lambda: Config(0, huge, INF)) == \
        f"cell value {2 ** 63} does not fit in int64"
    with pytest.raises(InvalidCell):
        CarrierPath(0, (0, -2 ** 63 - 1), None)
    assert CarrierPath(0, (-2 ** 63, 2 ** 63 - 1), None).values.tolist() == [-2 ** 63, 2 ** 63 - 1]


def test_text_round_trip():
    assert config_from_text("-2:2,0,1", 3) == cfg(-2, (2, 0, 1), 3)
    with pytest.raises(InvalidParams):
        config_from_text("1:2,inf", 3)


def test_path_encode_examples():
    assert path_encode(cfg(1, (1, 1, 0, 0), 1)).D == (-2, -4, -2, 0)
    assert path_encode(cfg(1, (0, 0), 3)).D == (6, 12)
    assert path_encode(cfg(1, (1,), 2)).D == (0,)
    with pytest.raises(ValueError, match="finite J"):
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
    assert rc.offset == -2 and rc.cells.tolist() == [1, 0, 2]
    single = cfg(0, (2,), 2)
    assert reverse(single).offset == 1
    assert reverse(reverse(c)) == c


def test_label_balls():
    c = cfg(1, (2, 0, 1), 2)
    assert label_balls(c) == [[1, 2], [], [3]]     # sites 1, 2, 3
    assert label_balls(cfg(5, (0, 0), 1)) == [[], []]
    assert label_balls(cfg(1, (0, 3), 3)) == [[], [1, 2, 3]]


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
