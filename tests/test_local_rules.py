import itertools

import pytest
from hypothesis import given, strategies as st

from boxball import INF, local_map
from boxball.errors import InvalidCell

from paper_views import Case, local_case, reduced_map, sigma_dual


def small_grid(j_max=6, k_max=6, inf_cells=40):
    """All (J, K, a, b) with finite capacities <= j_max/k_max, plus infinite
    capacities with the unbounded coordinate truncated at inf_cells."""
    for J in range(1, j_max + 1):
        for K in range(1, k_max + 1):
            for a in range(J + 1):
                for b in range(K + 1):
                    yield J, K, a, b
    for J in range(1, j_max + 1):
        for a in range(J + 1):
            for b in range(inf_cells + 1):
                yield J, INF, a, b
    for K in range(1, k_max + 1):
        for a in range(inf_cells + 1):
            for b in range(K + 1):
                yield INF, K, a, b


def test_examples_from_hand_computation():
    assert local_map(3, 4, (1, 2)) == (2, 1)
    assert local_map(5, 7, (4, 4)) == (2, 6)
    assert local_map(3, 4, (3, 2)) == (1, 4)
    # J = K swaps the coordinates
    for a, b in itertools.product(range(4), repeat=2):
        assert local_map(3, 3, (a, b)) == (b, a)


def test_case_tags():
    assert local_case(3, 4, (1, 2)) == Case.ONE
    assert local_case(3, 4, (2, 2)) == Case.TWO_A
    assert local_case(3, 4, (3, 2)) == Case.THREE
    assert local_case(4, 2, (3, 1)) == Case.TWO_B
    # boundary overlap resolves to the lowest case number
    assert local_case(2, 2, (1, 1)) == Case.ONE


def test_case_formulas_match_map():
    for J, K, a, b in small_grid(5, 5, 12):
        got = local_map(J, K, (a, b))
        case = local_case(J, K, (a, b))
        if case == Case.ONE:
            assert got == (b, a)
        elif case == Case.TWO_A:
            assert got == (J - a, b + 2 * a - J)
        elif case == Case.TWO_B:
            assert got == (2 * b + a - K, K - b)
        else:
            assert got == (b + J - K, a + K - J)


def test_involution_duality_conservation():
    for J, K, a, b in small_grid():
        a2, b2 = local_map(J, K, (a, b))
        assert 0 <= a2 <= J and 0 <= b2 <= K
        assert local_map(J, K, (a2, b2)) == (a, b)
        assert a2 + b2 == a + b
        assert local_map(K, J, (b, a)) == (b2, a2)


def test_sigma_duality():
    assert sigma_dual(3, 4, (1, 2)) == (2, 2)
    assert sigma_dual(3, 4, (0, 0)) == (3, 4)
    assert sigma_dual(5, 7, (4, 4)) == (1, 3)
    for J, K, a, b in small_grid(6, 6, 0):
        if J == INF or K == INF:
            continue
        lhs = sigma_dual(J, K, local_map(J, K, (a, b)))
        rhs = local_map(J, K, sigma_dual(J, K, (a, b)))
        assert lhs == rhs
    with pytest.raises(ValueError, match="finite J and K"):
        sigma_dual(3, INF, (1, 2))


def test_reducibility():
    assert reduced_map(5, 7, 1, (4, 4)) == (1, 5)
    assert local_map(5, 7, (4, 4)) == (2, 6)
    assert reduced_map(3, 4, 0, (1, 2)) == local_map(3, 4, (1, 2))
    assert reduced_map(4, 6, 1, (1, 1)) == (0, 0)
    for J, K, a, b in small_grid():
        for r in range(1, 4):
            if min(J, K) <= 2 * r:
                continue
            if not (r <= a <= J - r and r <= b <= K - r):
                continue
            a2, b2 = local_map(J, K, (a, b))
            assert reduced_map(J, K, r, (a, b)) == (a2 - r, b2 - r)
            # the band is closed: Detect carriers and rows stay in it
            assert r <= a2 <= J - r and r <= b2 <= K - r


def test_input_validation():
    with pytest.raises(InvalidCell):
        local_map(3, 4, (4, 0))
    with pytest.raises(InvalidCell):
        local_map(3, 4, (0, 5))
    with pytest.raises(InvalidCell):
        local_map(3, 4, (-1, 0))
    with pytest.raises(ValueError, match="must exceed 2r"):
        reduced_map(3, 4, 2, (2, 2))
    with pytest.raises(ValueError, match="outside the reduced band"):
        reduced_map(5, 7, 1, (0, 3))


@given(st.integers(1, 50), st.integers(1, 50), st.data())
def test_involution_property(J, K, data):
    a = data.draw(st.integers(0, J))
    b = data.draw(st.integers(0, K))
    pair = local_map(J, K, (a, b))
    assert local_map(J, K, pair) == (a, b)
    assert sum(pair) == a + b
