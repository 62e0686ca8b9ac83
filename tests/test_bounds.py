import random

import pytest

from primewitness import extraction as ex

from util import bound_le


def test_h_base_case():
    rng = random.Random(50)
    for _ in range(100):
        n = rng.randrange(1, 300)
        nprime = rng.randrange(1, 300)
        assert ex.h_bound(n, nprime, 2) == n
    # with n = 1 each step is (n - 1) * R + 1 = 1, however large R is
    assert ex.h_bound(1, 2_000_000, 3) == 1
    for i in range(2, 8):
        assert ex.h_bound(1, 5, i) == 1


def test_g_values():
    assert ex.g_bound(3) == 19
    assert ex.g_bound(2) == 4
    assert ex.g_bound(4) == 16 * 5 + 4 + 1
    with pytest.raises(ValueError):
        ex.g_bound(1)


def test_ramsey_upper_small():
    assert ex.ramsey_upper_bound((3, 3)) == 7
    assert ex.ramsey_upper_bound((2, 2)) == 3
    assert ex.ramsey_upper_bound((1, 5)) == 2
    with pytest.raises(ValueError):
        ex.ramsey_upper_bound((0, 3))


def test_h_strictly_increasing_in_t():
    for n in (2, 3, 4):
        for nprime in (2, 6):
            vals = [ex.h_bound(n, nprime, i) for i in range(2, 6)]
            assert all(isinstance(v, int) for v in vals)
            assert all(a < b for a, b in zip(vals, vals[1:]))


def test_h_monotone_in_n_and_nprime():
    for i in (3, 4):
        assert ex.h_bound(3, 5, i) <= ex.h_bound(4, 5, i)
        assert ex.h_bound(3, 5, i) <= ex.h_bound(3, 6, i)


def test_bounds_structure_for_three():
    b = ex.bounds(3)
    assert b.g == 19
    assert b.h_tower[0] == 3
    assert isinstance(b.h_tower[1], int)
    # h(3, 19, 3) = 2 * R(3,3,3,3,3,3,3,19,19,3) + 1
    assert b.h_tower[1] == 2 * ex.ramsey_upper_bound((3,) * 7 + (19, 19, 3)) + 1
    assert isinstance(b.m, int)
    assert isinstance(b.independent_size, ex.Huge)
    assert isinstance(b.vertex_threshold, ex.Huge)


def test_bounds_monotone_in_n():
    prev = None
    for n in range(3, 11):
        b = ex.bounds(n)
        if prev is not None:
            assert bound_le(prev.g, b.g)
            assert bound_le(prev.matching_size, b.matching_size)
            assert bound_le(prev.m, b.m)
            assert bound_le(prev.independent_size, b.independent_size)
            assert bound_le(prev.vertex_threshold, b.vertex_threshold)
        prev = b


def test_bound_le_orderings():
    assert bound_le(3, 5) and not bound_le(5, 3)
    h = ex.Huge("h", (3, 19, 5), 1000)
    assert bound_le(123, h)
    assert not bound_le(h, 123)
    assert bound_le(h, ex.Huge("h", (4, 19, 5), 900))
    with pytest.raises(ValueError):
        bound_le(h, ex.Huge("thm-m", (4,), 900))
    with pytest.raises(ValueError):
        bound_le(1 << 2000, h)  # beyond the certified floor


def test_huge_renders_with_floor():
    h = ex.Huge("thm-f", (3,), 99)
    assert "thm-f" in str(h) and "2^99" in str(h)
