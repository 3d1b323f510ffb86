from math import comb

import pytest

from smithcube.bigmat import IntMatrix
from smithcube.subsets import (COMPLEMENT, SubsetOrder, count_full_rank,
                               enumerate_subsets, has_full_rank,
                               incidence_matrix)


def test_colex_order_n4_k2():
    assert enumerate_subsets(4, 2) == \
        ((1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4))


def test_empty_subset_order():
    assert enumerate_subsets(7, 0) == ((),)


def test_complement_order_n4_k3():
    # complements of {1},{2},{3},{4} in colex order
    assert enumerate_subsets(4, 3, COMPLEMENT) == \
        ((2, 3, 4), (1, 3, 4), (1, 2, 4), (1, 2, 3))


def test_enumeration_is_complete_and_ordered():
    for n in range(9):
        for k in range(n + 1):
            subs = enumerate_subsets(n, k)
            assert len(subs) == comb(n, k)
            assert len(set(subs)) == len(subs)
            keys = [tuple(reversed(s)) for s in subs]
            assert keys == sorted(keys)


def test_order_validation():
    with pytest.raises(ValueError):
        SubsetOrder(4, 5)
    with pytest.raises(ValueError):
        SubsetOrder(4, 1, COMPLEMENT)  # needs k >= n/2
    with pytest.raises(ValueError):
        SubsetOrder(4, 2, "lex")


def test_has_full_rank():
    assert has_full_rank((2, 4))
    assert not has_full_rank((1, 4))
    assert has_full_rank(())
    assert has_full_rank((2, 4, 6, 8))
    assert not has_full_rank((2, 3, 5))


def test_count_full_rank_values():
    assert count_full_rank(4, 2) == 2
    assert count_full_rank(4, 1) == 3
    assert count_full_rank(9, 0) == 1
    with pytest.raises(ValueError):
        count_full_rank(4, 3)


def test_count_full_rank_matches_enumeration():
    for n in range(15):
        for t in range(n // 2 + 1):
            expected = sum(1 for s in enumerate_subsets(n, t) if has_full_rank(s))
            assert count_full_rank(n, t) == expected


def test_incidence_w12_matches_display():
    w = incidence_matrix(4, 1, 2)
    assert w == IntMatrix([[1, 1, 0, 1, 0, 0],
                           [1, 0, 1, 0, 1, 0],
                           [0, 1, 1, 0, 0, 1],
                           [0, 0, 0, 1, 1, 1]])


def test_incidence_w01_all_ones():
    for n in (1, 4, 7):
        assert incidence_matrix(n, 0, 1) == IntMatrix([[1] * n])


def test_incidence_containment_direction():
    w = incidence_matrix(3, 2, 1)
    # rows {1,2},{1,3},{2,3} contain columns {1},{2},{3}
    assert w == IntMatrix([[1, 1, 0], [1, 0, 1], [0, 1, 1]])


def test_incidence_bounds():
    with pytest.raises(ValueError):
        incidence_matrix(3, 4, 1)
    with pytest.raises(ValueError):
        incidence_matrix(4, 1, 2, row_order=SubsetOrder(4, 2))


def test_complement_transpose_identity():
    for n in range(2, 11):
        for k in range(1, n // 2 + 1):
            for t in range(k):
                big = incidence_matrix(n, n - k, n - t,
                                       SubsetOrder(n, n - k, COMPLEMENT),
                                       SubsetOrder(n, n - t, COMPLEMENT))
                assert big == incidence_matrix(n, t, k).transpose()


def test_inclusion_composition():
    for n in (4, 6, 8):
        for t in range(3):
            for k in range(t, n // 2 + 1):
                for l in range(k, n // 2 + 1):
                    lhs = incidence_matrix(n, t, k) @ incidence_matrix(n, k, l)
                    rhs = incidence_matrix(n, t, l).scale(comb(l - t, k - t))
                    assert lhs == rhs
