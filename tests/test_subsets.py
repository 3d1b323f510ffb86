import re
import time
import tracemalloc
from itertools import combinations
from math import comb

import pytest

from smithcube.bigmat import IntMatrix
from smithcube.subsets import (count_full_rank, enumerate_subsets,
                               has_full_rank, incidence_matrix)

from grids import from_grid


def _mask(subset):
    return sum(1 << (x - 1) for x in subset)


def _elements(mask):
    return tuple(x for x in range(1, mask.bit_length() + 1) if mask >> (x - 1) & 1)


def test_colex_order_n4_k2():
    assert enumerate_subsets(4, 2) == (0b0011, 0b0101, 0b0110, 0b1001, 0b1010, 0b1100)


def test_empty_subset_order():
    assert enumerate_subsets(7, 0) == (0,)
    # a large n with k = 0 lists no one-bit masks: 20000 of them would
    # take about 27 MB
    tracemalloc.start()
    try:
        assert enumerate_subsets(20000, 0) == (0,)
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()


def test_complement_order_n4_k3():
    # the complements of {1},{2},{3},{4} in colex order are the 3-subsets
    # in decreasing mask order
    assert tuple(0b1111 ^ s for s in enumerate_subsets(4, 1)) == \
        (0b1110, 0b1101, 0b1011, 0b0111) == enumerate_subsets(4, 3)[::-1]


def test_enumeration_is_complete_and_ordered():
    # against an independent tuple reference: colex is the order of the
    # reversed tuples
    for n in range(13):
        for k in range(n + 1):
            reference = sorted(combinations(range(1, n + 1), k),
                               key=lambda s: tuple(reversed(s)))
            subs = enumerate_subsets(n, k)
            assert len(subs) == comb(n, k)
            assert subs == tuple(_mask(s) for s in reference)


def test_order_validation():
    for n, k in ((4, 5), (4, -1), (0, 1)):
        with pytest.raises(ValueError, match=f"^k={k} out of range for n={n}$"):
            enumerate_subsets(n, k)


def test_has_full_rank():
    assert has_full_rank(_mask((2, 4)))
    assert not has_full_rank(_mask((1, 4)))
    assert has_full_rank(0)
    assert has_full_rank(_mask((2, 4, 6, 8)))
    assert not has_full_rank(_mask((2, 3, 5)))
    # every mask for n <= 12 against the tuple definition i_j >= 2j
    for mask in range(1 << 12):
        expected = all(e >= 2 * j for j, e in enumerate(_elements(mask), 1))
        assert has_full_rank(mask) == expected, mask


def test_count_full_rank_values():
    assert count_full_rank(4, 2) == 2
    assert count_full_rank(4, 1) == 3
    assert count_full_rank(9, 0) == 1
    with pytest.raises(ValueError):
        count_full_rank(4, 3)
    # math.comb would refuse it too, but naming its own k
    with pytest.raises(ValueError, match=r"^t must be >= 0, got -1$"):
        count_full_rank(4, -1)


def test_count_full_rank_matches_enumeration():
    for n in range(15):
        for t in range(n // 2 + 1):
            expected = sum(1 for s in enumerate_subsets(n, t) if has_full_rank(s))
            assert count_full_rank(n, t) == expected


def test_incidence_w12_matches_display():
    w = incidence_matrix(4, 1, 2)
    assert w == from_grid([[1, 1, 0, 1, 0, 0],
                           [1, 0, 1, 0, 1, 0],
                           [0, 1, 1, 0, 0, 1],
                           [0, 0, 0, 1, 1, 1]])


def test_incidence_w01_all_ones():
    for n in (1, 4, 7):
        assert incidence_matrix(n, 0, 1) == from_grid([[1] * n])


def test_incidence_containment_direction():
    w = incidence_matrix(3, 2, 1)
    # rows {1,2},{1,3},{2,3} contain columns {1},{2},{3}
    assert w == from_grid([[1, 1, 0], [1, 0, 1], [0, 1, 1]])


def test_incidence_bounds():
    with pytest.raises(ValueError):
        incidence_matrix(3, 4, 1)
    with pytest.raises(ValueError):
        incidence_matrix(3, 1, -1)


def test_complement_transpose_identity():
    # complementing reverses inclusion and the colex order of masks
    for n in range(2, 11):
        for k in range(1, n // 2 + 1):
            for t in range(k):
                big = incidence_matrix(n, n - k, n - t)
                flipped = big.submatrix(range(big.rows - 1, -1, -1),
                                        range(big.cols - 1, -1, -1))
                assert flipped == incidence_matrix(n, t, k).transpose()


def test_inclusion_composition():
    for n in (4, 6, 8):
        for t in range(3):
            for k in range(t, n // 2 + 1):
                for l in range(k, n // 2 + 1):
                    lhs = incidence_matrix(n, t, k) @ incidence_matrix(n, k, l)
                    rhs = incidence_matrix(n, t, l).scale(comb(l - t, k - t))
                    assert lhs == rhs


def test_n_above_the_cap_refused_for_nonempty_subsets():
    # n one-bit masks hold O(n^2) bits: W(30000, 30000, 30000) peaked at
    # 132 MB for a 1x1 matrix, and n = 200000 ended in a MemoryError under a
    # 1 GiB limit; k = 0 takes no mask and still passes
    cap = 1 << 14
    assert enumerate_subsets(cap, cap) == ((1 << cap) - 1,)
    refusal = re.escape(f"n={cap + 1} exceeds the size cap 2^14 = {cap}")
    with pytest.raises(ValueError, match=refusal):
        enumerate_subsets(cap + 1, cap + 1)
    with pytest.raises(ValueError, match=refusal):
        incidence_matrix(cap + 1, cap + 1, cap + 1)
    assert incidence_matrix(cap + 1, 0, 0) == from_grid([[1]])


def test_incidence_cost_follows_nonzeros_at_large_n():
    # a row never scans all n bits: W(16384, 1, 0) once took minutes
    n = 1 << 14
    t0 = time.monotonic()
    assert incidence_matrix(n, 1, 0) == from_grid([[1]] * n)
    assert incidence_matrix(n, 0, 1) == from_grid([[1] * n])
    assert incidence_matrix(n, 1, 1) == IntMatrix.identity(n)
    assert time.monotonic() - t0 < 5.0
