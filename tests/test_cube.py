from math import comb

import pytest

from smithcube.bigmat import IntMatrix, snf
from smithcube.cube import (adjacency, blocks, laplacian, monomial_adjacency,
                            verify_conjugacy, verify_half_lemma, vertex_order,
                            zeta_matrix)

# displayed lower half block of the 4-cube's monomial-basis matrix
M4 = IntMatrix([[4, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0],
                [0, 2, 0, 0, 0, 1, 1, 0, 1, 0, 0],
                [0, 0, 2, 0, 0, 1, 0, 1, 0, 1, 0],
                [0, 0, 0, 2, 0, 0, 1, 1, 0, 0, 1],
                [0, 0, 0, 0, 2, 0, 0, 0, 1, 1, 1]])


def test_vertex_order_n2():
    assert vertex_order(2) == (0, 1, 2, 3)


def test_adjacency_small_fixtures():
    assert adjacency(1) == IntMatrix([[0, 1], [1, 0]])
    assert adjacency(2) == IntMatrix([[0, 1, 1, 0],
                                             [1, 0, 0, 1],
                                             [1, 0, 0, 1],
                                             [0, 1, 1, 0]])


def test_adjacency_row_sums_symmetry_trace():
    for n in (1, 3, 5):
        a = adjacency(n)
        assert a == a.transpose()
        assert all(sum(a.row(i)) == n for i in range(a.rows))
        assert sum(a[i, i] for i in range(a.rows)) == 0


def test_adjacency_character_eigenvectors():
    # the sign vector of any subset T is an eigenvector for n - 2|T|
    n = 4
    a = adjacency(n)
    order = vertex_order(n)
    for t in order:
        v = [(-1) ** (t & s).bit_count() for s in order]
        av = [sum(a[i, j] * v[j] for j in range(len(v))) for i in range(len(v))]
        lam = n - 2 * t.bit_count()
        assert av == [lam * x for x in v]


def test_monomial_adjacency_columns_n2():
    at = monomial_adjacency(2)
    order = vertex_order(2)
    full = order.index(0b11)
    col = [at[i, full] for i in range(4)]
    expect = [0] * 4
    expect[full] = 2 - 2 * 2
    expect[order.index(0b01)] = 1
    expect[order.index(0b10)] = 1
    assert col == expect
    empty = order.index(0)
    assert [at[i, empty] for i in range(4)] == [2, 0, 0, 0]


def test_zeta_matrix_n1_and_determinant():
    assert zeta_matrix(1) == IntMatrix([[1, 0], [1, 1]])
    for n in (2, 3, 4):
        assert zeta_matrix(n).determinant() == 1


def test_conjugacy():
    for n in range(1, 9):
        assert verify_conjugacy(n), n


def test_blocks_match_display_n4():
    pair = blocks(4)
    assert pair.M == M4
    assert (pair.N.rows, pair.N.cols) == (11, 5)


def test_blocks_require_even():
    with pytest.raises(ValueError):
        blocks(3)


def test_half_lemma():
    for n in (2, 4, 6):
        assert verify_half_lemma(n), n


def test_doubling_of_half_block():
    # the nonzero Smith data of the whole matrix is that of M taken twice
    for n in (4, 6):
        m_block = blocks(n).M
        doubled = snf(IntMatrix(
            [list(m_block.row(i)) + [0] * m_block.cols for i in range(m_block.rows)] +
            [[0] * m_block.cols + list(m_block.row(i)) for i in range(m_block.rows)],
            2 * m_block.cols))
        assert doubled.factors == snf(adjacency(n)).factors


def test_free_rank_even():
    for n in (2, 4, 6):
        assert snf(adjacency(n)).zero_count == comb(n, n // 2)


def test_odd_n_determinant_is_odd():
    for n in (1, 3, 5, 7):
        assert adjacency(n).determinant() % 2 == 1


def test_laplacian_row_sums_vanish():
    lap = laplacian(3)
    assert all(sum(lap.row(i)) == 0 for i in range(lap.rows))


def test_size_cap_and_bounds():
    with pytest.raises(ValueError):
        adjacency(0)
    with pytest.raises(ValueError, match="^n=15 exceeds the size cap 14$"):
        adjacency(15)
    with pytest.raises(ValueError):
        monomial_adjacency(20)
