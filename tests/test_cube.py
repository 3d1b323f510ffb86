import json
from itertools import accumulate
from math import comb

import pytest

from smithcube import canonical, cli, cube
from smithcube.bigmat import IntMatrix, snf
from smithcube.cube import (adjacency, build_M, build_N, graded_blocks,
                            laplacian, monomial_adjacency, verify_conjugacy,
                            vertex_order)
from smithcube.reduction import build_B, smith_group_reduction
from smithcube.subsets import incidence_matrix

from grids import from_grid


def test_vertex_order_n2():
    assert vertex_order(2) == (0, 1, 2, 3)


def test_vertex_order_is_the_popcount_sort():
    # the colex levels laid end to end, against the stable sort by size
    for n in range(13):
        assert vertex_order(n) == tuple(sorted(range(1 << n), key=int.bit_count))


def test_adjacency_small_fixtures():
    assert adjacency(1) == from_grid([[0, 1], [1, 0]])
    assert adjacency(2) == from_grid([[0, 1, 1, 0],
                                      [1, 0, 0, 1],
                                      [1, 0, 0, 1],
                                      [0, 1, 1, 0]])


def test_adjacency_row_sums_symmetry_trace():
    for n in (1, 3, 5):
        a = adjacency(n)
        assert a == a.transpose()
        grid = a.row_lists()
        assert all(sum(row) == n for row in grid)
        assert sum(grid[i][i] for i in range(a.rows)) == 0


def test_adjacency_character_eigenvectors():
    # the sign vector of any subset T is an eigenvector for n - 2|T|
    n = 4
    grid = adjacency(n).row_lists()
    order = vertex_order(n)
    for t in order:
        v = [(-1) ** (t & s).bit_count() for s in order]
        av = [sum(x * y for x, y in zip(row, v)) for row in grid]
        lam = n - 2 * t.bit_count()
        assert av == [lam * x for x in v]


def test_monomial_adjacency_columns_n2():
    at = monomial_adjacency(2).row_lists()
    order = vertex_order(2)
    full = order.index(0b11)
    col = [row[full] for row in at]
    expect = [0] * 4
    expect[full] = 2 - 2 * 2
    expect[order.index(0b01)] = 1
    expect[order.index(0b10)] = 1
    assert col == expect
    empty = order.index(0)
    assert [row[empty] for row in at] == [2, 0, 0, 0]


def test_packed_zeta_rows_are_the_inclusion_blocks():
    # Z's rows as Yates' subset sums of unit rows, two bits per slot so that a
    # stray 2 would show, unpack to the lower unitriangular block matrix whose
    # block (s, i) is W(n, s, i) for i <= s
    for n in range(1, 9):
        side = 1 << n
        z = cube._subset_sums(n, (1 << 2 * c for c in range(side)))
        zeta = from_grid([[(z[s] >> 2 * c) & 3 for c in range(side)]
                          for s in vertex_order(n)])
        ends = [0, *accumulate(comb(n, i) for i in range(n + 1))]
        for s in range(n + 1):
            for i in range(n + 1):
                block = zeta.submatrix(range(ends[s], ends[s + 1]),
                                       range(ends[i], ends[i + 1]))
                if i > s:
                    assert block == IntMatrix.zeros(comb(n, s), comb(n, i))
                else:
                    assert block == incidence_matrix(n, s, i), (n, s, i)
                if i == s:
                    assert block == IntMatrix.identity(comb(n, s))


def test_conjugacy():
    for n in range(1, 13):
        assert verify_conjugacy(n), n


def _with_entry(m: IntMatrix, i: int, j: int, change) -> IntMatrix:
    """m with entry (i, j) replaced by change(old entry)."""
    grid = m.row_lists()
    grid[i][j] = change(grid[i][j])
    return from_grid(grid, m.cols)


@pytest.mark.parametrize("builder, entry, new_value", [
    ("adjacency", (1, 2), lambda x: 1 - x),
    ("monomial_adjacency", (0, 1), lambda x: 1 - x),
    # a huge entry widens every slot instead of spilling into its neighbours
    ("monomial_adjacency", (0, 0), lambda x: 2 ** 40),
], ids=["flip-A", "flip-Atilde", "huge-Atilde"])
def test_conjugacy_fails_on_one_changed_entry(capsys, monkeypatch, builder,
                                              entry, new_value):
    build = getattr(cube, builder)

    def changed(n):
        return _with_entry(build(n), *entry, new_value)
    monkeypatch.setattr(cube, builder, changed)
    assert verify_conjugacy(4) is False
    assert cli.main(["verify", "conjugacy", "4"]) == 2
    assert json.loads(capsys.readouterr().out)["status"] == "mismatch"


def test_conjugacy_refuses_zero_subset_sums(capsys, monkeypatch):
    # zero sums make A * Z and Z * Atilde both zero, but row S of A * Z holds
    # n at the empty set
    monkeypatch.setattr(cube, "_subset_sums", lambda n, rows: [0] * (1 << n))
    assert verify_conjugacy(6) is False
    assert cli.main(["verify", "conjugacy", "6"]) == 2
    assert json.loads(capsys.readouterr().out)["status"] == "mismatch"


def test_graded_blocks_places_blocks_and_rejects_wrong_shape():
    ups = {0: from_grid([[1, 2, 3]]), 1: from_grid([[4, 0, 0], [0, 5, 0], [0, 0, 6]])}
    # (3 - 2i) I on each size i that is also a column size, up(i) one size on
    assert graded_blocks(3, [0, 1], [0, 1, 2], ups.__getitem__) == from_grid(
        [[3, 1, 2, 3, 0, 0, 0],
         [0, 1, 0, 0, 4, 0, 0],
         [0, 0, 1, 0, 0, 5, 0],
         [0, 0, 0, 1, 0, 0, 6]])
    # size 0 is no column size: its row holds up(0) alone, as N's first does
    assert graded_blocks(3, [0, 1], [1, 2], ups.__getitem__) == from_grid(
        [[1, 2, 3, 0, 0, 0],
         [1, 0, 0, 4, 0, 0],
         [0, 1, 0, 0, 5, 0],
         [0, 0, 1, 0, 0, 6]])
    # size 2 is no column size, so up(1) is never asked for; n - 2i = 0
    # stores nothing
    def never(i):
        raise AssertionError(f"up({i}) was asked for")
    assert graded_blocks(3, [1], [1], never) == IntMatrix.identity(3)
    assert graded_blocks(2, [1], [1], never) == IntMatrix.zeros(2, 2)
    with pytest.raises(ValueError, match=r"^up\(0\) is 3x3, expected 1x3$"):
        graded_blocks(3, [0], [0, 1], lambda i: ups[1])


def test_M_N_B_and_reduction_share_one_even_guard():
    # one guard, one message, for the half blocks, B and the reduction
    for build in (build_M, build_N, build_B, smith_group_reduction):
        for n in (1, 3, 9):
            with pytest.raises(ValueError,
                               match=f"^even n >= 2 required, got {n}$"):
                build(n)


def test_half_blocks_share_smith_form():
    # the fact the replay implies, checked by elimination
    for n in (2, 4, 6, 8, 10):
        assert snf(build_M(n)) == snf(build_N(n).transpose()), n


def test_half_lemma_replay_rejects_every_sign_flip():
    # a sign flip keeps the Smith form, so only the exact replay can see it
    m_block, n_block = build_M(4), build_N(4)
    assert cube._replay(4, m_block, n_block)
    flips = [(i, j) for i in range(n_block.rows) for j, _ in n_block.pairs(i)]
    assert len(flips) == 21
    for i, j in flips:
        flipped = _with_entry(n_block, i, j, lambda x: -x)
        assert snf(flipped.transpose()) == snf(m_block), (i, j)
        assert not cube._replay(4, m_block, flipped), (i, j)


@pytest.mark.parametrize("target", ["bier", "half"])
def test_verify_refuses_zero_inclusion_matrices(capsys, monkeypatch, target):
    # zero W of the right shape make Bier's sides 0 = D * 0 and M and N both
    # diagonal; every W_{j,k}, j <= k <= n/2, has ones
    for module in (canonical, cube):
        monkeypatch.setattr(module, "incidence_matrix", lambda n, t, k:
                            IntMatrix.zeros(comb(n, t), comb(n, k)))
    assert cli.main(["verify", target, "8"]) == 2
    assert json.loads(capsys.readouterr().out)["status"] == "mismatch"


def test_free_rank_even():
    for n in (2, 4, 6):
        assert snf(adjacency(n)).zero_count == comb(n, n // 2)


def test_odd_n_determinant_is_odd():
    for n in (1, 3, 5, 7):
        assert adjacency(n).determinant() % 2 == 1


def test_laplacian_row_sums_vanish():
    lap = laplacian(3)
    assert all(sum(row) == 0 for row in lap.row_lists())


def test_size_cap_and_bounds():
    with pytest.raises(ValueError):
        adjacency(0)
    with pytest.raises(ValueError, match="^n=15 exceeds the size cap 14$"):
        adjacency(15)
    with pytest.raises(ValueError):
        monomial_adjacency(20)
    for build in (build_M, build_N):
        with pytest.raises(ValueError, match="^n=16 exceeds the size cap 14$"):
            build(16)
