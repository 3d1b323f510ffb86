from fractions import Fraction
from math import comb

import pytest

from smithcube import reduction
from smithcube.bigmat import (ElemDivTable, IntMatrix, p_elementary_divisors,
                              snf)
from smithcube.canonical import wilson_form
from smithcube.cube import adjacency, blocks
from smithcube.reduction import (CondensedMatrix, build_B, build_condensed,
                                 eigenvalue_diagonal, invariant_factor_rle,
                                 laplacian_partial_check, reduce_condensed,
                                 same_group, smith_group, smith_group_oracle,
                                 smith_group_reduction, stacked_basis,
                                 telescoped_multiplicity,
                                 two_local_divisors_of_M, verify_conjecture)
from smithcube.subsets import count_full_rank

# displayed conjugated half block for the 4-cube
B4 = IntMatrix([[4, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0],
                [0, 2, 0, 0, 0, 2, 0, 0, 0, 0, 0],
                [0, 0, 2, 0, 0, 0, 1, 0, 0, 0, 0],
                [0, 0, 0, 2, 0, 0, 0, 1, 0, 0, 0],
                [0, 0, 0, 0, 2, 0, 0, 0, 1, 0, 0]])


def test_build_B_matches_display_n4():
    assert build_B(4) == B4


def test_build_B_superdiagonal_blocks_are_wilson_forms():
    n = 6
    m = n // 2
    b = build_B(n)
    row_off = [0]
    for i in range(m):
        row_off.append(row_off[-1] + comb(n, i))
    col_off = [0]
    for j in range(m + 1):
        col_off.append(col_off[-1] + comb(n, j))
    for i in range(m):
        # diagonal block: (n - 2i) * identity
        d = n - 2 * i
        blk = b.submatrix(range(row_off[i], row_off[i + 1]),
                          range(col_off[i], col_off[i + 1]))
        assert blk == IntMatrix.identity(comb(n, i)).scale(d)
        # superdiagonal block: the two-parameter diagonal form
        sup = b.submatrix(range(row_off[i], row_off[i + 1]),
                          range(col_off[i + 1], col_off[i + 2]))
        assert sup == wilson_form(n, i, i + 1)
        # everything else vanishes
        for j in range(m + 1):
            if j in (i, i + 1):
                continue
            blk = b.submatrix(range(row_off[i], row_off[i + 1]),
                              range(col_off[j], col_off[j + 1]))
            assert blk == IntMatrix.zeros(comb(n, i), comb(n, j))


def test_build_B_conjugates_M():
    # E(m-1) M = B E(m): B is M in the canonical bases, checked without
    # inverting either basis
    for n in (2, 4, 6, 8, 10):
        m = n // 2
        assert (stacked_basis(n, m - 1) @ blocks(n).M
                == build_B(n) @ stacked_basis(n, m)), n


def test_B_is_unimodularly_equivalent_to_M():
    for n in (4, 6):
        assert snf(build_B(n)) == snf(blocks(n).M)


def test_stacked_basis_shape():
    assert stacked_basis(4, 2).rows == 1 + 4 + 6


def test_telescoping():
    for n in range(2, 42, 2):
        m = n // 2
        for k in range(1, m + 1):
            assert telescoped_multiplicity(n, k) == comb(n, m - k)


def test_build_condensed_shapes():
    c = build_condensed(5, 10)
    assert c.shape() == (15, 21)
    assert len(c.row_labels()) == 15
    assert len(c.col_labels()) == 21
    c1 = build_condensed(1, 2)
    assert c1.shape() == (1, 3)
    assert c1.entries[((1, 1), (0, 1))] == 2
    assert c1.entries[((1, 1), (1, 1))] == 1
    assert c1.row_weights[(1, 1)] == 1


def test_build_condensed_rejects_odd_or_small_n():
    for m, n in ((1, 5), (2, 3), (3, 4), (2, -4)):
        with pytest.raises(ValueError, match=f"got {n}$"):
            build_condensed(m, n)
    assert build_condensed(1, 4).entries[((1, 1), (0, 1))] == 4


def test_condensed_validation_rejects_bad_values():
    c = build_condensed(2, 4)
    bad = dict(c.entries)
    bad[((2, 1), (2, 1))] = Fraction(3)  # exact value must be 2
    with pytest.raises(ValueError):
        CondensedMatrix(2, bad, dict(c.row_weights)).validate()
    odd = dict(c.entries)
    odd[((1, 1), (0, 1))] = Fraction(3)  # even diagonal must stay even
    with pytest.raises(ValueError):
        CondensedMatrix(2, odd, dict(c.row_weights)).validate()


def test_reduce_condensed_m1():
    step = reduce_condensed(build_condensed(1, 2))
    assert step.odd_pivots == ((1, 1),)
    assert step.even_residual.m == 0
    assert step.odd_residual.m == 0
    assert step.even_residual.entries == {}
    assert step.odd_residual.entries == {}


def test_reduce_condensed_m2():
    # rows (1,1),(2,1),(2,2); odd exact values at (1,1) and (2,2)
    step = reduce_condensed(build_condensed(2, 4))
    assert sorted(step.odd_pivots) == [(1, 1), (1, 3)]
    # the surviving row (2,1) has even block index: one half-size copy
    assert step.even_residual.m == 1
    assert step.odd_residual.m == 0
    assert step.even_residual.row_weights == {(1, 1): count_full_rank(4, 0)}


def test_reduce_condensed_m5_residual_sizes():
    step = reduce_condensed(build_condensed(5, 10))
    assert step.even_residual.m == 2
    assert step.odd_residual.m == 2


def test_structural_recursion_closes():
    # every reduction step of every residual must keep the two-diagonal
    # shape, for all half-sizes up to 40
    for m in range(1, 41):
        n = 2 * m
        stack = [build_condensed(m, n)]
        while stack:
            c = stack.pop()
            if c.m == 0:
                continue
            step = reduce_condensed(c)
            stack.append(step.even_residual)
            stack.append(step.odd_residual)


def test_two_local_matches_oracle():
    for n in (2, 4, 6, 8):
        table = two_local_divisors_of_M(n)
        oracle = p_elementary_divisors(blocks(n).M, 2)
        assert table.mult == {e: c for e, c in oracle.mult.items() if c}, n


def test_smith_group_fixtures():
    g4 = smith_group(4)
    assert g4.free_rank == 6
    assert g4.nonzero == {1: 8, 2: 2}
    assert g4.invariant_factor_rle() == ((1, 8), (2, 2))
    g3 = smith_group(3)
    assert g3.free_rank == 0
    assert g3.nonzero == {1: 6, 3: 2}
    with pytest.raises(ValueError):
        smith_group(0)


def test_smith_group_total_conservation():
    for n in range(1, 21):
        assert smith_group(n).total() == 1 << n


def test_oracle_matches_closed_form():
    for n in range(1, 9):
        assert same_group(smith_group_oracle(n), smith_group(n)), n


def test_reduction_matches_closed_form():
    # even n only: for odd n there is no structural route to compare
    for n in range(2, 65, 2):
        assert same_group(smith_group_reduction(n), smith_group(n)), n


def test_reduction_rejects_odd_n():
    for n in (1, 3, 9, 131):
        with pytest.raises(ValueError, match=f"got {n}"):
            smith_group_reduction(n)


def test_conjecture():
    # the elimination oracle supplies the divisor side up to n = 8; beyond
    # that the 2-local reduction of M does (the full n = 10 oracle run is
    # test_conjecture_n10_oracle below)
    for n in range(2, 65, 2):
        assert verify_conjecture(n, oracle_cap=8), n


def test_conjecture_above_cap_checks_the_reduction(monkeypatch):
    # above the oracle cap the divisor side is the reduction's table; a
    # table off by one divisor (same rank) must be caught
    n = 12
    good = two_local_divisors_of_M(n).mult
    bad = dict(good)
    bad[0] -= 1
    bad[1] += 1
    monkeypatch.setattr(reduction, "two_local_divisors_of_M",
                        lambda _n: ElemDivTable(2, bad, 0))
    assert not verify_conjecture(n, oracle_cap=8)


def test_eigenvalue_diagonal():
    assert eigenvalue_diagonal(2) == {2: 1, 0: 2, -2: 1}
    assert sum(eigenvalue_diagonal(7).values()) == 128


def test_laplacian_partial():
    for n in (2, 4):
        rep = laplacian_partial_check(n)
        assert rep.ok
        assert len(rep.comparisons) == rep.s
    with pytest.raises(ValueError):
        laplacian_partial_check(6)


def test_invariant_factor_rle_units():
    assert invariant_factor_rle({}) == ()
    assert invariant_factor_rle({1: 3}) == ((1, 3),)
    assert invariant_factor_rle({4: 2, 6: 1}) == ((2, 1), (4, 1), (12, 1))
    assert invariant_factor_rle({2: 2, 3: 1}) == ((1, 1), (2, 1), (6, 1))
    with pytest.raises(ValueError):
        invariant_factor_rle({0: 1})


def test_summary_to_text():
    assert smith_group(2).to_text() == "free_rank 2\n1 2\n"


def test_build_B_n10_superdiagonals():
    n = 10
    m = n // 2
    b = build_B(n)
    row_off = [0]
    for i in range(m):
        row_off.append(row_off[-1] + comb(n, i))
    col_off = [0]
    for j in range(m + 1):
        col_off.append(col_off[-1] + comb(n, j))
    for i in range(m):
        sup = b.submatrix(range(row_off[i], row_off[i + 1]),
                          range(col_off[i + 1], col_off[i + 2]))
        assert sup == wilson_form(n, i, i + 1)


def test_conjecture_n10_oracle():
    assert verify_conjecture(10, oracle_cap=10)


def test_two_local_matches_oracle_n10():
    table = two_local_divisors_of_M(10)
    oracle = p_elementary_divisors(blocks(10).M, 2)
    assert table.mult == {e: c for e, c in oracle.mult.items() if c}
