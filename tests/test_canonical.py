from math import comb

import pytest

from smithcube.bigmat import IntMatrix, snf
from smithcube.canonical import (build_E, build_E_jk, verify_bier,
                                 wilson_diagonal, wilson_form)
from smithcube.subsets import (count_full_rank, enumerate_subsets,
                               has_full_rank, incidence_matrix)

from grids import from_grid


def test_E_jk_fixtures_n4():
    assert build_E_jk(4, 0, 2) == from_grid([[1, 1, 1, 1, 1, 1]])
    assert build_E_jk(4, 1, 2) == from_grid([[1, 0, 1, 0, 1, 0],
                                             [0, 1, 1, 0, 0, 1],
                                             [0, 0, 0, 1, 1, 1]])
    assert build_E_jk(4, 2, 2) == from_grid([[0, 0, 0, 0, 1, 0],
                                             [0, 0, 0, 0, 0, 1]])


def test_E_fixture_n4_k1():
    assert build_E(4, 1) == from_grid([[1, 1, 1, 1],
                                       [0, 1, 0, 0],
                                       [0, 0, 1, 0],
                                       [0, 0, 0, 1]])
    # the rows stand for the empty set, then {2}, {3}, {4}
    assert [s for j in range(2) for s in enumerate_subsets(4, j)
            if has_full_rank(s)] == [0, 0b0010, 0b0100, 0b1000]


def test_E_fixture_n4_k2():
    # the displayed lower block of the stacked basis for 2-subsets
    assert build_E(4, 2) == from_grid([[1, 1, 1, 1, 1, 1],
                                              [1, 0, 1, 0, 1, 0],
                                              [0, 1, 1, 0, 0, 1],
                                              [0, 0, 0, 1, 1, 1],
                                              [0, 0, 0, 0, 1, 0],
                                              [0, 0, 0, 0, 0, 1]])


def test_E_k0_identity():
    for n in (1, 5, 9):
        assert build_E(n, 0) == IntMatrix.identity(1)


def test_E_bounds():
    with pytest.raises(ValueError):
        build_E(4, 3)
    with pytest.raises(ValueError):
        build_E_jk(5, 1, 3)
    with pytest.raises(ValueError):
        build_E_jk(4, 2, 1)


def test_E_unimodular():
    for n in range(1, 11):
        for k in range(n // 2 + 1):
            assert abs(build_E(n, k).determinant()) == 1, (n, k)


def test_row_label_partition_telescopes():
    for n in range(2, 11):
        for k in range(n // 2 + 1):
            sizes = [count_full_rank(n, j) for j in range(k + 1)]
            assert sum(sizes) == comb(n, k)
            e = build_E(n, k)
            assert (e.rows, e.cols) == (comb(n, k), comb(n, k))
            for j in range(k + 1):
                assert build_E_jk(n, j, k).rows == sizes[j]


def test_wilson_form_fixtures():
    d = wilson_form(4, 1, 2)
    assert (d.rows, d.cols) == (4, 6)
    assert [row[i] for i, row in enumerate(d.row_lists())] == [2, 1, 1, 1]
    assert wilson_diagonal(4, 1, 2) == (2, 1, 1, 1)
    assert wilson_form(4, 0, 1) == from_grid([[1, 0, 0, 0]])
    assert wilson_diagonal(8, 3, 3) == (1,) * comb(8, 3)


def test_wilson_multiplicities_fill_diagonal():
    for n in range(2, 11):
        for k in range(n // 2 + 1):
            for t in range(k + 1):
                assert len(wilson_diagonal(n, t, k)) == comb(n, t)


def test_wilson_bounds():
    with pytest.raises(ValueError):
        wilson_form(4, 2, 1)
    with pytest.raises(ValueError):
        wilson_form(4, 1, 3)
    with pytest.raises(ValueError):
        wilson_diagonal(4, 2, 1)


def test_verify_bier_examples():
    assert verify_bier(4, 1, 2)
    for n in (4, 6, 9):
        for t in range(n // 2 + 1):
            assert verify_bier(n, t, t)


def test_verify_bier_sweep():
    for n in range(2, 9):
        for k in range(n // 2 + 1):
            for t in range(k + 1):
                assert verify_bier(n, t, k), (n, t, k)


def test_snf_of_inclusion_matches_wilson_diagonal():
    for n in range(2, 10):
        for k in range(n // 2 + 1):
            for t in range(k + 1):
                w = incidence_matrix(n, t, k)
                d = IntMatrix.diagonal(wilson_diagonal(n, t, k))
                assert snf(w).factors == snf(d).factors
