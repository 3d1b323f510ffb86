import json
import time
from math import comb

import pytest

from smithcube import canonical, cli
from smithcube.bigmat import IntMatrix, snf
from smithcube.canonical import (build_E, verify_bier, wilson_diagonal,
                                 wilson_form)
from smithcube.subsets import (count_full_rank, enumerate_subsets,
                               has_full_rank, incidence_matrix)

from grids import from_grid


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
    with pytest.raises(ValueError, match="exceeds the size cap"):
        build_E(30, 15)
    with pytest.raises(ValueError):
        build_E(4, -1)


def test_row_label_partition_telescopes():
    for n in range(11):
        for k in range(n // 2 + 1):
            sizes = [count_full_rank(n, j) for j in range(k + 1)]
            assert sum(sizes) == comb(n, k)
            e = build_E(n, k)
            assert (e.rows, e.cols) == (comb(n, k), comb(n, k))
            # level j of E_k is the block of rows of the full-rank j-subsets,
            # each the row of W_{j,k} that the subset labels
            start = 0
            for j in range(k + 1):
                w = incidence_matrix(n, j, k)
                full = [i for i, s in enumerate(enumerate_subsets(n, j))
                        if has_full_rank(s)]
                assert len(full) == sizes[j]
                level = e.submatrix(range(start, start + sizes[j]), range(e.cols))
                assert level == w.submatrix(full, range(w.cols)), (n, j, k)
                start += sizes[j]


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
    for n in (4, 6, 9):
        assert verify_bier(n) == [], n


def test_verify_bier_sweep():
    # every pair t <= k <= n/2, up to the sizes the benchmark runs
    for n in range(1, 13):
        assert verify_bier(n) == [], n


def _bier_by_products(n):
    """The failing pairs [t, k] by the two sparse products E_t W_{t,k} and
    D_{t,k} E_k, with E built afresh from the current inclusion matrices."""
    return [[t, k] for k in range(n // 2 + 1) for t in range(k + 1)
            if build_E(n, t) @ canonical.incidence_matrix(n, t, k)
            != wilson_form(n, t, k) @ build_E(n, k)]


@pytest.mark.parametrize("index", [0, 7, -1])
@pytest.mark.parametrize("delta", [1, -1])
def test_verify_bier_names_the_pair_of_a_changed_wilson_entry(
        capsys, monkeypatch, delta, index):
    exact = canonical.wilson_diagonal

    def changed(n, t, k):
        d = list(exact(n, t, k))
        if (t, k) == (2, 4):
            d[index] += delta
        return tuple(d)
    monkeypatch.setattr(canonical, "wilson_diagonal", changed)
    assert verify_bier(10) == [[2, 4]]
    assert cli.main(["verify", "bier", "10"]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "mismatch"
    assert report["payload"] == {"checked_up_to": 5, "failures": [[2, 4]]}


def test_verify_bier_lists_a_pair_whose_diagonal_has_the_wrong_length(monkeypatch):
    # pairing rows with a short diagonal would drop the last row unchecked
    exact = canonical.wilson_diagonal
    monkeypatch.setattr(canonical, "wilson_diagonal", lambda n, t, k:
                        exact(n, t, k)[:-1] if (t, k) == (1, 3) else exact(n, t, k))
    assert verify_bier(8) == [[1, 3]]


# {1,2,3} is not of full rank, so only W_{3,4}'s own pair reads its row;
# {2,4,6} is, so the row is also a row of E_4, and pair (4, 5) fails too
# (pair (4, 4) still holds: both of its sides change alike)
@pytest.mark.parametrize("subset, failures", [
    (0b111, [[3, 4]]),
    (0b101010, [[3, 4], [4, 5]]),
], ids=["rank-deficient-row", "full-rank-row"])
@pytest.mark.parametrize("value", [2, -2, 2 ** 40])
def test_verify_bier_sees_one_changed_inclusion_entry(
        capsys, monkeypatch, subset, failures, value):
    # the slot width follows the entries: a value that is not 0 or 1, or a
    # huge one, widens every slot instead of spilling into its neighbour
    exact = canonical.incidence_matrix
    row = enumerate_subsets(10, 3).index(subset)

    def changed(n, t, k):
        w = exact(n, t, k)
        if (t, k) != (3, 4):
            return w
        rows = [dict(w.pairs(i)) for i in range(w.rows)]
        rows[row][min(rows[row])] = value
        return IntMatrix.from_rows(rows, w.cols)
    monkeypatch.setattr(canonical, "incidence_matrix", changed)
    assert verify_bier(10) == failures == _bier_by_products(10)
    assert cli.main(["verify", "bier", "10"]) == 2
    assert json.loads(capsys.readouterr().out)["payload"]["failures"] == failures


def test_verify_bier_slot_width_follows_the_entries(monkeypatch):
    # row {1,2} of W_{2,3} at n = 6 gets 2^e added in column {1,2,3} and 1
    # taken from column {1,2,4}; at a slot width of e bits the two changes
    # cancel, so only a width that follows the real entries sees each one
    exact = canonical.incidence_matrix

    def changed(e):
        def build(n, t, k):
            w = exact(n, t, k)
            if (t, k) != (2, 3):
                return w
            rows = [dict(w.pairs(i)) for i in range(w.rows)]
            rows[0][0] += 2 ** e
            rows[0][1] -= 1
            return IntMatrix.from_rows(rows, w.cols)
        return build
    for e in range(1, 40):
        monkeypatch.setattr(canonical, "incidence_matrix", changed(e))
        assert verify_bier(6) == [[2, 3]], e


def test_verify_bier_refuses_before_any_matrix(capsys, monkeypatch):
    def no_build(n, t, k):
        raise AssertionError(f"W({n}, {t}, {k}) was started")
    monkeypatch.setattr(canonical, "incidence_matrix", no_build)
    assert cli.main(["verify", "bier", "30"]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", "error: a side of C(30, 15) subsets exceeds the size cap 2^14 = 16384\n")


def test_verify_bier_holds_all_its_inclusion_matrices_to_one_cap(capsys, monkeypatch):
    # each W(16, a, b) is within the caps, but all of them together hold
    # 5445441 nonzeros: verify bier 16 once peaked at 1.66 GB
    def no_build(n, t, k):
        raise AssertionError(f"W({n}, {t}, {k}) was started")
    monkeypatch.setattr(canonical, "incidence_matrix", no_build)
    t0 = time.monotonic()
    assert cli.main(["verify", "bier", "16"]) == 1
    assert time.monotonic() - t0 < 1.0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", "error: the W(16, a, b), a <= b <= 8, have 5445441 nonzeros in all, "
            "above the cap 3^14 = 4782969\n")
    # n = 15, 1266027 nonzeros in all, passes the bound and starts building
    with pytest.raises(AssertionError, match="was started"):
        verify_bier(15)


def test_snf_of_inclusion_matches_wilson_diagonal():
    for n in range(2, 10):
        for k in range(n // 2 + 1):
            for t in range(k + 1):
                w = incidence_matrix(n, t, k)
                d = IntMatrix.diagonal(wilson_diagonal(n, t, k))
                assert snf(w).factors == snf(d).factors
