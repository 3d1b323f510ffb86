"""Property tests for the exact integer layer and the closed-form helpers."""
import re
from enum import IntEnum
from functools import reduce
from itertools import combinations
from math import comb, gcd, inf
from unittest.mock import patch

import pytest
from hypothesis import given
from hypothesis import strategies as st

from smithcube import bigmat
from smithcube.bigmat import (IntMatrix, _divisibility_chain, from_text, snf,
                              to_text, two_adic_counts)
from smithcube.reduction import (_binomial_row, _positional_merge,
                                 invariant_factor_rle)

from grids import from_grid, valuation

# small value -> multiplicity multisets, so the expanded diagonal stays short
small_counts = st.dictionaries(st.integers(-60, 60).filter(bool),
                               st.integers(0, 6), max_size=6)


def _rle(chain: list) -> tuple:
    out: list = []
    for d in chain:
        if out and out[-1][0] == d:
            out[-1] = (d, out[-1][1] + 1)
        else:
            out.append((d, 1))
    return tuple(out)


@given(st.integers(0, 300), st.integers(0, 300))
def test_binomial_row_matches_comb(n, k):
    assert _binomial_row(n, k) == [comb(n, j) for j in range(k + 1)]


@given(small_counts)
def test_invariant_factor_rle_matches_divisibility_chain(counts):
    expanded = [v for v, c in counts.items() for _ in range(c)]
    assert invariant_factor_rle(counts) == _rle(_divisibility_chain(expanded))


@given(small_counts.filter(lambda c: any(c.values())))
def test_positional_merge_matches_divisibility_chain(counts):
    # tables built by the tests' valuation, independent of the factorisation
    # invariant_factor_rle uses
    expanded = [abs(v) for v, c in counts.items() for _ in range(c)]
    tables = {}
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59):
        table: dict = {}
        for v in expanded:
            e = valuation(v, p)
            table[e] = table.get(e, 0) + 1
        tables[p] = table
    assert (_positional_merge(tables, len(expanded))
            == _rle(_divisibility_chain(expanded)))


def _grid(draw, rows, cols, elements):
    return draw(st.lists(st.lists(elements, min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))


@st.composite
def int_matrices(draw, max_side, elements):
    rows = draw(st.integers(0, max_side))
    cols = draw(st.integers(0, max_side))
    return from_grid(_grid(draw, rows, cols, elements), cols)


@given(int_matrices(4, st.integers(-6, 6)))
def test_snf_matches_determinantal_divisors(m):
    # d_k is the gcd of all k x k minors, and the k-th invariant factor is
    # d_k / d_(k-1); the rank is the largest k with d_k != 0
    factors = []
    prev = 1
    for k in range(1, min(m.rows, m.cols) + 1):
        d = reduce(gcd, (m.submatrix(ri, ci).determinant()
                         for ri in combinations(range(m.rows), k)
                         for ci in combinations(range(m.cols), k)), 0)
        if d == 0:
            break
        factors.append(d // prev)
        prev = d
    inv = snf(m)
    assert inv.factors == tuple(factors)
    assert inv.zero_count == min(m.rows, m.cols) - len(factors)


SIDE = 24


@given(st.dictionaries(st.tuples(st.integers(0, SIDE - 1),
                                 st.integers(0, SIDE - 1)),
                       st.sampled_from((1, -1)), max_size=3 * SIDE),
       st.permutations(range(SIDE)), st.permutations(range(SIDE)),
       st.lists(st.sampled_from((1, -1)), min_size=SIDE, max_size=SIDE))
def test_snf_invariant_under_signed_relabelling(entries, row_perm, col_perm,
                                                signs):
    # a signed row permutation and an independent column permutation are
    # unimodular, and they change the start and the order of the component
    # sweep; checked with the packed tail from the first pivot and without it
    data = [[0] * SIDE for _ in range(SIDE)]
    moved = [[0] * SIDE for _ in range(SIDE)]
    for (i, j), v in entries.items():
        data[i][j] = v
        moved[row_perm[i]][col_perm[j]] = signs[i] * v
    for fill in (0, inf):
        with patch.object(bigmat, "_DENSE_FILL", fill):
            assert snf(from_grid(moved)) == snf(from_grid(data))


@st.composite
def square_matrices(draw, max_side, elements):
    side = draw(st.integers(0, max_side))
    return from_grid(_grid(draw, side, side, elements), side)


# mostly zero, so that a summand may split into components of its own
sparse_entries = st.one_of(st.just(0), st.just(0), st.integers(-6, 6),
                           st.integers(-2 ** 70, 2 ** 70))


@given(square_matrices(10, sparse_entries), square_matrices(10, sparse_entries),
       st.randoms(use_true_random=False))
def test_snf_of_a_permuted_direct_sum_merges_the_summands(a, b, rng):
    # the direct sum of A and B, its rows and its columns shuffled, has the
    # invariant factors of the diagonal that A's and B's make together and,
    # both being square, the sum of their zero counts
    side = a.rows + b.rows
    row_perm, col_perm = rng.sample(range(side), side), rng.sample(range(side), side)
    moved = [{} for _ in range(side)]
    for m, offset in ((a, 0), (b, a.rows)):
        for i in range(m.rows):
            moved[row_perm[offset + i]] = {col_perm[offset + j]: v
                                           for j, v in m.pairs(i)}
    for fill in (0, inf):
        with patch.object(bigmat, "_DENSE_FILL", fill):
            sa, sb = snf(a), snf(b)
            inv = snf(IntMatrix.from_rows(moved, side))
        assert inv.factors == tuple(_divisibility_chain(sa.factors + sb.factors))
        assert inv.zero_count == sa.zero_count + sb.zero_count


# (operation, on columns, line i, line j, multiplier); i and j are reduced
# modulo the number of lines when the step is applied
unimodular_steps = st.lists(st.tuples(st.sampled_from(("add", "swap", "negate")),
                                      st.booleans(), st.integers(0, 4),
                                      st.integers(0, 4), st.integers(-4, 4)),
                            max_size=16)


@given(int_matrices(5, st.integers(-6, 6)), unimodular_steps)
def test_snf_invariant_under_unimodular_operations(m, steps):
    # adding a multiple of one row (column) to another, swapping two and
    # negating one are the elementary unimodular operations
    grid = m.row_lists()
    for op, on_cols, i, j, c in steps if m.rows and m.cols else ():
        lines = [list(col) for col in zip(*grid)] if on_cols else grid
        i, j = i % len(lines), j % len(lines)
        if op == "add" and i != j:
            lines[i] = [x + c * y for x, y in zip(lines[i], lines[j])]
        elif op == "swap":
            lines[i], lines[j] = lines[j], lines[i]
        elif op == "negate":
            lines[i] = [-x for x in lines[i]]
        grid = [list(row) for row in zip(*lines)] if on_cols else lines
    assert snf(from_grid(grid, m.cols)) == snf(m)


# zero, small, and u * 2^k up to far above 2^64, so that the 2-adic
# valuations of the divisors spread over every level of the kernel
two_adic_entries = st.one_of(st.just(0), st.integers(-8, 8),
                             st.builds(lambda u, k: u << k,
                                       st.integers(-5, 5), st.integers(0, 70)))


@given(int_matrices(6, two_adic_entries), st.integers(1, 8))
def test_two_adic_counts_match_snf_tally(m, e):
    expected = [0] * e
    for d in snf(m).factors:
        v = valuation(d, 2)
        if v < e:
            expected[v] += 1
    assert two_adic_counts(m, e) == tuple(expected)


@given(int_matrices(6, st.one_of(st.just(0), st.integers(-8, 8),
                                 st.integers(-2 ** 80, 2 ** 80))))
def test_snf_of_bipartite_matrix_doubles_snf_of_its_block(b):
    # [[0, B], [B^t, 0]] is B plus B^t up to a permutation, and B^t has the
    # invariant factors of B: the halving `smith_group_oracle` rests on
    r, c = b.rows, b.cols
    bt = b.transpose()
    full = IntMatrix.from_rows([{r + j: v for j, v in b.pairs(i)} for i in range(r)]
                               + [dict(bt.pairs(j)) for j in range(c)], r + c)
    half = snf(b)
    inv = snf(full)
    assert inv.factors == tuple(d for d in half.factors for _ in (0, 1))
    assert inv.zero_count == r + c - 2 * len(half.factors)


small_entries = st.integers(-6, 6)
# within 2 of +-2^14, +-2^30 and +-2^62, the limits of the packed tail's
# 16, 32 and 64-bit slots, and up to +-2^80, which no 64-bit slot holds
near_slot_limit = st.builds(lambda sign, e, d: sign * (2 ** e + d),
                            st.sampled_from((1, -1)), st.sampled_from((14, 30, 62)),
                            st.integers(-2, 2))


@given(st.one_of(int_matrices(24, small_entries),
                 int_matrices(24, st.one_of(small_entries, near_slot_limit)),
                 int_matrices(24, st.one_of(small_entries,
                                            st.integers(-2 ** 80, 2 ** 80)))))
def test_snf_same_with_and_without_the_packed_tail(m):
    # a fill fraction of 0 packs the block before the first pivot, and one
    # of inf keeps the dict loop to the end
    with patch.object(bigmat, "_DENSE_FILL", 0):
        packed = snf(m)
    with patch.object(bigmat, "_DENSE_FILL", inf):
        assert snf(m) == packed


# often zero, so that zero rows, zero columns and sparse rows occur
product_entries = st.one_of(st.just(0), st.integers(-10**6, 10**6))


@given(st.one_of(int_matrices(5, st.integers()), int_matrices(5, product_entries)))
def test_to_text_from_text_round_trip(m):
    assert from_text(to_text(m)) == m
    # the dense copy, handed back as {col: value} dicts with its zeros
    # spelled out, gives equal storage
    grid = m.row_lists()
    built = IntMatrix.from_rows([dict(enumerate(row)) for row in grid], m.cols)
    assert built == m and hash(built) == hash(m)


# every C0 control but \n, DEL, and characters that int(), str.split or
# str.splitlines read but to_text never writes
foreign_chars = st.sampled_from([chr(c) for c in range(32) if c != 10]
                                + ["\x7f", "+", "_", "\u0661", "\x85", "\u2028"])


@given(int_matrices(5, st.integers()), foreign_chars, st.data())
def test_from_text_refuses_a_character_to_text_never_writes(m, char, data):
    text = to_text(m)
    at = data.draw(st.integers(0, len(text)))
    with pytest.raises(ValueError):
        from_text(text[:at] + char + text[at:])


@given(int_matrices(5, product_entries), int_matrices(5, product_entries),
       st.integers(-3, 3), st.data())
def test_sparse_operations_match_dense_lists(a, b, c, data):
    grid = a.row_lists()
    assert a.transpose() == from_grid([list(col) for col in zip(*grid)]
                                      if a.rows else [[]] * a.cols, a.rows)
    assert a.scale(c) == from_grid([[c * x for x in row] for row in grid], a.cols)
    assert a - a == IntMatrix.zeros(a.rows, a.cols)
    ri = data.draw(st.lists(st.integers(0, a.rows - 1), max_size=6)) if a.rows else []
    ci = data.draw(st.lists(st.integers(0, a.cols - 1), max_size=6)) if a.cols else []
    assert a.submatrix(ri, ci) == from_grid([[grid[i][j] for j in ci] for i in ri],
                                            len(ci))
    if (a.rows, a.cols) == (b.rows, b.cols):
        assert a + b == from_grid([[x + y for x, y in zip(r, s)]
                                   for r, s in zip(grid, b.row_lists())], a.cols)


@given(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5), st.data())
def test_matmul_matches_triple_loop(rows, inner, cols, data):
    a = _grid(data.draw, rows, inner, product_entries)
    b = _grid(data.draw, inner, cols, product_entries)
    expected = [[sum(a[i][k] * b[k][j] for k in range(inner))
                 for j in range(cols)] for i in range(rows)]
    product = from_grid(a, inner) @ from_grid(b, cols)
    assert (product.rows, product.cols) == (rows, cols)
    assert product == from_grid(expected, cols)


class Level(IntEnum):
    HIGH = 7


class TruthyZero(int):
    def __bool__(self):
        return True


@given(st.integers(1, 4), st.integers(1, 4), st.data(),
       st.sampled_from((True, False, 1.0, -2.5, "1")))
def test_intmatrix_rejects_non_integer_entry_anywhere(rows, cols, data, bad):
    grid = _grid(data.draw, rows, cols, st.integers())
    i = data.draw(st.integers(0, rows - 1))
    j = data.draw(st.integers(0, cols - 1))
    grid[i][j] = bad
    with pytest.raises(TypeError):
        IntMatrix.from_rows([dict(enumerate(row)) for row in grid], cols)
    with pytest.raises(TypeError):
        IntMatrix.from_rows([{bad: 1}], 2)


@given(st.integers(0, 4), st.integers(0, 4), st.data(),
       st.one_of(st.integers(-10, -1), st.integers(0, 10)))
def test_from_rows_refuses_column_out_of_range(rows, cols, data, offset):
    grid = _grid(data.draw, rows, cols, st.integers())
    dicts = [dict(enumerate(row)) for row in grid] + [{}]
    # a negative offset is a negative column, any other lands at cols or above
    dicts[data.draw(st.integers(0, rows))][offset if offset < 0 else cols + offset] = 1
    with pytest.raises(ValueError, match="column outside"):
        IntMatrix.from_rows(dicts, cols)


@given(st.integers(1, 4), st.integers(1, 4), st.data(),
       st.sampled_from((Level.HIGH, TruthyZero(0), TruthyZero(5))))
def test_intmatrix_refuses_int_subclass_entry(rows, cols, data, bad):
    # entries are plain ints, as columns and counts are: a zero that is
    # truthy would otherwise be stored
    grid = _grid(data.draw, rows, cols, st.integers())
    i = data.draw(st.integers(0, rows - 1))
    j = data.draw(st.integers(0, cols - 1))
    grid[i][j] = bad
    message = f"^non-integer entry {re.escape(repr(bad))}$"
    with pytest.raises(TypeError, match=message):
        IntMatrix.from_rows([dict(enumerate(row)) for row in grid], cols)
    with pytest.raises(TypeError, match=message):
        IntMatrix.from_rows([{j: bad}], cols)
