import copy
import hashlib
import importlib.util
import pickle
import random
import time
import tracemalloc
import typing
from pathlib import Path

import pytest

import smithcube
from smithcube import bigmat
from smithcube.bigmat import (SIZE_CAP, IntMatrix, InvariantFactors, from_text,
                              snf, to_text, two_adic_counts)
from smithcube.cube import adjacency, laplacian, vertex_order
from smithcube.reduction import (_factor_small, build_condensed,
                                 reduce_condensed, smith_group)

from grids import from_grid, valuation


def test_snf_coprime_diagonal():
    assert snf(IntMatrix.diagonal([2, 3])) == InvariantFactors((1, 6), 0)


def test_snf_four_cycle():
    # adjacency matrix of the 4-cycle: rows repeat pairwise
    c4 = from_grid([[0, 1, 1, 0], [1, 0, 0, 1], [1, 0, 0, 1], [0, 1, 1, 0]])
    assert snf(c4) == InvariantFactors((1, 1), 2)


def test_snf_zero_and_empty():
    assert snf(IntMatrix.zeros(3, 5)) == InvariantFactors((), 3)
    assert snf(IntMatrix.zeros(0, 4)) == InvariantFactors((), 0)


def test_snf_rectangular():
    m = from_grid([[2, 4, 4], [-6, 6, 12]])
    inv = snf(m)
    assert inv.zero_count == 0
    assert len(inv.factors) == 2
    assert inv.factors[1] % inv.factors[0] == 0


def test_snf_of_diagonal_sorts_factors():
    d = IntMatrix.diagonal((3, 3, 1, 1, 1, 1, 1, 1))
    assert snf(d).factors == (1, 1, 1, 1, 1, 1, 3, 3)


def test_snf_of_diagonal_counts_zero_entries():
    inv = snf(IntMatrix.diagonal((1,) * 8 + (2, 2) + (0,) * 6))
    assert inv.factors == (1,) * 8 + (2, 2)
    assert inv.zero_count == 6


def test_snf_of_diagonal_drops_signs():
    assert snf(IntMatrix.diagonal((-5,))).factors == (5,)


def test_invariant_factors_validation():
    for factors, zero_count, error in [
            ((2, 3), 0, ValueError), ((0, 2), 0, ValueError),
            ((1, 2), -3, ValueError),
            ((1, 2), True, TypeError), ((1, 2), 2.0, TypeError),
            # a list would leave the record unhashable and its checked
            # chain open to appends
            ([1, 2], 0, TypeError), ((1, True), 0, TypeError),
            ((1, 2.0), 0, TypeError)]:
        with pytest.raises(error):
            InvariantFactors(factors, zero_count)


# one instance of each immutable record, with its field names
RECORDS = {
    "InvariantFactors": (lambda: InvariantFactors((1, 6), 0),
                         ("factors", "zero_count")),
    "CondensedMatrix": (lambda: build_condensed(3),
                        ("m", "precision", "entries", "weights")),
    "ReductionStep": (lambda: reduce_condensed(build_condensed(3)),
                      ("odd_pivots", "even_residual", "odd_residual")),
    "SmithGroupSummary": (lambda: smith_group(4), ("n", "free_rank", "nonzero")),
}


@pytest.mark.parametrize("name", RECORDS)
def test_records_are_immutable_and_equal_by_class_and_fields(name):
    make, fields = RECORDS[name]
    rec = make()
    cls = type(rec)
    assert cls.__name__ == name
    values = tuple(getattr(rec, f) for f in fields)
    for f, v in zip(fields, values):
        with pytest.raises(AttributeError):
            setattr(rec, f, v)
        with pytest.raises(AttributeError):
            delattr(rec, f)
    with pytest.raises(AttributeError):
        rec.extra = 1
    twin = cls(*values)
    assert twin == rec and not twin != rec
    assert copy.copy(rec) == rec
    assert copy.deepcopy(rec) == rec
    assert pickle.loads(pickle.dumps(rec)) == rec

    class Other(cls):
        pass

    assert Other(*values) != rec and rec != Other(*values)
    assert rec != values
    try:
        hash(values)
    except TypeError:
        with pytest.raises(TypeError):
            hash(rec)
    else:
        assert hash(twin) == hash(rec)


# (c_0, ..., c_11) of A(n) and of L(n) = nI - A(n), trailing zeros left
# out, recorded from the 2-adic tallies of their `snf` invariant factors
TWO_ADIC_GOLDEN = {
    1: ((2,), (1,)),
    2: ((2,), (2, 0, 1)),
    3: ((8,), (4, 1, 0, 2)),
    4: ((8, 2), (8, 2, 0, 4, 0, 1)),
    5: ((32,), (16, 6, 0, 4, 1, 0, 4)),
    6: ((32, 12), (32, 12, 4, 1, 0, 4, 10)),
    7: ((128,), (64, 28, 1, 0, 8, 6, 14, 6)),
    8: ((128, 56, 2), (128, 56, 2, 0, 16, 12, 28, 12, 0, 0, 1)),
}


def test_two_adic_counts_golden_cube_matrices():
    for n, golden in TWO_ADIC_GOLDEN.items():
        for matrix, counts in zip((adjacency(n), laplacian(n)), golden):
            for e in (1, 3, 12):
                padded = counts + (0,) * 12
                assert two_adic_counts(matrix, e) == padded[:e], (n, e)


def test_two_adic_counts_edges():
    # 8 = 2^3 is zero mod 2^3, so no divisor lies below 2^3
    assert two_adic_counts(IntMatrix.diagonal([8, 8]), 3) == (0, 0, 0)
    assert two_adic_counts(IntMatrix.diagonal([8, 8]), 4) == (0, 0, 0, 2)
    assert two_adic_counts(IntMatrix.zeros(0, 3), 2) == (0, 0)
    assert two_adic_counts(IntMatrix.zeros(3, 0), 2) == (0, 0)
    # True would run as e = 1, and 2.5 would fail inside a shift
    for e, error in [(0, ValueError), (-1, ValueError), (True, TypeError),
                     (2.5, TypeError)]:
        with pytest.raises(error, match="^e must be"):
            two_adic_counts(IntMatrix.identity(2), e)


def test_determinant_values():
    assert from_grid([[1, 2], [3, 4]]).determinant() == -2
    assert from_grid([[2, 0, 1], [0, 3, 0], [1, 0, 1]]).determinant() == 3
    assert IntMatrix.zeros(3, 3).determinant() == 0
    assert IntMatrix.identity(5).determinant() == 1
    assert IntMatrix.diagonal([1, 2]).determinant() == 2
    with pytest.raises(ValueError):
        IntMatrix.zeros(2, 3).determinant()


def test_constructors_and_errors():
    m = from_grid([[1, 2], [3, 4]])
    assert m.transpose().transpose() == m
    assert IntMatrix.identity(2) @ m == m
    assert IntMatrix.identity(0) == IntMatrix.zeros(0, 0)
    assert IntMatrix.identity(3) == from_grid([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(ValueError):
        m @ IntMatrix.identity(3)
    with pytest.raises(TypeError):
        from_grid([[1.5]])
    with pytest.raises(TypeError, match="True"):
        from_grid([[1, True]])
    # from_rows is the one builder: the bare class would store rows unchecked
    for args in (([[1]],), (1, 1, ((),))):
        with pytest.raises(TypeError, match="from_rows"):
            IntMatrix(*args)


@pytest.mark.parametrize("cols, error", [(-5, ValueError), (2.5, TypeError),
                                         (True, TypeError)])
def test_from_rows_checks_its_column_count(cols, error):
    # checked before any row is read: IntMatrix(1x-5) would report
    # zero_count -5 and write a header that from_text refuses
    with pytest.raises(error):
        IntMatrix.from_rows([{}], cols)


@pytest.mark.parametrize("n, error", [(-3, ValueError), (True, TypeError),
                                      (2.5, TypeError)])
def test_identity_checks_its_side(n, error):
    # built by from_rows, so no IntMatrix(0x-3) or IntMatrix(1xTrue)
    with pytest.raises(error):
        IntMatrix.identity(n)


@pytest.mark.parametrize("rows, cols, error", [
    (2, True, TypeError), (True, 3, TypeError), (2.5, 1, TypeError),
    (2, -1, ValueError), (-1, 2, ValueError),
])
def test_zeros_checks_both_dimensions(rows, cols, error):
    # checked like from_rows' column count: no IntMatrix(2xTrue), and
    # zeros(True, 3) is not a one-row matrix
    with pytest.raises(error):
        IntMatrix.zeros(rows, cols)


def test_annotations_resolve():
    # every name an annotation uses is bound in its module
    for name in smithcube.__all__:
        value = getattr(smithcube, name)
        if callable(value):
            typing.get_type_hints(value)
    for name, value in vars(IntMatrix).items():
        value = getattr(value, "__func__", value)
        if callable(value):
            typing.get_type_hints(value)
    hints = typing.get_type_hints(IntMatrix.from_rows)
    assert hints["return"] is IntMatrix


def test_from_rows_and_submatrix():
    b = from_grid([[3], [4]])
    bd = IntMatrix.from_rows([{0: 1, 1: 2}, {2: 3}, {2: 4}], 3)
    assert bd == from_grid([[1, 2, 0], [0, 0, 3], [0, 0, 4]])
    assert bd.submatrix([1, 2], [2]) == b
    with pytest.raises(IndexError):
        bd.submatrix([3], [0])


def test_immutability():
    m = IntMatrix.identity(2)
    with pytest.raises(AttributeError):
        m.rows = 3
    with pytest.raises(AttributeError):
        del m.rows
    for twin in (copy.copy(m), copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
        assert type(twin) is IntMatrix and twin == m and hash(twin) == hash(m)
        with pytest.raises(AttributeError):
            twin.cols = 5
    assert hash(from_grid([[1, 0], [0, 1]])) == hash(m)
    assert m != object() and not m == object()


def test_text_round_trip():
    m = from_grid([[0, -7, 3], [0, 0, 0], [12345678901234567890, 0, -1]])
    assert from_text(to_text(m)) == m
    z = IntMatrix.zeros(2, 2)
    assert from_text(to_text(z)) == z


def test_text_format_shape():
    m = from_grid([[0, 5], [0, 0]])
    assert to_text(m) == "2 2\n1 2 5\n0 0 0\n"


def test_text_parse_errors():
    with pytest.raises(ValueError):
        from_text("2 2\n1 1 1\n")  # missing terminator
    with pytest.raises(ValueError):
        from_text("2 2\n3 1 1\n0 0 0\n")  # out of bounds
    with pytest.raises(ValueError):
        from_text("")
    with pytest.raises(ValueError, match=r"duplicate entry \(1, 1\)"):
        from_text("2 2\n1 1 5\n1 1 7\n0 0 0\n")
    with pytest.raises(ValueError, match="after the 0 0 0 terminator"):
        from_text("2 2\n1 1 5\n0 0 0\n2 2 1\n")
    with pytest.raises(ValueError, match="after the 0 0 0 terminator"):
        from_text("2 2\n0 0 0\n\n0 0 0\n")
    assert from_text("2 2\n1 1 5\n0 0 0\n\n  \n") == from_grid([[5, 0], [0, 0]])
    # to_text writes no zero entry; bounds and duplicates are named first
    with pytest.raises(ValueError, match=r"^zero entry \(1, 2\)$"):
        from_text("2 2\n1 2 0\n0 0 0\n")
    with pytest.raises(ValueError, match=r"^entry \(3, 1\) out of bounds$"):
        from_text("2 2\n3 1 0\n0 0 0\n")
    with pytest.raises(ValueError, match=r"^duplicate entry \(1, 1\)$"):
        from_text("2 2\n1 1 5\n1 1 0\n0 0 0\n")
    assert from_text("0 0\n0 0 0\n") == IntMatrix.zeros(0, 0)
    assert from_text("2 0\n0 0 0\n") == IntMatrix.zeros(2, 0)


@pytest.mark.parametrize("text, count, line", [
    ("2\n0 0 0\n", 2, "2"), ("2 2 2\n0 0 0\n", 2, "2 2 2"),
    ("2 x\n0 0 0\n", 2, "2 x"), ("2 2\n1 1\n0 0 0\n", 3, "1 1"),
    ("2 2\n1 1 1 1\n0 0 0\n", 3, "1 1 1 1"), ("2 2\n1 1 1.5\n0 0 0\n", 3, "1 1 1.5"),
    # int() reads these as 10, 1 and 12, but to_text writes only -?[0-9]+
    ("2 2\n1 1 1_0\n0 0 0\n", 3, "1 1 1_0"), ("2 2\n1 1 +1\n0 0 0\n", 3, "1 1 +1"),
    ("2 2\n1 1 \u0661\u0662\n0 0 0\n", 3, "1 1 \u0661\u0662"),
    ("+2 2\n0 0 0\n", 2, "+2 2"),
    # splitlines and split() read these control characters as separators,
    # but to_text separates only with the space and \n
    ("1 1\x1c1 1 5\x0c0 0 0\n", 2, "1 1\x1c1 1 5\x0c0 0 0"),
    ("1\x1f1\n1 1 5\n0 0 0\n", 2, "1\x1f1"), ("2 2\n1\t1 5\n0 0 0\n", 3, "1\t1 5"),
    ("2 2\r\n1 1 5\r\n0 0 0\r\n", 2, "2 2\r"), ("2 2\n1 1 5\x00\n0 0 0\n", 3, "1 1 5\x00"),
    # a text outside the alphabet is refused at its first foreign line, even
    # after an entry out of bounds, a duplicate entry or the terminator
    ("2 2\n3 1 1\n1\t1 5\n0 0 0\n", 3, "1\t1 5"),
    ("2 2\n1 1 5\n1 1 5\n1\t1 5\n0 0 0\n", 3, "1\t1 5"),
    ("2 2\n0 0 0\n1\t1 5\n", 3, "1\t1 5"),
    # int() reads a leading zero and -0, but to_text never writes them; such
    # a word is refused like a foreign character, first line first
    ("007 1\n0 0 0\n", 2, "007 1"), ("02 2\n0 0 0\n", 2, "02 2"),
    ("2 2\n00 1 1\n0 0 0\n", 3, "00 1 1"), ("2 2\n1 1 -01\n0 0 0\n", 3, "1 1 -01"),
    ("2 2\n1 1 -0\n0 0 0\n", 3, "1 1 -0"), ("2 2\n1 1 5\n-0 0 0\n", 3, "-0 0 0"),
    ("2 2\n3 1 1\n1 1 05\n0 0 0\n", 3, "1 1 05"),
    ("2 2\n1 2 07\n1\t1 5\n0 0 0\n", 3, "1 2 07"),
    ("2 2\n1 1\t5\n1 2 07\n0 0 0\n", 3, "1 1\t5"),
])
def test_text_parse_names_a_line_of_the_wrong_shape(text, count, line):
    with pytest.raises(ValueError) as err:
        from_text(text)
    assert str(err.value) == f"expected {count} integers, got line {line!r}"


@pytest.mark.parametrize("line", ["1 1 " + "0" * 10 ** 6,
                                  "1 1" + "0" * 10 ** 6 + " 07"],
                         ids=["leading-zeros", "zeros-then-07"])
def test_text_refuses_a_line_of_a_million_digits_in_linear_time(line):
    start = time.perf_counter()
    with pytest.raises(ValueError, match="^expected 3 integers, got line '1 1"):
        from_text(f"1 1\n{line}\n0 0 0\n")
    assert time.perf_counter() - start < 1


def test_text_header_side_is_capped_before_allocation():
    side = 1 << SIZE_CAP
    assert from_text(f"{side} 1\n{side} 1 7\n0 0 0\n").rows == side
    assert from_text(f"1 {side}\n1 {side} 7\n0 0 0\n").cols == side
    for header in (f"{side + 1} 1", f"1 {side + 1}", "-1 2", "2 -1"):
        with pytest.raises(ValueError, match=f"^header {header}: each side must lie in"):
            from_text(f"{header}\n0 0 0\n")
    # a header of 10^11 rows would need terabytes of row dicts
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="^header 100000000000 1: "):
            from_text("100000000000 1\n0 0 0\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def _perfbench_inputs():
    """The benchmark's seeded input builders, `perfbench/inputs.py`."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return inputs


def _random_matrix(rng, rows, cols, lo=-6, hi=6):
    return from_grid([[rng.randint(lo, hi) for _ in range(cols)]
                      for _ in range(rows)])


def _spied(monkeypatch, name):
    """Calls of bigmat.`name` from here on, each recorded as one entry."""
    calls = []
    real = getattr(bigmat, name)

    def spy(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(bigmat, name, spy)
    return calls


def test_packed_tail_finishes_a_dense_block(monkeypatch):
    # forced from the first pivot on, the packed rows finish each of A(6)'s
    # two components in 16-bit slots and give its closed form
    monkeypatch.setattr(bigmat, "_DENSE_FILL", 0)
    packs, tails = _spied(monkeypatch, "_pack_row"), _spied(monkeypatch, "_packed_tail")
    assert snf(adjacency(6)) == InvariantFactors((1,) * 32 + (2,) * 10 + (6,) * 2, 20)
    assert len(tails) == 2 and {bits for _, bits, _ in packs} == {16}


def test_packed_tail_switches_per_component(monkeypatch):
    # a relabelled A(8) is two components of 128 rows that share no column;
    # each reaches the fill test, and the packed tail, on its own
    m = from_text(_perfbench_inputs().relabellings(1)[0])
    answer = snf(adjacency(8))
    calls = _spied(monkeypatch, "_packed_tail")
    assert snf(m) == answer
    assert len(calls) == 2
    for rows, cols in calls:
        assert 0 < len(rows) <= 128 and 0 < len(cols) <= 128


def test_packed_tail_widens_at_the_slot_limit(monkeypatch):
    # pivot 3 leaves remainder 1, and clearing the 3 under that new pivot
    # would add 3 * 2^61 to the other row: the bound stays at 2^62 once
    # made exact, so both rows are repacked in 128-bit slots
    m = from_grid([[1, 2 ** 61], [3, 0]])
    answer = InvariantFactors((1, 3 * 2 ** 61), 0)
    monkeypatch.setattr(bigmat, "_DENSE_FILL", float("inf"))
    assert snf(m) == answer
    monkeypatch.setattr(bigmat, "_DENSE_FILL", 0)
    packs = _spied(monkeypatch, "_pack_row")
    assert snf(m) == answer
    assert [bits for _, bits, _ in packs] == [64, 64, 128, 128]


def _random_draw(seed, n=300, density=0.02):
    """An n x n matrix in which each cell, with probability `density`, is
    drawn from -2..2."""
    rng = random.Random(seed)
    return IntMatrix.from_rows(({c: v for c in range(n) if rng.random() < density
                                 for v in (rng.randint(-2, 2),) if v}
                                for _ in range(n)), n)


def test_packed_tail_widens_on_a_random_draw(monkeypatch):
    # the draw is one component; its packed entries outgrow 16, 32, 64 and
    # 128-bit slots with rows still active, and the tail finishes them in
    # 256-bit slots with the dict loop's answer
    m = _random_draw(1)
    packs, tails = _spied(monkeypatch, "_pack_row"), _spied(monkeypatch, "_packed_tail")
    answer = snf(m)
    assert len(tails) == 1
    assert sorted({bits for _, bits, _ in packs}) == [16, 32, 64, 128, 256]
    monkeypatch.setattr(bigmat, "_DENSE_FILL", float("inf"))
    assert snf(m) == answer and len(tails) == 1


@pytest.mark.parametrize("grid, bits", [
    ([[0, 1, 1, 0], [1, 0, 0, 1], [1, 0, 0, 1], [0, 1, 1, 0]], 16),
    ([[2 ** 62, 1], [1, 1]], 128),  # starts wide
    ([[1, 2 ** 61], [3, 0]], 128)])  # widens
def test_packed_tail_writes_neither_argument(monkeypatch, grid, bits):
    # bits is the widest slot the tail packs; its diagonal has the dict
    # loop's invariant factors
    m = from_grid(grid)
    rows = {i: dict(m.pairs(i)) for i in range(len(grid))}
    cols: dict = {}
    for i, row in rows.items():
        for c in row:
            cols.setdefault(c, set()).add(i)
    before = copy.deepcopy((rows, cols))
    packs = _spied(monkeypatch, "_pack_row")
    found = bigmat._packed_tail(rows, cols)
    assert (rows, cols) == before
    assert max(b for _, b, _ in packs) == bits
    monkeypatch.setattr(bigmat, "_DENSE_FILL", float("inf"))
    assert tuple(bigmat._divisibility_chain(found)) == snf(m).factors


def test_packed_tail_finishes_entries_past_the_slot_limit(monkeypatch):
    # the first slots are the narrowest whose quarter range holds the
    # largest entry; 2^61 widens on its first update
    packs = _spied(monkeypatch, "_pack_row")
    for big, first in ((2 ** 61, 64), (2 ** 62 - 1, 64), (2 ** 62, 128),
                       (-2 ** 62, 128), (2 ** 80, 128)):
        m = from_grid([[big, 1], [1, 1]])
        answer = InvariantFactors((1, abs(big - 1)), 0)
        monkeypatch.setattr(bigmat, "_DENSE_FILL", float("inf"))
        assert snf(m) == answer
        monkeypatch.setattr(bigmat, "_DENSE_FILL", 0)
        packs.clear()
        assert snf(m) == answer
        assert packs[0][1] == first
        assert max(bits for _, bits, _ in packs) == 128


def test_snf_of_a_long_path_is_the_identity_form():
    # one sparse component of 16384 rows: neither the fill test nor the
    # pivot search rescans its rows, so this is linear (18.8 s when both
    # scanned every active row at each pivot)
    n = 1 << 14
    path = IntMatrix.from_rows(({i: 1, i + 1: 1} if i + 1 < n else {i: 1}
                                for i in range(n)), n)
    t0 = time.process_time()
    assert snf(path) == InvariantFactors((1,) * n, 0)
    assert time.process_time() - t0 < 5.0


def _bipartite_block(n):
    odd = [s.bit_count() & 1 for s in vertex_order(n)]
    return adjacency(n).submatrix([i for i, o in enumerate(odd) if not o],
                                  [i for i, o in enumerate(odd) if o])


# sha256 of one "factors zero_count" line per snf, for the bipartite blocks
# of Q_2..Q_10 and then the 8 relabellings of A(8) of each of the benchmark
# seeds 1, 2 and 3, recorded with the dict-only elimination
SNF_DIGEST = "98934527df9182a65a34dae21a4b838708ae68f09f511b4ac4821da7633ba856"


def test_snf_of_cube_blocks_and_relabellings_keeps_its_digest():
    inputs = _perfbench_inputs()
    matrices = [_bipartite_block(n) for n in range(2, 11)]
    matrices += [from_text(t) for seed in (1, 2, 3) for t in inputs.relabellings(seed)]
    digest = hashlib.sha256()
    for m in matrices:
        inv = snf(m)
        digest.update(f"{inv.factors} {inv.zero_count}\n".encode())
    assert digest.hexdigest() == SNF_DIGEST


# sha256 of the raw diagonal list `_eliminate` returns, one line each, for
# the same matrices; recorded with the pivot search that rescanned the
# active rows and 64-bit slots only, whose packed tail finished on each
ELIMINATE_DIGEST = "4d802cdb584cc97085dceb79440e33335d6abbb01e0f257b40e31a183b33ed76"


def test_eliminate_keeps_its_pivot_order():
    inputs = _perfbench_inputs()
    matrices = [_bipartite_block(n) for n in range(2, 11)]
    matrices += [from_text(t) for seed in (1, 2, 3) for t in inputs.relabellings(seed)]
    digest = hashlib.sha256()
    for m in matrices:
        digest.update(f"{bigmat._eliminate(m)}\n".encode())
    assert digest.hexdigest() == ELIMINATE_DIGEST


def test_snf_transpose_invariance():
    rng = random.Random(7)
    for _ in range(20):
        m = _random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        a, b = snf(m), snf(m.transpose())
        assert a.factors == b.factors


def _p_table(m, p):
    """{e: multiplicity of p^e} among the elementary divisors of m,
    tallied from the invariant factors of `snf`."""
    inv = snf(m)
    mult: dict = {}
    for d in inv.factors:
        e = valuation(d, p)
        mult[e] = mult.get(e, 0) + 1
    return mult


def test_p_tables_rebuild_invariant_factors():
    # along a divisibility chain the p-adic valuations never fall, so the
    # tables of the primes dividing the factors, exponents in increasing
    # order, give back every factor position by position
    rng = random.Random(99)
    for _ in range(15):
        m = _random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4), -9, 9)
        inv = snf(m)
        # every factor divides the last one, so its primes are all of them
        primes = _factor_small(inv.factors[-1]) if inv.factors else {}
        rebuilt = [1] * len(inv.factors)
        for p in primes:
            t = _p_table(m, p)
            assert sum(t.values()) == len(inv.factors)
            exps = [e for e in sorted(t) for _ in range(t[e])]
            rebuilt = [r * p ** e for r, e in zip(rebuilt, exps)]
        assert tuple(rebuilt) == inv.factors


def test_diagonal_conversion_preserves_valuations():
    rng = random.Random(5)
    for _ in range(20):
        entries = tuple(rng.choice([-1, 1]) * rng.randint(1, 60)
                        for _ in range(rng.randint(1, 8)))
        inv = snf(IntMatrix.diagonal(entries))
        for p in (2, 3, 5, 7):
            assert sorted(valuation(abs(e), p) for e in entries) == \
                sorted(valuation(f, p) for f in inv.factors)
