import json
from fractions import Fraction
from itertools import accumulate
from math import comb

import pytest

from smithcube import bigmat, canonical, cli, cube, reduction, subsets
from smithcube.bigmat import IntMatrix, snf
from smithcube.canonical import wilson_form
from smithcube.cube import adjacency, build_M
from smithcube.reduction import (CondensedMatrix, SmithGroupSummary, build_B,
                                 build_condensed, eigenvalue_diagonal,
                                 invariant_factor_rle,
                                 laplacian_partial_check, reduce_condensed,
                                 same_group, smith_group, smith_group_oracle,
                                 smith_group_reduction, stacked_basis,
                                 two_local_divisors_of_M, verify_conjecture)
from smithcube.subsets import count_full_rank

from grids import from_grid, valuation

# displayed conjugated half block for the 4-cube
B4 = from_grid([[4, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0],
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
        assert (stacked_basis(n, m - 1) @ build_M(n)
                == build_B(n) @ stacked_basis(n, m)), n


def test_B_is_unimodularly_equivalent_to_M():
    for n in (4, 6):
        assert snf(build_B(n)) == snf(build_M(n))


def test_stacked_basis_shape():
    assert stacked_basis(4, 2).rows == 1 + 4 + 6


def test_build_condensed_shapes():
    c = build_condensed(5)
    # chain k holds the rows (i, k), i = k..5: 15 rows in all
    assert [len(chain) for chain in c.entries] == [5, 4, 3, 2, 1]
    assert sum(map(len, c.entries)) == 15
    c1 = build_condensed(1)
    # one chain of one position: the even entry 2 left of the diagonal 1
    assert c1.entries == ((2,),)
    assert c1.entries[0][0] == 2
    assert c1.weights == (1,)


def test_build_condensed_refuses_above_the_row_cap():
    # m = 723 (261726 rows) is the last m within the cap; CI builds it
    for m, rows in ((724, 262450), (10**6, 500000500000)):
        with pytest.raises(ValueError, match=(
                f"^n={2 * m} needs {rows} condensed rows, above the cap "
                r"262144 \(n <= 1446\)$")):
            build_condensed(m)


def test_build_condensed_rejects_negative_m():
    for m in (-1, -2):
        with pytest.raises(ValueError, match=f"m must be >= 0, got {m}$"):
            build_condensed(m)
        with pytest.raises(ValueError, match=f"^m must be >= 0, got {m}$"):
            CondensedMatrix(m, 1, (), ())
    assert build_condensed(0).entries == ()
    for m in (1, 2, 5, 64):
        c = build_condensed(m)
        assert c.precision == m + m.bit_length() + 2
        assert c.entries[0][0] == 2 * m


def _expand_shadow(c: CondensedMatrix) -> IntMatrix:
    """The condensed shadow c of n = 2m written out in B's order: position j
    of chain k is shadow row a = k+j-1 and stands for w_k rows of B in block
    a-1, at positions p from w_1 + ... + w_{k-1} on; each holds the residue
    at column p of block a-1 and j at column p of block a."""
    n = 2 * c.m
    ends = list(accumulate((comb(n, b) for b in range(c.m + 1)), initial=0))
    rows = []
    for a in range(1, c.m + 1):
        p = 0
        for k in range(1, a + 1):
            j = a + 1 - k
            for _ in range(c.weights[k - 1]):
                rows.append({ends[a - 1] + p: c.entries[k - 1][j - 1], ends[a] + p: j})
                p += 1
    return IntMatrix.from_rows(rows, ends[-1])


def test_B_is_the_sum_of_the_shadow_chains():
    for n in range(2, 15, 2):
        assert _expand_shadow(build_condensed(n // 2)) == build_B(n), n


def test_shadow_expansion_sees_one_changed_value(monkeypatch):
    n = 8
    c, b = build_condensed(n // 2), build_B(n)
    entries, weights = list(c.entries), list(c.weights)
    entries[1] = (entries[1][0] + 2, *entries[1][1:])
    weights[2] += 1
    for changed in (CondensedMatrix(c.m, c.precision, tuple(entries), c.weights),
                    CondensedMatrix(c.m, c.precision, c.entries, tuple(weights))):
        assert _expand_shadow(changed) != b
    diagonal = canonical.wilson_diagonal

    def one_entry_off(n, t, k):
        d = diagonal(n, t, k)
        return d if (t, k) != (2, 3) else (*d[:-1], d[-1] + 1)

    monkeypatch.setattr(canonical, "wilson_diagonal", one_entry_off)
    assert _expand_shadow(c) != build_B(n)


def test_condensed_validation_rejects_bad_values():
    c = build_condensed(2)
    assert (c.entries, c.weights) == (((4, 2), (2,)), (1, 3))
    for value, message in (
            (3, "odd entry"),  # even diagonal must stay even
            (0, "not a residue"),
            ((1 << c.precision) + 4, "not a residue"),  # not reduced
            (-4, "not a residue")):
        with pytest.raises(ValueError, match=message):
            CondensedMatrix(2, c.precision, ((value, 2), (2,)), c.weights)
    for entries, weights, message in (
            (((4, 2), (2, 2)), c.weights, "chain 2 has length 2, not 1"),
            (((4,), (2,)), c.weights, "chain 1 has length 1, not 2"),
            (((4, 2),), c.weights, "expected 2 chains and 2 weights, got 1 and 2"),
            (c.entries, (1,), "expected 2 chains and 2 weights, got 2 and 1"),
            (c.entries, (1, 0), "non-positive weight"),
            (c.entries, (-1, 3), "non-positive weight")):
        with pytest.raises(ValueError, match=message):
            CondensedMatrix(2, c.precision, entries, weights)


def test_condensed_validation_rejects_bad_types():
    c = build_condensed(2)
    good = (2, c.precision, c.entries, c.weights)
    for field, value in ((0, 1.5), (0, True), (1, 6.0), (1, False),
                         (2, [(4, 2), (2,)]), (2, ([4, 2], (2,))),
                         (2, ((4.0, 2), (2,))), (2, ((4, 2), (True,))),
                         (3, [1, 3]), (3, (1, 3.0)), (3, (True, 3))):
        fields = list(good)
        fields[field] = value
        with pytest.raises(TypeError):
            CondensedMatrix(*fields)
    # a negative precision once failed in Python's shift, and a zero one
    # leaves no room for any residue
    for precision in (0, -1):
        with pytest.raises(ValueError, match=f"^precision must be >= 1, got {precision}$"):
            CondensedMatrix(0, precision, (), ())
    assert CondensedMatrix(0, 1, (), ()).m == 0


def test_reduce_condensed_m1():
    step = reduce_condensed(build_condensed(1))
    assert step.odd_pivots == ((1, 1),)
    assert step.even_residual.m == 0
    assert step.odd_residual.m == 0
    assert step.even_residual.entries == ()
    assert step.odd_residual.entries == ()


def test_reduce_condensed_m0():
    # the odd residual of m = 0 was once sized (0 - 1) // 2 = -1
    step = reduce_condensed(build_condensed(0))
    assert step.odd_pivots == ()
    for residual in (step.even_residual, step.odd_residual):
        assert (residual.m, residual.entries, residual.weights) == (0, (), ())


def test_reduce_condensed_m2():
    # rows (1,1),(2,1),(2,2); odd exact values at (1,1) and (2,2)
    step = reduce_condensed(build_condensed(2))
    assert sorted(step.odd_pivots) == [(1, 1), (1, 3)]
    # the surviving row (2,1) has even block index: one half-size copy
    assert step.even_residual.m == 1
    assert step.odd_residual.m == 0
    assert step.even_residual.weights == (count_full_rank(4, 0),)


def test_reduce_condensed_m5_residual_sizes():
    step = reduce_condensed(build_condensed(5))
    assert step.even_residual.m == 2
    assert step.odd_residual.m == 2


def test_structural_recursion_closes():
    # every reduction step of every residual must keep the two-diagonal
    # shape, for all half-sizes up to 64, and no even entry may have a
    # valuation above m, the bound that sizes the residues
    for m in range(1, 65):
        stack = [build_condensed(m)]
        while stack:
            c = stack.pop()
            assert all(valuation(v, 2) <= m for chain in c.entries for v in chain)
            if c.m == 0:
                continue
            step = reduce_condensed(c)
            stack.append(step.even_residual)
            stack.append(step.odd_residual)


def _exact_step(m: int, even: dict, weights: dict) -> tuple:
    """One reduction step over Z_(2) in Fractions, row by row.

    even maps row (i, k) to its exact even entry; the diagonal value is
    i+1-k.  A pivot row (i, k) (odd i+1-k) is dropped, and the row below it
    gets -o o' / q, halved, in the column left of the pivot's."""
    pivots = []
    halves = (({}, {}), ({}, {}))
    for i in range(1, m + 1):
        for k in range(1, i + 1):
            if (i + 1 - k) % 2:
                pivots.append((i + 1 - k, weights[(i, k)]))
                continue
            merged = -even[(i - 1, k)] * even[(i, k)] / (i - k) / 2
            parity = i % 2
            label = (i // 2, (k + 1 - parity) // 2)
            halves[parity][0][label] = merged
            halves[parity][1][label] = weights[(i, k)]
    return tuple(pivots), halves


def _row_labels(c: CondensedMatrix) -> list:
    """The rows (i, k) of c's chains: chain k holds i = k..m."""
    return [(i, k) for k in range(1, c.m + 1) for i in range(k, c.m + 1)]


def test_reduction_matches_exact_fractions():
    # each step's odd pivots and the valuation of every residual entry
    # equal an exact computation over Z_(2), for all half-sizes up to 40
    for m in range(1, 41):
        n = 2 * m
        top = build_condensed(m)
        even = {(i, k): Fraction(n - 2 * (i - 1)) for (i, k) in _row_labels(top)}
        weights = {(i, k): top.weights[k - 1] for (i, k) in _row_labels(top)}
        stack = [(top, even, weights)]
        while stack:
            c, even, weights = stack.pop()
            if c.m == 0:
                continue
            step = reduce_condensed(c)
            pivots, halves = _exact_step(c.m, even, weights)
            assert step.odd_pivots == pivots, m
            for residual, (exact, exact_weights) in zip(
                    (step.even_residual, step.odd_residual), halves):
                assert {(i, k): residual.weights[k - 1]
                        for (i, k) in _row_labels(residual)} == exact_weights, m
                for (i, k), x in exact.items():
                    v = residual.entries[k - 1][i - k]
                    assert x.denominator % 2 == 1
                    assert valuation(v, 2) == (valuation(x.numerator, 2)
                                      - valuation(x.denominator, 2)), m
                stack.append((residual, exact, exact_weights))


def test_two_local_table_is_fixed_by_the_pivot_pattern():
    # the shadow is a sum of chains k = 1..m of length L = m-k+1 and weight
    # count_full_rank(n, k-1); position j of a chain finds its odd pivot
    # after v2(j) halvings, so the table counts those positions, weighted
    for n in range(2, 97, 2):
        m = n // 2
        expected: dict = {}
        for k in range(1, m + 1):
            w = count_full_rank(n, k - 1)
            for j in range(1, m - k + 2):
                d = (j & -j).bit_length() - 1
                expected[d] = expected.get(d, 0) + w
        assert two_local_divisors_of_M(n) == expected, n


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


def test_odd_closed_form_is_the_merged_eigenvalue_diagonal():
    # odd n: no zero eigenvalue, and l and n - l give the same |n - 2l|
    for n in range(1, 202, 2):
        merged: dict = {}
        for v, c in eigenvalue_diagonal(n).items():
            merged[abs(v)] = merged.get(abs(v), 0) + c
        g = smith_group(n)
        assert g.free_rank == 0, n
        assert g.nonzero == merged, n


def test_smith_group_total_conservation():
    for n in range(1, 21):
        g = smith_group(n)
        assert g.free_rank + sum(g.nonzero.values()) == 1 << n


def test_oracle_matches_closed_form():
    for n in range(1, 10):
        assert same_group(smith_group_oracle(n), smith_group(n)), n


def test_oracle_matches_full_matrix_snf():
    # the oracle eliminates only the bipartite block B; the summary of the
    # full matrix's snf must be the same
    for n in range(1, 9):
        inv = snf(adjacency(n))
        nonzero: dict = {}
        for d in inv.factors:
            nonzero[d] = nonzero.get(d, 0) + 1
        assert smith_group_oracle(n) == reduction.SmithGroupSummary(
            n, inv.zero_count, nonzero), n


def _with_extra_entries(extra):
    """adjacency(n) with the {(row, col): value} entries of extra(n) added."""
    def build(n):
        a = adjacency(n)
        rows = [dict(a.pairs(i)) for i in range(a.rows)]
        for (i, j), v in extra(n).items():
            rows[i][j] = rows[i].get(j, 0) + v
        return IntMatrix.from_rows(rows, a.cols)
    return build


def test_oracle_refuses_a_matrix_that_is_not_bipartite(monkeypatch, capsys):
    # the empty set (row 0) and the first 2-subset (row n + 1) are both even
    same_parity = _with_extra_entries(lambda n: {(0, n + 1): 1, (n + 1, 0): 1})
    monkeypatch.setattr(reduction, "adjacency", same_parity)
    with pytest.raises(ValueError, match="same weight parity"):
        smith_group_oracle(4)
    assert cli.main(["smith-group", "4", "--method", "oracle"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    # one entry from the empty set to {1, 2, 3} (odd): bipartite, but the
    # matrix is no longer symmetric
    asymmetric = _with_extra_entries(lambda n: {(0, 1 + n + comb(n, 2)): 1})
    monkeypatch.setattr(reduction, "adjacency", asymmetric)
    with pytest.raises(ValueError, match="not symmetric"):
        smith_group_oracle(4)


def test_reduction_matches_closed_form():
    # even n only: for odd n there is no structural route to compare
    # the reduction counts its own rank, so its free rank is a real check
    for n in range(2, 65, 2):
        g = smith_group_reduction(n)
        assert g.free_rank == comb(n, n // 2), n
        assert same_group(g, smith_group(n)), n


def test_reduction_table_one_unit_short_is_a_mismatch(monkeypatch, capsys):
    # one divisor 2^0 fewer, so the table's rank is one short
    original = reduction.two_local_divisors_of_M

    def short(n):
        table = original(n)
        table[0] -= 1
        return table
    monkeypatch.setattr(reduction, "two_local_divisors_of_M", short)
    assert cli.main(["smith-group", "8", "--method", "all"]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "mismatch"
    assert report["payload"]["reduction"]["free_rank"] == comb(8, 4) + 2
    assert cli.main(["verify", "conjecture", "12", "--cap", "8"]) == 2
    assert '"status":"mismatch"' in capsys.readouterr().out


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
    # above the oracle cap the divisor side is the reduction's summary; a
    # table off by one divisor (same rank) must be caught
    n = 12
    good = two_local_divisors_of_M(n)
    bad = dict(good)
    bad[0] -= 1
    bad[1] += 1
    monkeypatch.setattr(reduction, "two_local_divisors_of_M", lambda _n: bad)
    assert not verify_conjecture(n, oracle_cap=8)


def _moved(counts: dict, source: int, target: int, amount: int) -> dict:
    """counts with `amount` of the multiplicity of `source` moved to `target`."""
    out = dict(counts)
    out[source] -= amount
    out[target] = out.get(target, 0) + amount
    return out


def _changed(monkeypatch, name: str, change) -> None:
    """reduction's function `name` with `change` applied to its answers."""
    original = getattr(reduction, name)
    monkeypatch.setattr(reduction, name, lambda n: change(original(n)))


@pytest.mark.parametrize("name, change", [
    ("smith_group_oracle",
     lambda s: SmithGroupSummary(s.n, s.free_rank, _moved(s.nonzero, 2, 4, 2))),
    ("eigenvalue_diagonal", lambda d: _moved(d, 2, 4, 1)),
    ("smith_group_oracle",
     lambda s: SmithGroupSummary(s.n, s.free_rank + 1, s.nonzero)),
], ids=["divisor-pair-2-to-4", "eigenvalue-2-to-4", "free-rank-plus-1"])
def test_conjecture_below_cap_checks_the_oracle(monkeypatch, name, change):
    # below the cap the divisor side is the oracle's summary; each change
    # keeps the number of nonzero entries on its side
    _changed(monkeypatch, name, change)
    assert not verify_conjecture(8, oracle_cap=8)


def test_conjecture_reports_a_zero_divisor_as_a_mismatch(monkeypatch, capsys):
    # a zero key, which only a faulty route could hand over, has no 2-adic
    # exponent; the tally files it under -1, which no eigenvalue reaches
    _changed(monkeypatch, "smith_group_oracle", lambda s: SmithGroupSummary(
        s.n, s.free_rank, _moved(s.nonzero, 2, 0, 2)))
    assert not verify_conjecture(8, oracle_cap=8)
    assert cli.main(["verify", "conjecture", "8"]) == 2
    assert '"status":"mismatch"' in capsys.readouterr().out


def test_eigenvalue_diagonal():
    assert eigenvalue_diagonal(2) == {2: 1, 0: 2, -2: 1}
    assert sum(eigenvalue_diagonal(7).values()) == 128


@pytest.mark.parametrize("cap", [[], ["--cap", "8"]], ids=["default-cap", "cap-8"])
def test_closed_form_row_does_not_reach_the_eigen_side(monkeypatch, capsys, cap):
    # +2 at l = 3 and 9 and -2 at l = 5 and 7 keeps the rank and both
    # parities; an eigen side read off the same row took the poison too, and
    # the wrong group passed as "ok"
    original = reduction._binomial_row

    def poisoned(n, k):
        row = original(n, k)
        for level, change in ((3, 2), (9, 2), (5, -2), (7, -2)):
            if n == 12 and level <= k:
                row[level] += change
        return row
    monkeypatch.setattr(reduction, "_binomial_row", poisoned)
    assert cli.main(["smith-group", "12", "--method", "all", *cap]) == 2
    assert '"status":"mismatch"' in capsys.readouterr().out


# what every route may use: the basics of the exact integer layer, the
# immutable record base and the summary each route returns; no route's
# helper list may name one of these
SHARED = frozenset({"IntMatrix", "_check_entries", "_pairs", "_Record",
                    "SmithGroupSummary"})

# each route's entry point and the private helpers that only it may call
ROUTES = {
    "closed": (smith_group, ("_binomial_row",)),
    "reduction": (smith_group_reduction,
                  ("build_condensed", "reduce_condensed", "eigenvalue_diagonal",
                   "_valuation_tables", "_factor_small", "_positional_merge")),
    "oracle": (smith_group_oracle, ("adjacency", "snf", "_eliminate")),
}


@pytest.mark.parametrize("route, n", [("closed", 8), ("closed", 12),
                                      ("reduction", 8), ("reduction", 12),
                                      ("oracle", 8)])
def test_each_route_answers_without_the_helpers_of_the_others(monkeypatch, route, n):
    # while one route runs, every helper of the other two raises in each
    # module that holds it, so no route can lean on work it is checked against
    expected = smith_group(n)
    entry, own = ROUTES[route]
    others = {name for r, (_, names) in ROUTES.items() if r != route
              for name in names}
    assert not (others | set(own)) & SHARED

    def refuse(name):
        def call(*args, **kwargs):
            raise AssertionError(f"the {route} route called {name}")
        return call
    modules = (bigmat, subsets, canonical, cube, reduction)
    assert all(any(name in vars(m) for m in modules) for name in others)
    with monkeypatch.context() as patch:
        for module in modules:
            for name in others & set(vars(module)):
                patch.setattr(module, name, refuse(name))
        summary = entry(n)
    assert same_group(summary, expected)


def test_laplacian_partial():
    for n in (2, 4, 8):
        comparisons = laplacian_partial_check(n)
        assert [i for i, _, _ in comparisons] == list(range(n.bit_length() - 1))
        assert all(a == b for _, a, b in comparisons)
    with pytest.raises(ValueError):
        laplacian_partial_check(6)


def test_laplacian_check_sees_one_changed_entry(monkeypatch, capsys):
    # 1 more at (0, 0) of nI - A moves c_0 of L(8) from 128 to 129
    original = reduction._laplacian_of

    def bumped(a, n):
        side = 1 << n
        return original(a, n) + IntMatrix.from_rows([{0: 1}] + [{}] * (side - 1), side)
    monkeypatch.setattr(reduction, "_laplacian_of", bumped)
    assert laplacian_partial_check(8)[0] == (0, 128, 129)
    assert cli.main(["verify", "laplacian", "8"]) == 2
    assert '"status":"mismatch"' in capsys.readouterr().out


def test_invariant_factor_rle_units():
    assert invariant_factor_rle({}) == ()
    assert invariant_factor_rle({1: 3}) == ((1, 3),)
    assert invariant_factor_rle({4: 2, 6: 1}) == ((2, 1), (4, 1), (12, 1))
    assert invariant_factor_rle({2: 2, 3: 1}) == ((1, 1), (2, 1), (6, 1))
    with pytest.raises(ValueError):
        invariant_factor_rle({0: 1})


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
