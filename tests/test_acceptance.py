"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single PASS line when its guarantee holds (visible with
pytest -v as the test outcome, and in captured output via the final print).
Stated time budgets are asserted with time.monotonic.
"""
import json
import time
from math import comb

from smithcube import cli
from smithcube.bigmat import IntMatrix, from_text, snf
from smithcube.canonical import build_E, verify_bier, wilson_form
from smithcube.cube import adjacency, build_M, verify_half_lemma
from smithcube.reduction import (build_condensed, eigenvalue_diagonal,
                                 reduce_condensed, same_group, smith_group,
                                 smith_group_oracle, two_local_divisors_of_M,
                                 verify_conjecture)
from smithcube.subsets import incidence_matrix

from grids import from_grid, valuation

M4 = from_grid([[4, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0],
                [0, 2, 0, 0, 0, 1, 1, 0, 1, 0, 0],
                [0, 0, 2, 0, 0, 1, 0, 1, 0, 1, 0],
                [0, 0, 0, 2, 0, 0, 1, 1, 0, 0, 1],
                [0, 0, 0, 0, 2, 0, 0, 0, 1, 1, 1]])

E1 = from_grid([[1, 1, 1, 1],
                [0, 1, 0, 0],
                [0, 0, 1, 0],
                [0, 0, 0, 1]])

E2 = from_grid([[1, 1, 1, 1, 1, 1],
                [1, 0, 1, 0, 1, 0],
                [0, 1, 1, 0, 0, 1],
                [0, 0, 0, 1, 1, 1],
                [0, 0, 0, 0, 1, 0],
                [0, 0, 0, 0, 0, 1]])

B4 = from_grid([[4, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0],
                [0, 2, 0, 0, 0, 2, 0, 0, 0, 0, 0],
                [0, 0, 2, 0, 0, 0, 1, 0, 0, 0, 0],
                [0, 0, 0, 2, 0, 0, 0, 1, 0, 0, 0],
                [0, 0, 0, 0, 2, 0, 0, 0, 1, 0, 0]])


def _cli_matrix(capsys, *argv):
    assert cli.main(list(argv)) == 0
    return from_text(capsys.readouterr().out)


def test_criterion_01_golden_fixtures_via_cli(capsys):
    t0 = time.monotonic()
    assert _cli_matrix(capsys, "matrix", "M", "4") == M4
    assert _cli_matrix(capsys, "matrix", "E", "4", "1") == E1
    assert _cli_matrix(capsys, "matrix", "E", "4", "2") == E2
    assert _cli_matrix(capsys, "matrix", "B", "4") == B4
    assert time.monotonic() - t0 < 1.0
    print("criterion 01 PASS: n=4 half block, basis matrices, and conjugated "
          "block match the published displays exactly")


def test_criterion_02_even_oracle_matches_closed_form():
    for n in (2, 4, 6):
        assert same_group(smith_group_oracle(n), smith_group(n)), n
    t0 = time.monotonic()
    assert same_group(smith_group_oracle(8), smith_group(8))
    assert time.monotonic() - t0 < 30.0
    print("criterion 02 PASS: elimination oracle agrees with the closed form "
          "for even n <= 8 (n=8 within 30s)")


def test_criterion_02_slow_n10_oracle():
    t0 = time.monotonic()
    assert same_group(smith_group_oracle(10), smith_group(10))
    assert time.monotonic() - t0 < 600.0
    print("criterion 02 PASS: n=10 oracle agrees with the closed form "
          "within 10min")


def test_criterion_03_odd_oracle_matches_eigenvalue_diagonal():
    t0 = time.monotonic()
    for n in (1, 3, 5, 7):
        entries = []
        for v, cnt in eigenvalue_diagonal(n).items():
            entries.extend([v] * cnt)
        expected = snf(IntMatrix.diagonal(entries))
        assert snf(adjacency(n)) == expected, n
    assert time.monotonic() - t0 < 30.0
    print("criterion 03 PASS: for odd n <= 7 the eigenvalue multiset is a "
          "diagonal form of the adjacency matrix")


def test_criterion_04_basis_conjugation_identity():
    t0 = time.monotonic()
    for n in range(2, 11):
        for k in range(n // 2 + 1):
            assert abs(build_E(n, k).determinant()) == 1, (n, k)
        assert verify_bier(n) == [], n
    assert time.monotonic() - t0 < 60.0
    print("criterion 04 PASS: E_t * W = D * E_k for all t <= k <= n/2, "
          "n <= 10, with |det E_k| = 1")


def test_criterion_05_inclusion_smith_data():
    t0 = time.monotonic()
    for n in range(2, 10):
        for k in range(n // 2 + 1):
            for t in range(k + 1):
                assert snf(incidence_matrix(n, t, k)) == \
                    snf(wilson_form(n, t, k)), (n, t, k)
    assert time.monotonic() - t0 < 60.0
    print("criterion 05 PASS: Smith data of every inclusion matrix matches "
          "the binomial diagonal form, n <= 9")


def test_criterion_06_half_block_symmetry():
    for n in (2, 4, 6, 8):
        assert verify_half_lemma(n), n
        grid = build_M(n).row_lists()
        pad = [0] * len(grid[0])
        doubled = snf(from_grid([row + pad for row in grid] +
                                [pad + row for row in grid]))
        assert doubled.factors == snf(adjacency(n)).factors, n
    print("criterion 06 PASS: both half blocks share their Smith data and "
          "two copies of M carry the cube's nonzero invariant factors, "
          "even n <= 8")


def _two_adic_tally(m):
    """e -> multiplicity of 2^e among the elementary divisors of m, from
    the invariant factors of `snf`."""
    out: dict = {}
    for d in snf(m).factors:
        e = valuation(d, 2)
        out[e] = out.get(e, 0) + 1
    return out


def test_criterion_07_condensed_reduction():
    for n in (2, 4, 6, 8, 10):
        assert two_local_divisors_of_M(n) == _two_adic_tally(build_M(n)), n
    for m in range(1, 65):
        stack = [build_condensed(m)]
        while stack:
            c = stack.pop()
            if c.m == 0:
                continue
            step = reduce_condensed(c)
            stack.append(step.even_residual)
            stack.append(step.odd_residual)
    print("criterion 07 PASS: recursive condensed reduction reproduces the "
          "2-elementary divisors of M (even n <= 10) and closes structurally "
          "for all half-sizes up to 64")


def test_criterion_08_divisor_eigenvalue_correspondence():
    for n in (2, 4, 6, 8, 10):
        assert verify_conjecture(n, oracle_cap=8), n
    print("criterion 08 PASS: multiplicity of 2^i among the 2-elementary "
          "divisors equals the count of eigenvalues exactly divisible by "
          "2^(i+1), even n <= 10")


def test_criterion_08_slow_n10_oracle():
    assert verify_conjecture(10, oracle_cap=10)
    print("criterion 08 PASS: n=10 correspondence confirmed "
          "against the full elimination oracle")


def test_criterion_09_cli_scales_to_n100(capsys):
    t0 = time.monotonic()
    assert cli.main(["smith-group", "100", "--method", "closed"]) == 0
    report = json.loads(capsys.readouterr().out)
    elapsed = time.monotonic() - t0
    total = report["free_rank"] + sum(e["multiplicity"]
                                      for e in report["entries"])
    assert total == 1 << 100
    assert report["free_rank"] == comb(100, 50)
    assert elapsed < 1.0
    print("criterion 09 PASS: closed-form CLI answers n=100 in under a "
          "second with multiplicities summing to 2^100")


def test_criterion_10_multiplicity_telescoping():
    # the sum over i = k..m of C(n, i-k) - C(n, i-1-k), with C(n, -1) = 0,
    # telescopes to C(n, m-k)
    for m in range(1, 21):
        n = 2 * m
        for k in range(1, m + 1):
            total = sum(comb(n, i - k) - (comb(n, i - 1 - k) if i > k else 0)
                        for i in range(k, m + 1))
            assert total == comb(n, m - k), (n, k)
    print("criterion 10 PASS: the blockwise multiplicity sums telescope to "
          "the closed-form diagonal multiplicities, m <= 20")
