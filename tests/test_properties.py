"""Property tests for the closed-form helpers of smithcube.reduction."""
from math import comb

from hypothesis import given
from hypothesis import strategies as st

from smithcube.bigmat import _divisibility_chain, valuation
from smithcube.reduction import (_binomial_row, _positional_merge,
                                 invariant_factor_rle)

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
    # tables built by bigmat.valuation, independent of the factorisation
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
