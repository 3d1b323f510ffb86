"""Colexicographic enumeration of k-subsets and the inclusion matrices.

Subsets of {1..n} are plain tuples of strictly increasing ints.  The primary
order on k-subsets is colexicographic; the complement order on large subsets
lists the complements of the small subsets in their colex order.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb
from typing import Tuple

from .bigmat import IntMatrix

Subset = Tuple[int, ...]

COLEX = "colex"
COMPLEMENT = "complement"


@lru_cache(maxsize=None)
def _colex_list(n: int, k: int) -> tuple:
    if k == 0:
        return ((),)
    if k > n:
        return ()
    out = []
    for top in range(k, n + 1):
        out.extend(s + (top,) for s in _colex_list(top - 1, k - 1))
    return tuple(out)


@dataclass(frozen=True)
class SubsetOrder:
    """A fixed total order on the k-subsets of {1..n}."""
    n: int
    k: int
    kind: str = COLEX

    def __post_init__(self):
        if not 0 <= self.k <= self.n:
            raise ValueError(f"k={self.k} out of range for n={self.n}")
        if self.kind not in (COLEX, COMPLEMENT):
            raise ValueError(f"unknown order kind {self.kind!r}")
        if self.kind == COMPLEMENT and 2 * self.k < self.n:
            raise ValueError("complement order requires k >= n/2")

    def __len__(self) -> int:
        return comb(self.n, self.k)

    def subsets(self) -> tuple:
        return _order_list(self.n, self.k, self.kind)


@lru_cache(maxsize=None)
def _order_list(n: int, k: int, kind: str) -> tuple:
    if kind == COLEX:
        return _colex_list(n, k)
    full = range(1, n + 1)
    return tuple(tuple(x for x in full if x not in set(small))
                 for small in _colex_list(n, n - k))


def enumerate_subsets(n: int, k: int, kind: str = COLEX) -> tuple:
    """All k-subsets of {1..n} in the requested order."""
    return SubsetOrder(n, k, kind).subsets()


def has_full_rank(t_subset: Subset) -> bool:
    """Frankl rank test: {i_1 < ... < i_t} has rank t iff i_j >= 2j."""
    return all(e >= 2 * (j + 1) for j, e in enumerate(t_subset))


def count_full_rank(n: int, t: int) -> int:
    """Number of t-subsets of rank t: C(n,t) - C(n,t-1)."""
    if 2 * t > n:
        raise ValueError(f"t={t} exceeds n/2 for n={n}")
    return comb(n, t) - (comb(n, t - 1) if t >= 1 else 0)


def incidence_matrix(n: int, t: int, k: int,
                     row_order: SubsetOrder | None = None,
                     col_order: SubsetOrder | None = None) -> IntMatrix:
    """Matrix of the inclusion map from t-subsets to k-subsets.

    Entry (r, c) is 1 iff the row subset is contained in the column subset
    (t <= k) or contains it (t >= k).
    """
    if not (0 <= t <= n and 0 <= k <= n):
        raise ValueError(f"sizes t={t}, k={k} out of range for n={n}")
    row_order = row_order or SubsetOrder(n, t)
    col_order = col_order or SubsetOrder(n, k)
    if (row_order.n, row_order.k) != (n, t) or (col_order.n, col_order.k) != (n, k):
        raise ValueError("orders do not match the requested sizes")
    # each row lists its k-supersets (t <= k) or k-subsets (t > k), so the
    # cost follows the nonzeros, not C(n,t) * C(n,k)
    index = {s: i for i, s in enumerate(col_order.subsets())}
    full = range(1, n + 1)
    data = []
    for s in row_order.subsets():
        if t <= k:
            rest = [x for x in full if x not in s]
            related = (tuple(sorted(s + e)) for e in combinations(rest, k - t))
        else:
            related = combinations(s, k)
        data.append({index[c]: 1 for c in related})
    return IntMatrix.from_rows(data, len(index))
