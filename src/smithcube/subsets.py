"""Subsets of {1..n} as bitmasks, their colex enumeration and the inclusion
matrices.

A subset of {1..n} is an int mask with element x at bit x - 1.  Colex order
on the k-subsets is increasing mask value.  Complementing reverses
inclusion and turns increasing masks into decreasing ones, so no second
order is needed.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import combinations, repeat
from math import comb

from .bigmat import SIZE_CAP, IntMatrix

# an inclusion matrix refuses more nonzeros than 3^SIZE_CAP, the number of
# pairs I within S of subsets of {1..SIZE_CAP}
NONZERO_CAP = 3 ** SIZE_CAP


def _check_side(n: int, k: int) -> None:
    """Refuse C(n, k) k-subsets as a matrix side above 2^SIZE_CAP, before
    anything is allocated; C(n, j) grows with j up to min(k, n - k), so the
    loop stops early for a large n.  k = n > 2^SIZE_CAP is refused too: n
    one-bit masks hold O(n^2) bits (for 0 < k < n, C(n, k) >= n already is)."""
    side = 1
    for j in range(min(k, n - k)):
        side = side * (n - j) // (j + 1)
        if side > 1 << SIZE_CAP:
            raise ValueError(f"a side of C({n}, {k}) subsets exceeds the "
                             f"size cap 2^{SIZE_CAP} = {1 << SIZE_CAP}")
    if k and n > 1 << SIZE_CAP:
        raise ValueError(f"n={n} exceeds the size cap 2^{SIZE_CAP} = {1 << SIZE_CAP}")


def _bits(s: int) -> list:
    """The one-bit masks of s, lowest first."""
    out = []
    while s:
        low = s & -s
        out.append(low)
        s ^= low
    return out


def _colex(base: int, pool: int, r: int) -> list:
    """base ^ y for every r-subset y of pool's bits, increasing, where pool's
    bits are all clear or all set in base.  Bits taken highest first make
    the y fall, so the list is reversed where they add to base; for 2r above
    |pool| the complements of the (|pool| - r)-subsets are listed instead,
    and r = 0 lists no bit."""
    if 2 * r > pool.bit_count():
        base, r = base ^ pool, pool.bit_count() - r
    bits = _bits(pool)[::-1] if r else []
    out = [*map(base.__xor__, map(sum, combinations(bits, r)))]
    return out if base & pool else out[::-1]


@lru_cache(maxsize=None)
def enumerate_subsets(n: int, k: int) -> tuple:
    """All k-subsets of {1..n} as masks in colex order, i.e. increasing."""
    if not 0 <= k <= n:
        raise ValueError(f"k={k} out of range for n={n}")
    _check_side(n, k)
    return tuple(_colex(0, (1 << n) - 1, k))


def has_full_rank(s: int) -> bool:
    """Frankl rank test: {i_1 < ... < i_t} has rank t iff i_j >= 2j, i.e. the
    j-th lowest set bit of the mask sits at position >= 2j - 1."""
    return all(low.bit_length() >= 2 * j for j, low in enumerate(_bits(s), 1))


def count_full_rank(n: int, t: int) -> int:
    """Number of t-subsets of rank t: C(n,t) - C(n,t-1)."""
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    if 2 * t > n:
        raise ValueError(f"t={t} exceeds n/2 for n={n}")
    return comb(n, t) - (comb(n, t - 1) if t >= 1 else 0)


def incidence_matrix(n: int, t: int, k: int) -> IntMatrix:
    """Matrix of the inclusion map from t-subsets to k-subsets, colex orders.

    Entry (r, c) is 1 iff the row subset is contained in the column subset
    (t <= k) or contains it (t >= k).
    """
    if not (0 <= t <= n and 0 <= k <= n):
        raise ValueError(f"sizes t={t}, k={k} out of range for n={n}")
    small, big = min(t, k), max(t, k)
    _check_side(n, small)
    _check_side(n, big)
    nonzeros = comb(n, big) * comb(big, small)
    if nonzeros > NONZERO_CAP:
        raise ValueError(f"W({n}, {t}, {k}) has {nonzeros} nonzeros, above the "
                         f"cap 3^{SIZE_CAP} = {NONZERO_CAP}")
    pos = {c: i for i, c in enumerate(enumerate_subsets(n, k))}
    return IntMatrix._stored(tuple(map(_inclusion_row(n, t, k, pos),
                                       enumerate_subsets(n, t))), len(pos))


def _inclusion_row(n: int, t: int, k: int, pos: dict):
    """The writer of W(n, t, k)'s stored rows: t-subset s -> its (column, 1)
    pairs, increasing, with the columns ranked by pos.  Row s lists its
    columns' masks itself: the k-subsets of its own bits (t >= k), or s plus
    each (k - t)-subset of its complement's bits (t < k); s ^ flip is s's
    complement for t < k and s itself otherwise."""
    flip, size = ((1 << n) - 1, k - t) if t < k else (0, k)
    return lambda s: tuple(zip(map(pos.__getitem__, _colex(s & flip, s ^ flip, size)),
                               repeat(1)))
