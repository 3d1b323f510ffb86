"""Canonical bases of the subset modules and Wilson's diagonal forms.

The canonical basis matrix for k-subsets stacks, for j = 0..k, the rows of
the inclusion matrix labeled by full-rank j-subsets.  It is unimodular and
simultaneously diagonalizes every inclusion matrix with t <= k <= n/2.
"""
from __future__ import annotations

from itertools import chain
from math import comb

from .bigmat import SIZE_CAP, IntMatrix, _combine, _packed
from .subsets import (NONZERO_CAP, _check_side, _inclusion_row, count_full_rank,
                      enumerate_subsets, has_full_rank, incidence_matrix)


def _check_half(n: int, k: int) -> None:
    """0 <= k <= n/2, and C(n, k), the largest of C(n, 0..k), within the cap."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if 2 * k > n:
        raise ValueError(f"k={k} exceeds n/2 for n={n}")
    _check_side(n, k)


def wilson_diagonal(n: int, t: int, k: int) -> tuple:
    """Diagonal of Wilson's form for the (t,k) inclusion matrix: entries
    C(k-j, t-j) with multiplicity C(n,j) - C(n,j-1), for j = 0..t, in
    block order."""
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    if t > k:
        raise ValueError(f"need t <= k, got t={t}, k={k}")
    _check_half(n, k)
    return tuple(comb(k - j, t - j) for j in range(t + 1)
                 for _ in range(count_full_rank(n, j)))


def build_E(n: int, k: int) -> IntMatrix:
    """The canonical basis matrix: for j = 0..k, the rows of W_{j,k}
    labeled by full-rank j-subsets, written by W's own row writer for
    those subsets only.  The side check is the only refusal needed: column
    K of E holds a 1 at each J within K, so E has at most C(n, k) 2^k
    nonzeros, 3.3 M at E(16, 8), the largest E within the side cap, and
    that is below NONZERO_CAP, the cap of one W."""
    _check_half(n, k)
    pos = {c: i for i, c in enumerate(enumerate_subsets(n, k))}
    return IntMatrix._stored(tuple(chain.from_iterable(
        map(_inclusion_row(n, j, k, pos),
            filter(has_full_rank, enumerate_subsets(n, j))) for j in range(k + 1))),
        len(pos))


def wilson_form(n: int, t: int, k: int) -> IntMatrix:
    """Wilson's diagonal form for the (t,k) inclusion matrix, t <= k <= n/2;
    a zero diagonal entry is not stored."""
    entries = wilson_diagonal(n, t, k)
    assert len(entries) == comb(n, t)
    return IntMatrix._stored(tuple(((i, e),) if e else ()
                                   for i, e in enumerate(entries)), comb(n, k))


def verify_bier(n: int) -> list:
    """The pairs [t, k], t <= k <= n/2, for which Bier's identity
    E_t * W_{t,k} = D_{t,k} * E_k fails, k then t ascending.

    It is checked row by row, without a product.  Row J of E_t, for a
    full-rank j-subset J, j <= t, is row J of W_{j,t}, so that row of the
    left side is the sum of W_{j,t}[J, T] * W_{t,k}[T] over the t-subsets T.
    The rows of E_k up to C(n, t) are its blocks j <= t, so the same row of
    the right side is d_J * W_{j,k}[J], with d_J J's entry of
    wilson_diagonal(n, t, k); a diagonal whose length is not E_t's row
    count fails the pair.  Each W_{a,b}, a <= b <= n/2, is built once and
    all are held at once, so their nonzeros, sum_b C(n, b) 2^b in all, are
    held to the cap of one W.  For each k the rows of every W_{a,k} are
    packed into ints at one slot width: with P the largest |entry| and R
    the largest absolute row sum of all the W, and D the largest |d|, no
    entry of the difference of the two sides exceeds (R + D) * P, and the
    width is two bits wider, so equal packed rows have equal entries.  Each
    right-hand row is a row of some W_{j,k}, which has C(n-j, k-j) >= 1 ones,
    so a zero right-hand row fails the pair.
    """
    half = n // 2
    _check_half(n, half)  # refuse before any matrix is built
    total = sum(comb(n, b) << b for b in range(half + 1))
    if total > NONZERO_CAP:
        raise ValueError(f"the W({n}, a, b), a <= b <= {half}, have {total} "
                         f"nonzeros in all, above the cap 3^{SIZE_CAP} = "
                         f"{NONZERO_CAP}")
    w = {(a, b): incidence_matrix(n, a, b) for b in range(half + 1)
         for a in range(b + 1)}
    d = {pair: wilson_diagonal(n, *pair) for pair in w}
    rows = [m.pairs(i) for m in w.values() for i in range(m.rows)]
    peak = max((abs(v) for row in rows for _, v in row), default=0)
    row_sum = max((sum(abs(v) for _, v in row) for row in rows), default=0)
    d_peak = max((abs(x) for diagonal in d.values() for x in diagonal), default=0)
    width = ((row_sum + d_peak) * peak).bit_length() + 2
    full = [(j, i) for j in range(half + 1)
            for i, s in enumerate(enumerate_subsets(n, j)) if has_full_rank(s)]
    failures = []
    for k in range(half + 1):
        packed = [_packed(w[a, k], width) for a in range(k + 1)]
        for t in range(k + 1):
            labels = [(j, i) for j, i in full if j <= t]
            if len(labels) != len(d[t, k]) or not all(
                    _combine(w[j, t].pairs(i), packed[t]) == dj * packed[j][i] != 0
                    for (j, i), dj in zip(labels, d[t, k])):
                failures.append([t, k])
    return failures
