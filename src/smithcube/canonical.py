"""Canonical bases of the subset modules and Wilson's diagonal forms.

The canonical basis matrix for k-subsets stacks, for j = 0..k, the rows of
the inclusion matrix labeled by full-rank j-subsets.  It is unimodular and
simultaneously diagonalizes every inclusion matrix with t <= k <= n/2.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

from .bigmat import IntMatrix, assemble
from .subsets import (count_full_rank, enumerate_subsets, has_full_rank,
                      incidence_matrix)


def _check_half(n: int, k: int) -> None:
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if 2 * k > n:
        raise ValueError(f"k={k} exceeds n/2 for n={n}")


def _check_sizes(n: int, t: int, k: int) -> None:
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    if t > k:
        raise ValueError(f"need t <= k, got t={t}, k={k}")
    _check_half(n, k)


@dataclass(frozen=True)
class CanonicalBasis:
    """Unimodular change of basis on k-subsets; rows labeled (j, subset)."""
    n: int
    k: int
    matrix: IntMatrix
    row_labels: tuple  # (j, j-subset) pairs, j ascending, colex within j


@dataclass(frozen=True)
class WilsonForm:
    """Diagonal form of the (t,k) inclusion matrix.

    Diagonal entries C(k-j, t-j) with multiplicity C(n,j) - C(n,j-1),
    for j = 0..t, in block order.
    """
    n: int
    t: int
    k: int
    matrix: IntMatrix

    def diagonal_entries(self) -> tuple:
        return _wilson_diagonal(self.n, self.t, self.k)


def _wilson_diagonal(n: int, t: int, k: int) -> tuple:
    return tuple(comb(k - j, t - j) for j in range(t + 1)
                 for _ in range(count_full_rank(n, j)))


def build_E_jk(n: int, j: int, k: int) -> IntMatrix:
    """Rows of the (j,k) inclusion matrix restricted to full-rank j-subsets."""
    if not 0 <= j <= k:
        raise ValueError(f"need 0 <= j <= k, got j={j}, k={k}")
    _check_half(n, k)
    w = incidence_matrix(n, j, k)
    keep = [i for i, s in enumerate(enumerate_subsets(n, j)) if has_full_rank(s)]
    return w.submatrix(keep, range(w.cols))


@lru_cache(maxsize=None)
def build_E(n: int, k: int) -> CanonicalBasis:
    """The canonical basis matrix: stacked full-rank blocks, j = 0..k."""
    _check_half(n, k)
    matrix = assemble([count_full_rank(n, j) for j in range(k + 1)], [comb(n, k)],
                      lambda j, _: build_E_jk(n, j, k))
    assert matrix.rows == matrix.cols
    labels = tuple((j, s) for j in range(k + 1)
                   for s in enumerate_subsets(n, j) if has_full_rank(s))
    return CanonicalBasis(n, k, matrix, labels)


def wilson_form(n: int, t: int, k: int) -> WilsonForm:
    """Wilson's diagonal form for the (t,k) inclusion matrix, t <= k <= n/2."""
    _check_sizes(n, t, k)
    entries = _wilson_diagonal(n, t, k)
    assert len(entries) == comb(n, t)
    return WilsonForm(n, t, k, IntMatrix.from_rows(
        ({i: e} for i, e in enumerate(entries)), comb(n, k)))


def verify_bier(n: int, t: int, k: int) -> bool:
    """Check E_t * W_{t,k} = D_{t,k} * E_k (inversion-free form)."""
    _check_sizes(n, t, k)
    e_t = build_E(n, t).matrix
    e_k = build_E(n, k).matrix
    w = incidence_matrix(n, t, k)
    d = wilson_form(n, t, k).matrix
    return e_t @ w == d @ e_k
