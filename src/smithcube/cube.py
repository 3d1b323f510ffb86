"""The n-cube adjacency matrix in the vertex and monomial bases.

Vertices are the subsets of {1..n}, held as bitmasks, and ordered by
increasing size, colex (increasing mask) within each size.  The
monomial-basis matrix is block upper triangular in this grading; for even
n it splits into the two half blocks whose Smith data determine the Smith
group of the cube.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, chain, product
from math import comb

from .bigmat import SIZE_CAP, IntMatrix, _combine, _packed
from .subsets import enumerate_subsets, incidence_matrix


def _check_n(n: int) -> None:
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > SIZE_CAP:
        raise ValueError(f"n={n} exceeds the size cap {SIZE_CAP}")


def _require_even(n: int) -> int:
    if n < 2 or n % 2:
        raise ValueError(f"even n >= 2 required, got {n}")
    return n // 2


@lru_cache(maxsize=None)
def vertex_order(n: int) -> tuple:
    """All subset masks of {1..n}, sorted by (popcount, value): the colex
    levels end to end."""
    return tuple(chain.from_iterable(enumerate_subsets(n, k) for k in range(n + 1)))


def adjacency(n: int) -> IntMatrix:
    """Adjacency matrix of the n-cube: vertices adjacent iff their masks
    differ in one bit."""
    _check_n(n)
    order = vertex_order(n)
    pos = {s: i for i, s in enumerate(order)}
    bits = [1 << x for x in range(n)]
    return IntMatrix.from_rows(({pos[s ^ b]: 1 for b in bits} for s in order),
                               1 << n)


def monomial_adjacency(n: int) -> IntMatrix:
    """Matrix of the adjacency map on the monomial basis: column I carries
    (n - 2|I|) at row I and 1 at each row I minus one element."""
    sizes = range(n + 1)
    return graded_blocks(n, sizes, sizes, lambda i: incidence_matrix(n, i, i + 1))


def laplacian(n: int) -> IntMatrix:
    """n*I - A; for the degree-matrix congruence report only."""
    return _laplacian_of(adjacency(n), n)


def _laplacian_of(a: IntMatrix, n: int) -> IntMatrix:
    """n*I - A from the rows of A, the n-cube's adjacency matrix."""
    return IntMatrix.from_rows(({i: n, **{j: -v for j, v in a.pairs(i)}}
                                for i in range(a.rows)), a.rows)


def _subset_sums(n: int, rows) -> list:
    """Yates' subset sums of rows given in vertex order: entry S of the
    result, indexed by mask, is the sum of the rows of all subsets of S."""
    sums = [0] * (1 << n)
    for s, row in zip(vertex_order(n), rows):
        sums[s] = row
    for b, s in product([1 << x for x in range(n)], range(1 << n)):
        if s & b:
            sums[s] += sums[s ^ b]
    return sums


def verify_conjugacy(n: int) -> bool:
    """Check A * Z = Z * Atilde, where Z (entry (S, I) = 1 iff I is a subset
    of S) takes monomials to vertex indicators, so both matrices represent
    the same map.  Each row is packed into one int, column c at bits w*c as
    an exact signed sum; Z's rows and Z * Atilde's are subset sums, and row
    S of A * Z, the sum of A[S, T] * Z[T], is `_combine` of Z's rows in
    vertex order, so Z's 3^n nonzeros are never listed.  An entry of A * Z
    is at most A's largest absolute row sum and one of Z * Atilde at most
    Atilde's largest absolute column sum; w is two bits wider than both, so
    equal packed rows have equal entries."""
    a, at, order = adjacency(n), monomial_adjacency(n), vertex_order(n)
    w = max(sum(abs(v) for _, v in m.pairs(i)) for m in (a, at.transpose())
            for i in range(m.rows)).bit_length() + 2
    z = _subset_sums(n, (1 << w * c for c in range(1 << n)))
    z = [z[s] for s in order]
    zat = _subset_sums(n, _packed(at, w))
    return all(_combine(a.pairs(i), z) == zat[s] for i, s in enumerate(order))


def graded_blocks(n: int, row_sizes, col_sizes, up) -> IntMatrix:
    """The graded block shape shared by the monomial matrix, M, N and B.

    Block rows and block columns stand for the subsets of the given sizes.
    The block from size i to size i is (n - 2i) I, the block from size i to
    size i+1 is up(i), and every other block is zero; n lies in 1..SIZE_CAP.
    """
    _check_n(n)
    ends = list(accumulate((comb(n, j) for j in col_sizes), initial=0))
    start = dict(zip(col_sizes, ends))

    def rows():
        for i in row_sizes:
            h, w, diagonal = comb(n, i), comb(n, i + 1), start.get(i)
            b = up(i) if i + 1 in start else None
            if b is not None and (b.rows, b.cols) != (h, w):
                raise ValueError(f"up({i}) is {b.rows}x{b.cols}, expected {h}x{w}")
            for r in range(h):
                row = {} if b is None else {start[i + 1] + c: v for c, v in b.pairs(r)}
                if diagonal is not None:
                    row[diagonal + r] = n - 2 * i
                yield row

    return IntMatrix.from_rows(rows(), ends[-1])


def build_M(n: int) -> IntMatrix:
    """The lower half block of the monomial-basis matrix (n even): sizes
    0..m in colex order, the block from size i to i+1 being W_{i,i+1}."""
    m = _require_even(n)
    return graded_blocks(n, range(m), range(m + 1),
                         lambda i: incidence_matrix(n, i, i + 1))


def build_N(n: int) -> IntMatrix:
    """The upper half block of the monomial-basis matrix (n even): sizes
    m..n with each size listed as the complements of the (n-i)-subsets in
    colex order, i.e. in decreasing mask order; complementing reverses
    inclusion, so the block from size i to i+1 is W_{n-i,n-i-1}."""
    m = _require_even(n)
    return graded_blocks(n, range(m, n + 1), range(m + 1, n + 1),
                         lambda i: incidence_matrix(n, n - i, n - i - 1))


def _replay(n: int, m_block: IntMatrix, n_block: IntMatrix) -> bool:
    """Turn N around and compare it with M: N's block row of size i, offset
    p, is M's block column n-i, offset p, its block column of size k, offset
    q, M's block row n-k, offset q, and each entry picks up -(-1)^(i+k)."""
    ends = list(accumulate((comb(n, s) for s in range(n // 2 + 1)), initial=0))
    cols, rows = ([(ends[n - s] + p, (-1) ** s) for s in range(lo, n + 1)
                   for p in range(comb(n, s))] for lo in (n // 2, n // 2 + 1))
    out: list = [{} for _ in rows]
    for i, (c, sc) in enumerate(cols):
        for j, v in n_block.pairs(i):
            r, sr = rows[j]
            out[r][c] = -sr * sc * v
    return IntMatrix.from_rows(out, len(cols)) == m_block


def verify_half_lemma(n: int) -> bool:
    """M = D1 (P N Q)^t D2 with +-1 diagonals D1, D2 and permutations P, Q,
    all unimodular, hence M and N^t have the same Smith normal form."""
    return _replay(n, build_M(n), build_N(n))
