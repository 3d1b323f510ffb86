"""The n-cube adjacency matrix in the vertex and monomial bases.

Vertices are the subsets of {1..n}, held as bitmasks, and ordered by
increasing size, colex (increasing mask) within each size.  The
monomial-basis matrix is block upper triangular in this grading; for even
n it splits into the two half blocks whose Smith data determine the Smith
group of the cube.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from math import comb

from .bigmat import IntMatrix, assemble, snf
from .subsets import SIZE_CAP, incidence_matrix


def _check_n(n: int) -> None:
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > SIZE_CAP:
        raise ValueError(f"n={n} exceeds the size cap {SIZE_CAP}")


@lru_cache(maxsize=None)
def vertex_order(n: int) -> tuple:
    """All subset masks of {1..n}, sorted by (popcount, value)."""
    # the sort is stable, so each size keeps increasing (colex) order
    return tuple(sorted(range(1 << n), key=int.bit_count))


@dataclass(frozen=True)
class BlockPair:
    """The two diagonal half blocks of the monomial-basis matrix, n even."""
    n: int
    M: IntMatrix
    N: IntMatrix


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
    _check_n(n)
    sizes = range(n + 1)
    return graded_blocks(n, sizes, sizes, lambda i: incidence_matrix(n, i, i + 1))


def zeta_matrix(n: int) -> IntMatrix:
    """Basis change from monomials to vertex indicators: entry (S, I) is 1
    iff I is a subset of S.  Lower unitriangular in the graded order."""
    _check_n(n)
    sizes = [comb(n, i) for i in range(n + 1)]
    return assemble(sizes, sizes,
                    lambda s, i: incidence_matrix(n, s, i) if i <= s else None)


def laplacian(n: int) -> IntMatrix:
    """n*I - A; exposed for the degree-matrix congruence report only."""
    a = adjacency(n)
    return IntMatrix.identity(a.rows).scale(n) - a


def verify_conjugacy(n: int) -> bool:
    """Check A * Z = Z * Atilde, i.e. the vertex-basis and monomial-basis
    matrices represent the same map through the subset-inclusion basis
    change."""
    a = adjacency(n)
    at = monomial_adjacency(n)
    z = zeta_matrix(n)
    return a @ z == z @ at


def graded_blocks(n: int, row_sizes, col_sizes, up) -> IntMatrix:
    """The graded block shape shared by the monomial matrix, M, N and B.

    Block rows and block columns stand for the subsets of the given sizes.
    The block from size i to size i is (n - 2i) I, the block from size i to
    size i+1 is up(i), and every other block is zero.
    """
    def block(a, b):
        i, j = row_sizes[a], col_sizes[b]
        if j == i:
            return n - 2 * i
        return up(i) if j == i + 1 else None

    return assemble([comb(n, i) for i in row_sizes],
                    [comb(n, j) for j in col_sizes], block)


def blocks(n: int) -> BlockPair:
    """Assemble the two half blocks of the monomial-basis matrix (n even).

    M covers sizes 0..m in colex order.  N covers sizes m..n with each
    size listed as the complements of the (n-i)-subsets in colex order, i.e.
    in decreasing mask order; complementing reverses inclusion, so N's block
    from size i to i+1 is W_{n-i,n-i-1}.
    """
    _check_n(n)
    if n % 2:
        raise ValueError(f"blocks require even n, got {n}")
    m = n // 2
    m_block = graded_blocks(n, range(m), range(m + 1),
                            lambda i: incidence_matrix(n, i, i + 1))
    n_block = graded_blocks(n, range(m, n + 1), range(m + 1, n + 1),
                            lambda i: incidence_matrix(n, n - i, n - i - 1))
    return BlockPair(n, m_block, n_block)


def _reverse_blocks_transpose(pair: BlockPair) -> IntMatrix:
    """Reverse the block rows and block columns of N, then transpose."""
    def perm(sizes):
        ends = list(accumulate(sizes))
        return [x for s, e in zip(reversed(sizes), reversed(ends))
                for x in range(e - s, e)]

    n, m = pair.n, pair.n // 2
    rp = perm([comb(n, i) for i in range(m, n + 1)])
    cp = perm([comb(n, i) for i in range(m + 1, n + 1)])
    return pair.N.submatrix(rp, cp).transpose()


def _alternating_sign_fix(mat: IntMatrix, n: int) -> IntMatrix:
    """Flip block-column 0, block-row 1, block-column 2, ... which negates
    every diagonal block exactly once and every superdiagonal block zero or
    two times: the block rows of odd size and the block columns of even
    size change sign."""
    m = n // 2
    row_signs = [(-1) ** i for i in range(m) for _ in range(comb(n, i))]
    col_signs = [-(-1) ** j for j in range(m + 1) for _ in range(comb(n, j))]
    return IntMatrix.diagonal(row_signs) @ mat @ IntMatrix.diagonal(col_signs)


def verify_half_lemma(n: int) -> bool:
    """Both halves of the block split carry the same Smith data.

    Checks snf(M) = snf(N^t) with the elimination oracle, and replays the
    explicit alternating sign-flip sequence turning the reversed transpose
    of N into M exactly.
    """
    pair = blocks(n)
    if snf(pair.M) != snf(pair.N.transpose()):
        return False
    fixed = _alternating_sign_fix(_reverse_blocks_transpose(pair), n)
    return fixed == pair.M

