"""The n-cube adjacency matrix in the vertex and monomial bases.

Vertices are identified with subsets of {1..n} and ordered by increasing
size, colex within each size.  The monomial-basis matrix is block upper
triangular in this grading; for even n it splits into the two half blocks
whose Smith data determine the Smith group of the cube.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from math import comb

from .bigmat import IntMatrix, assemble, snf
from .subsets import COMPLEMENT, SubsetOrder, enumerate_subsets, incidence_matrix

# 2^n-sized constructions above this n are refused
SIZE_CAP = 14


def _check_n(n: int) -> None:
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > SIZE_CAP:
        raise ValueError(f"n={n} exceeds the size cap {SIZE_CAP}")


@lru_cache(maxsize=None)
def vertex_order(n: int) -> tuple:
    """All subsets of {1..n}, size ascending, colex within each size."""
    out = []
    for k in range(n + 1):
        out.extend(enumerate_subsets(n, k))
    return tuple(out)


@dataclass(frozen=True)
class CubeAdjacency:
    n: int
    matrix: IntMatrix
    order: tuple


@dataclass(frozen=True)
class MonomialAdjacency:
    n: int
    matrix: IntMatrix
    order: tuple


@dataclass(frozen=True)
class BlockPair:
    """The two diagonal half blocks of the monomial-basis matrix, n even."""
    n: int
    M: IntMatrix
    N: IntMatrix


def adjacency(n: int) -> CubeAdjacency:
    """Adjacency matrix of the n-cube: vertices adjacent iff their subsets
    differ by one element."""
    _check_n(n)
    order = vertex_order(n)
    index = {s: i for i, s in enumerate(order)}
    data = []
    for s in order:
        row = {}
        for x in range(1, n + 1):
            if x in s:
                t = tuple(e for e in s if e != x)
            else:
                t = tuple(sorted(s + (x,)))
            row[index[t]] = 1
        data.append(row)
    return CubeAdjacency(n, IntMatrix.from_rows(data, 1 << n), order)


def monomial_adjacency(n: int) -> MonomialAdjacency:
    """Matrix of the adjacency map on the monomial basis: column I carries
    (n - 2|I|) at row I and 1 at each row I minus one element."""
    _check_n(n)
    sizes = range(n + 1)
    matrix = graded_blocks(n, sizes, sizes,
                           lambda i: incidence_matrix(n, i, i + 1))
    return MonomialAdjacency(n, matrix, vertex_order(n))


def zeta_matrix(n: int) -> IntMatrix:
    """Basis change from monomials to vertex indicators: entry (S, I) is 1
    iff I is a subset of S.  Lower unitriangular in the graded order."""
    _check_n(n)
    sizes = [comb(n, i) for i in range(n + 1)]
    return assemble(sizes, sizes,
                    lambda s, i: incidence_matrix(n, s, i) if i <= s else None)


def laplacian(n: int) -> IntMatrix:
    """n*I - A; exposed for the degree-matrix congruence report only."""
    a = adjacency(n).matrix
    return IntMatrix.identity(a.rows).scale(n) - a


def verify_conjugacy(n: int) -> bool:
    """Check A * Z = Z * Atilde, i.e. the vertex-basis and monomial-basis
    matrices represent the same map through the subset-inclusion basis
    change."""
    a = adjacency(n).matrix
    at = monomial_adjacency(n).matrix
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

    M covers sizes 0..m in colex orders; N covers sizes m..n in the
    complement orders, with the second (complement) ordering on the
    half-size subsets.
    """
    _check_n(n)
    if n % 2:
        raise ValueError(f"blocks require even n, got {n}")
    m = n // 2

    def complement(k):
        return SubsetOrder(n, k, COMPLEMENT)

    m_block = graded_blocks(n, range(m), range(m + 1),
                            lambda i: incidence_matrix(n, i, i + 1))
    n_block = graded_blocks(n, range(m, n + 1), range(m + 1, n + 1),
                            lambda i: incidence_matrix(n, i, i + 1, complement(i),
                                                       complement(i + 1)))
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


def n_prime(n: int) -> IntMatrix:
    """The reversed-and-transposed upper half block: equals M with the signs
    of the diagonal blocks flipped."""
    return _reverse_blocks_transpose(blocks(n))


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

