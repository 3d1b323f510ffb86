"""The n-cube adjacency matrix in the vertex and monomial bases.

Vertices are identified with subsets of {1..n} and ordered by increasing
size, colex within each size.  The monomial-basis matrix is block upper
triangular in this grading; for even n it splits into the two half blocks
whose Smith data determine the Smith group of the cube.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

from .bigmat import IntMatrix, snf
from .subsets import COMPLEMENT, SubsetOrder, enumerate_subsets, incidence_matrix

# 2^n-sized dense constructions above this are refused by default
DEFAULT_SIZE_CAP = 14


def _check_n(n: int, size_cap: int) -> None:
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > size_cap:
        raise ValueError(f"n={n} exceeds the size cap {size_cap}")


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


def adjacency(n: int, size_cap: int = DEFAULT_SIZE_CAP) -> CubeAdjacency:
    """Adjacency matrix of the n-cube: vertices adjacent iff their subsets
    differ by one element."""
    _check_n(n, size_cap)
    order = vertex_order(n)
    index = {s: i for i, s in enumerate(order)}
    size = 1 << n
    data = [[0] * size for _ in range(size)]
    for i, s in enumerate(order):
        present = set(s)
        for x in range(1, n + 1):
            if x in present:
                t = tuple(e for e in s if e != x)
            else:
                t = tuple(sorted(s + (x,)))
            data[i][index[t]] = 1
    return CubeAdjacency(n, IntMatrix(data, size), order)


def monomial_adjacency(n: int, size_cap: int = DEFAULT_SIZE_CAP) -> MonomialAdjacency:
    """Matrix of the adjacency map on the monomial basis: column I carries
    (n - 2|I|) at row I and 1 at each row I minus one element."""
    _check_n(n, size_cap)
    order = vertex_order(n)
    index = {s: i for i, s in enumerate(order)}
    size = 1 << n
    data = [[0] * size for _ in range(size)]
    for ci, s in enumerate(order):
        data[ci][ci] = n - 2 * len(s)
        for x in s:
            t = tuple(e for e in s if e != x)
            data[index[t]][ci] = 1
    return MonomialAdjacency(n, IntMatrix(data, size), order)


def zeta_matrix(n: int, size_cap: int = DEFAULT_SIZE_CAP) -> IntMatrix:
    """Basis change from monomials to vertex indicators: entry (S, I) is 1
    iff I is a subset of S.  Lower unitriangular in the graded order."""
    _check_n(n, size_cap)
    order = vertex_order(n)
    sets = [frozenset(s) for s in order]
    data = [[1 if i <= s else 0 for i in sets] for s in sets]
    return IntMatrix(data, 1 << n)


def laplacian(n: int, size_cap: int = DEFAULT_SIZE_CAP) -> IntMatrix:
    """n*I - A; exposed for the degree-matrix congruence report only.

    Built in one pass over the rows of A, whose diagonal is zero.
    """
    a = adjacency(n, size_cap).matrix
    data = []
    for i in range(a.rows):
        row = [-x for x in a.row(i)]
        row[i] = n
        data.append(row)
    return IntMatrix(data, a.cols)


def verify_conjugacy(n: int, size_cap: int = DEFAULT_SIZE_CAP) -> bool:
    """Check A * Z = Z * Atilde, i.e. the vertex-basis and monomial-basis
    matrices represent the same map through the subset-inclusion basis
    change."""
    a = adjacency(n, size_cap).matrix
    at = monomial_adjacency(n, size_cap).matrix
    z = zeta_matrix(n, size_cap)
    return a @ z == z @ at


def _size_order(n: int, k: int, m: int) -> SubsetOrder:
    # sizes above n/2 use the complement-induced order; the half size m uses
    # colex inside M and the complement ("second") order inside N
    if k <= m:
        return SubsetOrder(n, k)
    return SubsetOrder(n, k, COMPLEMENT)


def blocks(n: int, size_cap: int = DEFAULT_SIZE_CAP) -> BlockPair:
    """Assemble the two half blocks of the monomial-basis matrix (n even).

    M covers sizes 0..m in colex orders; N covers sizes m..n in the
    complement orders, with the second (complement) ordering on the
    half-size subsets.
    """
    _check_n(n, size_cap)
    if n % 2:
        raise ValueError(f"blocks require even n, got {n}")
    m = n // 2

    def assemble(row_sizes, col_sizes, order_of):
        row_off = {}
        off = 0
        for i in row_sizes:
            row_off[i] = off
            off += comb(n, i)
        total_rows = off
        col_off = {}
        off = 0
        for j in col_sizes:
            col_off[j] = off
            off += comb(n, j)
        total_cols = off
        data = [[0] * total_cols for _ in range(total_rows)]
        for i in row_sizes:
            # scalar diagonal block
            if i in col_off:
                d = n - 2 * i
                for r in range(comb(n, i)):
                    data[row_off[i] + r][col_off[i] + r] = d
            # inclusion block one size up
            if i + 1 in col_off:
                w = incidence_matrix(n, i, i + 1, order_of(i), order_of(i + 1))
                ro, co = row_off[i], col_off[i + 1]
                for r in range(w.rows):
                    wr = w.row(r)
                    drow = data[ro + r]
                    for c, v in enumerate(wr):
                        if v:
                            drow[co + c] = v
        return IntMatrix(data, total_cols)

    m_block = assemble(range(m), range(m + 1), lambda k: SubsetOrder(n, k))
    n_block = assemble(range(m, n + 1), range(m + 1, n + 1),
                       lambda k: SubsetOrder(n, k, COMPLEMENT))
    return BlockPair(n, m_block, n_block)


def _reverse_blocks_transpose(mat: IntMatrix, row_sizes, col_sizes) -> IntMatrix:
    """Reverse the block rows and block columns, then transpose."""
    def perm(sizes):
        out = []
        off = []
        total = 0
        for s in sizes:
            off.append(total)
            total += s
        for s, o in zip(reversed(sizes), reversed(off)):
            out.extend(range(o, o + s))
        return out

    rp = perm(row_sizes)
    cp = perm(col_sizes)
    return mat.submatrix(rp, cp).transpose()


def n_prime(n: int, size_cap: int = DEFAULT_SIZE_CAP) -> IntMatrix:
    """The reversed-and-transposed upper half block: equals M with the signs
    of the diagonal blocks flipped."""
    pair = blocks(n, size_cap)
    m = n // 2
    row_sizes = [comb(n, i) for i in range(m, n + 1)]
    col_sizes = [comb(n, i) for i in range(m + 1, n + 1)]
    return _reverse_blocks_transpose(pair.N, row_sizes, col_sizes)


def _alternating_sign_fix(mat: IntMatrix, n: int) -> IntMatrix:
    """Flip block-column 1, block-row 2, block-column 3, ... which negates
    every diagonal block exactly once and every superdiagonal block zero or
    two times."""
    m = n // 2
    row_sizes = [comb(n, i) for i in range(m)]
    col_sizes = [comb(n, i) for i in range(m + 1)]
    row_off = [0]
    for s in row_sizes:
        row_off.append(row_off[-1] + s)
    col_off = [0]
    for s in col_sizes:
        col_off.append(col_off[-1] + s)
    data = mat.row_lists()
    for t in range(1, m + 2):
        b = t - 1
        if t % 2:  # flip block column b
            lo, hi = col_off[b], col_off[b + 1]
            for row in data:
                row[lo:hi] = [-x for x in row[lo:hi]]
        elif t <= m:  # flip block row b
            lo, hi = row_off[b], row_off[b + 1]
            for i in range(lo, hi):
                data[i] = [-x for x in data[i]]
    return IntMatrix(data, mat.cols)


def verify_half_lemma(n: int, size_cap: int = DEFAULT_SIZE_CAP) -> bool:
    """Both halves of the block split carry the same Smith data.

    Checks snf(M) = snf(N^t) with the elimination oracle, and replays the
    explicit alternating sign-flip sequence turning the reversed transpose
    of N into M exactly.
    """
    pair = blocks(n, size_cap)
    if snf(pair.M) != snf(pair.N.transpose()):
        return False
    fixed = _alternating_sign_fix(n_prime(n, size_cap), n)
    return fixed == pair.M

