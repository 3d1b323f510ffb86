"""The structural 2-local reduction and the closed-form Smith group.

For even n = 2m the lower half block M of the graded monomial matrix is
conjugated by the canonical bases into a matrix B whose off-diagonal blocks
are the Wilson diagonal forms.  Zeroing B's diagonal costs nothing over the
2-local integers: each odd entry of the condensed block shadow kills the two
even diagonal entries it meets, and the leftover even entries form two half-
size copies of the same shadow, scaled by 2.  Recursing yields the complete
2-elementary divisor table of M, and with it the Smith group of the cube.
"""
from __future__ import annotations

from itertools import accumulate, chain
from math import comb, isqrt

from .bigmat import (_PLAIN_INT, SIZE_CAP, IntMatrix, _Record, snf,
                     two_adic_counts)
from .canonical import _check_half, build_E, wilson_form
from .cube import (_laplacian_of, _require_even, adjacency, graded_blocks,
                   vertex_order)
from .subsets import count_full_rank


def _binomial_row(n: int, k: int) -> list:
    """[C(n, 0), ..., C(n, k)] by C(n, j+1) = C(n, j) * (n - j) / (j + 1)."""
    row = [1]
    for j in range(k):
        row.append(row[-1] * (n - j) // (j + 1))
    return row


# -- the conjugated half block B ------------------------------------------


def stacked_basis(n: int, k: int) -> IntMatrix:
    """Block-diagonal sum of the canonical basis matrices for sizes 0..k."""
    _check_half(n, k)
    ends = list(accumulate((comb(n, j) for j in range(k + 1)), initial=0))
    if ends[-1] > 1 << SIZE_CAP:
        raise ValueError(f"Estack({n}, {k}) has side {ends[-1]}, above the size "
                         f"cap 2^{SIZE_CAP} = {1 << SIZE_CAP}")
    return IntMatrix.from_rows(
        ({c0 + c: v for c, v in e.pairs(r)} for j, c0 in enumerate(ends[:-1])
         for e in (build_E(n, j),) for r in range(e.rows)), ends[-1])


def build_B(n: int) -> IntMatrix:
    """The conjugated half block B = E(m-1) M E(m)^{-1}, in closed form.

    Block (i, i) of M is (n - 2i) I and block (i, i+1) is the inclusion
    matrix W_{i,i+1}; every other block is zero.  Conjugating by the
    block-diagonal bases keeps (n - 2i) I, and Bier's identity
    E_i W_{i,i+1} = D_{i,i+1} E_{i+1} turns the superdiagonal block into
    the Wilson form D_{i,i+1}.  So B is the assembly of M with D_{i,i+1}
    in place of W_{i,i+1}, with no product and no inversion.
    """
    m = _require_even(n)
    return graded_blocks(n, range(m), range(m + 1),
                         lambda i: wilson_form(n, i, i + 1))


# -- the condensed block shadow -------------------------------------------


class CondensedMatrix(_Record):
    """Blockwise shadow of B: m bidiagonal chains that never meet.

    Chain k, 1 <= k <= m, stands for the condensed rows (i, k), i = k..m,
    each of weight weights[k-1], the number of rows of B a row stands for.
    Its position j = i+1-k holds the exact diagonal j, which is not stored,
    and one even entry to the left of it, entries[k-1][j-1]; so chain k has
    length m-k+1.  Every instance is validated once, on construction.

    The entries are elements of Z_(2), the integers localised at 2, held
    as plain ints.  An even entry is its residue mod 2^precision, an int v
    with 0 < v < 2^precision; this is exact as long as its 2-adic valuation
    stays below precision, so that a nonzero element never has residue 0.
    `build_condensed` chooses a precision for which that holds at every
    depth of the recursion:

    - Chain k has length L = m-k+1; with n = 2m its even entries
      2(L+1-j), j = 1..L, have valuations 1 + v2(L+1-j).
    - A reduction step merges two neighbouring even entries o, o' of a chain
      into -o o'/(2q), with q odd, so the new v-1 is the sum of their v-1;
      the chains of a residual are the halved chains of its parent.
    - By Legendre's formula every valuation at every depth is therefore at
      most 1 + v2(L!) <= m.
    - Each step halves, costing one bit, and the recursion is at most
      m.bit_length() steps deep, so m + m.bit_length() + 2 bits at the top
      level keep every nonzero entry, and the product -o o' before its
      halving, nonzero at every depth.  A cancellation x - x = 0 is exact.
    """
    # entries: one tuple of even residues per chain; weights: one int > 0 per chain
    __slots__ = ("m", "precision", "entries", "weights")

    def validate(self) -> None:
        m, precision, chains, weights = self._values()
        if (type(chains) is not tuple or type(weights) is not tuple
                or not all(type(ch) is tuple for ch in chains)
                or not set(map(type, (m, precision, *weights,
                                      *chain.from_iterable(chains)))) <= _PLAIN_INT):
            raise TypeError("m, precision, each weight and each residue must "
                            "be an int, the chains and weights tuples")
        if m < 0:
            raise ValueError(f"m must be >= 0, got {m}")
        if precision < 1:
            raise ValueError(f"precision must be >= 1, got {precision}")
        if len(chains) != m or len(weights) != m:
            raise ValueError(f"expected {m} chains and {m} weights, got "
                             f"{len(chains)} and {len(weights)}")
        if any(w <= 0 for w in weights):
            raise ValueError("non-positive weight")
        top = 1 << precision
        for k, ch in enumerate(chains, 1):
            if len(ch) != m + 1 - k:
                raise ValueError(f"chain {k} has length {len(ch)}, not {m + 1 - k}")
            for v in ch:
                if not 0 < v < top:
                    raise ValueError(f"entry {v} of chain {k} is not a residue "
                                     f"mod 2^{precision}")
                if v & 1:
                    raise ValueError(f"odd entry {v} in chain {k}")


# the elimination of `reduce_condensed` holds the shadow of n = 2m as
# m(m+1)/2 row dicts at once: 2^18 rows allows m <= 723, that is n <= 1446,
# which peaks near 310 MB
CONDENSED_ROW_LIMIT = 1 << 18


def build_condensed(m: int) -> CondensedMatrix:
    """Condensed shadow of B for n = 2m: chain k is n, n-2, ..., 2 from
    position k on, that is row (i, k) holds n - 2(i-1), and its weight is
    count_full_rank(n, k-1), the block sizes' increments.  The even entries
    are residues mod 2^(m + m.bit_length() + 2), enough for the whole
    recursion (see `CondensedMatrix`).  A shadow of more than
    CONDENSED_ROW_LIMIT rows is refused before anything is built."""
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    n, rows = 2 * m, m * (m + 1) // 2
    if rows > CONDENSED_ROW_LIMIT:
        top = (isqrt(8 * CONDENSED_ROW_LIMIT + 1) - 1) // 2
        raise ValueError(f"n={n} needs {rows} condensed rows, above the cap "
                         f"{CONDENSED_ROW_LIMIT} (n <= {2 * top})")
    evens = tuple(range(n, 0, -2))  # 2 <= even < 2^precision: its own residue
    return CondensedMatrix(m, m + m.bit_length() + 2,
                           tuple(evens[k:] for k in range(m)),
                           tuple(count_full_rank(n, k) for k in range(m)))


class ReductionStep(_Record):
    """Result of one diagonal-killing pass over a condensed matrix."""
    # odd_pivots: (value, weight) pairs; residuals: even / odd block indices
    __slots__ = ("odd_pivots", "even_residual", "odd_residual")


def reduce_condensed(c: CondensedMatrix) -> ReductionStep:
    """Kill the even diagonal with the odd condensed entries.

    Position j of chain k is row (i, k), i = k+j-1, with its even entry at
    column (i-1, k) and its diagonal j at column (i, k).  For each odd value
    q at (i, k): a column operation scales column (i, k) by the 2-multiple
    c/q and subtracts it from column (i-1, k), killing the even entry in the
    same row and writing a 4-multiple at (i+1, k), (i-1, k); a row operation
    then kills the even entry below the pivot.  The surviving rows, the even
    positions of each chain, halved, form two copies of the half-size shadow.

    Arithmetic is mod 2^precision: dividing by q multiplies by its inverse
    mod 2^precision, and halving an even residue shifts it right by one bit,
    so the residuals hold residues mod 2^(precision-1).
    """
    m = c.m
    modulus = 1 << c.precision
    mask = modulus - 1
    rows: dict = {}
    cols: dict = {}
    for k, ch in enumerate(c.entries, 1):
        for i, v in enumerate(ch, k):
            rows[(i, k)] = {(i - 1, k): v, (i, k): i + 1 - k}
            cols.setdefault((i - 1, k), set()).add((i, k))
            cols.setdefault((i, k), set()).add((i, k))

    def add_to(r, cl, delta):
        # only even entries change: a diagonal value is never a target
        cur = (rows[r].get(cl, 0) + delta) & mask
        if cur:
            rows[r][cl] = cur
            cols[cl].add(r)
        else:
            rows[r].pop(cl, None)
            cols[cl].discard(r)

    pivots = [(i, k) for i in range(1, m + 1) for k in range(1, i + 1)
              if (i + 1 - k) % 2 == 1]
    odd_out = []
    for (i, k) in pivots:
        src = (i, k)
        dst = (i - 1, k)
        q = rows[src][src]
        assert q == i + 1 - k and q % 2 == 1
        inverse = pow(q, -1, modulus)
        t = rows[src][dst] * inverse & mask
        assert t and not t & 1
        for r in list(cols[src]):
            add_to(r, dst, -t * rows[r][src])
        if i < m:
            below = (i + 1, k)
            tv = rows[below].get(src)
            if tv is not None:
                f = tv * inverse & mask
                assert f and not f & 1
                for cl in list(rows[src]):
                    add_to(below, cl, -f * rows[src][cl])
        odd_out.append((q, c.weights[k - 1]))

    # the pivot rows and columns must now be clean
    for (i, k) in pivots:
        assert set(rows[(i, k)]) == {(i, k)}
        assert cols[(i, k)] == {(i, k)}

    # position J = 2, 4, ... of chain k, row (i, k), now holds only its fill
    # at (i-2, k) and its diagonal J; halved, the fills in order are chain
    # ceil(k/2) of the even residual if k is odd, of the odd one if k is even
    split = ([], []), ([], [])  # (chains, weights) of the even, odd residual
    for k, weight in enumerate(c.weights, 1):
        halves = []
        for i in range(k + 1, m + 1, 2):
            row = rows[(i, k)]
            fill = row.get((i - 2, k), 0)
            assert fill and not fill & 1, "odd or zero fill in a surviving row"
            assert row == {(i - 2, k): fill, (i, k): i + 1 - k}, \
                "entry outside the chain"
            halves.append(fill >> 1)
        if halves:  # a chain of length 1 has no survivor
            chains, weights = split[1 - k % 2]
            chains.append(tuple(halves))
            weights.append(weight)
    return ReductionStep(tuple(odd_out), *(
        CondensedMatrix(size, c.precision - 1, tuple(chains), tuple(weights))
        for size, (chains, weights) in zip((m // 2, max(m - 1, 0) // 2), split)))


def two_local_divisors_of_M(n: int) -> dict:
    """2-elementary divisors of M by full recursive condensed reduction, as
    {exponent: multiplicity}; no zero multiplicity is stored.

    An odd pivot of weight w found after d halvings contributes w to the
    multiplicity of 2^d.
    """
    mult: dict = {}
    stack = [(build_condensed(_require_even(n)), 0)]
    while stack:
        c, depth = stack.pop()
        if c.m == 0:
            continue
        step = reduce_condensed(c)
        for _value, weight in step.odd_pivots:
            mult[depth] = mult.get(depth, 0) + weight
        stack.append((step.even_residual, depth + 1))
        stack.append((step.odd_residual, depth + 1))
    return mult


# -- closed-form Smith group ----------------------------------------------


def _factor_small(x: int) -> dict:
    x = abs(x)
    out = {}
    f = 2
    while f * f <= x:
        while x % f == 0:
            out[f] = out.get(f, 0) + 1
            x //= f
        f += 1 if f == 2 else 2
    if x > 1:
        out[x] = out.get(x, 0) + 1
    return out


def _valuation_tables(counts: dict) -> dict:
    """prime -> {exponent -> multiplicity} for a multiset of nonzero values
    given as value -> multiplicity.  Only the primes dividing some value
    appear; exponent 0 counts the values the prime does not divide."""
    total = sum(counts.values())
    tables: dict = {}
    for v, cnt in counts.items():
        for p, e in _factor_small(v).items():
            table = tables.setdefault(p, {})
            table[e] = table.get(e, 0) + cnt
    for table in tables.values():
        table[0] = total - sum(table.values())
    return tables


def _positional_merge(tables: dict, total: int) -> tuple:
    """Invariant factors, run-length encoded in chain order, of a diagonal
    of `total` nonzero entries whose p-adic valuations are tables[p]
    (exponent -> multiplicity); primes absent from `tables` divide nothing.

    Works positionally: for every prime the sorted valuations are aligned to
    the diagonal positions, so multiplicities may be astronomically large.
    The running factor changes only where some prime's run ends.
    """
    factor = 1
    steps: dict = {}  # position -> multiplier taking effect there
    for p, table in tables.items():
        runs = sorted((e, c) for e, c in table.items() if c)
        factor *= p ** runs[0][0]
        pos = 0
        for (e, c), (e_next, _) in zip(runs, runs[1:]):
            pos += c
            steps[pos] = steps.get(pos, 1) * p ** (e_next - e)
    out = []
    prev = 0
    for pos in sorted(steps):
        out.append((factor, pos - prev))
        factor *= steps[pos]
        prev = pos
    out.append((factor, total - prev))
    return tuple(out)


def invariant_factor_rle(counts: dict) -> tuple:
    """Invariant factors of a diagonal matrix given as value -> multiplicity,
    returned run-length encoded as (factor, count) pairs in chain order;
    multiplicities may be astronomically large."""
    merged: dict = {}
    for v, c in counts.items():
        if c:
            merged[abs(v)] = merged.get(abs(v), 0) + c
    if 0 in merged:
        raise ValueError("zero entry in a nonzero-diagonal multiset")
    total = sum(merged.values())
    if total == 0:
        return ()
    return _positional_merge(_valuation_tables(merged), total)


class SmithGroupSummary(_Record):
    """Diagonal form of the cube's adjacency matrix plus the free rank."""
    __slots__ = ("n", "free_rank", "nonzero")  # nonzero: diagonal entry -> multiplicity

    def invariant_factor_rle(self) -> tuple:
        return invariant_factor_rle(self.nonzero)


def eigenvalue_diagonal(n: int) -> dict:
    """Multiset of cube eigenvalues n - 2*l with multiplicity C(n, l),
    counted with `math.comb` apart from the closed form's binomial row."""
    return {n - 2 * l: comb(n, l) for l in range(n + 1)}


def smith_group(n: int) -> SmithGroupSummary:
    """Closed-form Smith group of the n-cube.

    Even n = 2m: C(n, m) zeros and entries k = 1..m with multiplicity
    2*C(n, m-k).  Odd n: the eigenvalue diagonal itself is a diagonal form,
    and |n - 2l| = |n - 2(n-l)|, so entry n - 2l, l < n/2, has multiplicity
    2*C(n, l).  Both read the row C(n, 0..n//2).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    m = n // 2
    binom = _binomial_row(n, m)
    if n % 2 == 0:
        return SmithGroupSummary(n, binom[m],
                                 {k: 2 * binom[m - k] for k in range(1, m + 1)})
    return SmithGroupSummary(n, 0, {n - 2 * l: 2 * c for l, c in enumerate(binom)})


def smith_group_oracle(n: int) -> SmithGroupSummary:
    """Smith group by generic elimination on the bipartite block B of A.

    Every edge joins a vertex of even weight to one of odd weight, so with
    the even vertices first A = [[0, B], [B^t, 0]], coker A is coker B plus
    coker B^t, and SNF(B^t) = SNF(B): each invariant factor of B counts
    twice.  Both facts are checked on A itself before B is taken.
    """
    a = adjacency(n)
    odd = [s.bit_count() & 1 for s in vertex_order(n)]
    if a != a.transpose():
        raise ValueError(f"adjacency matrix of Q_{n} is not symmetric")
    if any(odd[i] == odd[j] for i in range(a.rows) for j, _ in a.pairs(i)):
        raise ValueError(f"adjacency matrix of Q_{n} joins two vertices "
                         "of the same weight parity")
    inv = snf(a.submatrix([i for i, o in enumerate(odd) if not o],
                          [i for i, o in enumerate(odd) if o]))
    nonzero: dict = {}
    for d in inv.factors:
        nonzero[d] = nonzero.get(d, 0) + 2
    return SmithGroupSummary(n, a.rows - 2 * len(inv.factors), nonzero)


def smith_group_reduction(n: int) -> SmithGroupSummary:
    """Smith group assembled from the structural routes: the recursive
    condensed reduction for the 2-part (doubled across the two half blocks),
    whose size is the rank, and the eigenvalue diagonal for every odd prime.
    A diagonal with another nonzero count is not merged: the 2-part is
    returned alone.  Odd n has no structural route and is rejected."""
    _require_even(n)
    two_part = {e: 2 * c for e, c in two_local_divisors_of_M(n).items()}
    rank = sum(two_part.values())
    free_rank = (1 << n) - rank
    eigen = {v: c for v, c in eigenvalue_diagonal(n).items() if v}
    if sum(eigen.values()) != rank:
        return SmithGroupSummary(n, free_rank,
                                 {1 << e: c for e, c in two_part.items()})
    tables = _valuation_tables(eigen)
    tables[2] = two_part
    return SmithGroupSummary(n, free_rank, dict(_positional_merge(tables, rank)))


def same_group(a: SmithGroupSummary, b: SmithGroupSummary) -> bool:
    """Equality as abelian groups: the same free rank and the same number of
    cyclic factors of each prime power p^e.  Each nonzero entry is factored
    here, sharing no helper with any route, by trial division with every p
    from 2 to n; a rest above 1 is kept whole as its own key, so a wrong
    entry can neither hang the comparison nor match by accident, and a zero
    entry is a mismatch."""
    def table(summary):
        out: dict = {}
        for v, c in summary.nonzero.items():
            rest = abs(v)
            if not rest:
                return None
            for p in range(2, summary.n + 1):
                e = 0
                while rest % p == 0:
                    rest, e = rest // p, e + 1
                if e:
                    out[p, e] = out.get((p, e), 0) + c
                if rest == 1:
                    break
            if rest > 1:
                out[rest, 1] = out.get((rest, 1), 0) + c
        return out
    ta = table(a)
    return a.free_rank == b.free_rank and ta is not None and ta == table(b)


# -- conjecture and Laplacian reports -------------------------------------


def _two_adic_table(counts: dict) -> dict:
    """{e: multiplicity} of a multiset given as value -> multiplicity, where
    e = v2(value) is the index of the value's lowest set bit."""
    table: dict = {}
    for x, c in counts.items():
        e = (x & -x).bit_length() - 1
        table[e] = table.get(e, 0) + c
    return table


def verify_conjecture(n: int, oracle_cap: int) -> bool:
    """2^i occurs among the 2-elementary divisors as often as an eigenvalue
    is exactly divisible by 2^(i+1), that is its half by 2^i, and the free
    rank is the multiplicity of the eigenvalue 0; n even.  The divisor side
    is the oracle's summary up to oracle_cap, the reduction's beyond it."""
    _require_even(n)
    summary = (smith_group_oracle(n) if n <= oracle_cap
               else smith_group_reduction(n))
    eigen = eigenvalue_diagonal(n)
    zero_eigen = eigen.pop(0)
    return (_two_adic_table(summary.nonzero)
            == _two_adic_table({v // 2: c for v, c in eigen.items()})
            and summary.free_rank == zero_eigen)


def laplacian_partial_check(n: int) -> tuple:
    """For n = 2^s the adjacency and Laplacian matrices agree mod 2^s, so the
    multiplicities of 2^i agree for i < s: the (i, multiplicity in A,
    multiplicity in nI - A) for each i < s.  Both sides are counted exactly
    over Z/2^s by `two_adic_counts`."""
    if n < 2 or n & (n - 1):
        raise ValueError(f"n must be a power of two >= 2, got {n}")
    s = n.bit_length() - 1
    a = adjacency(n)
    counts_a = two_adic_counts(a, s)
    counts_l = two_adic_counts(_laplacian_of(a, n), s)
    return tuple(zip(range(s), counts_a, counts_l))
