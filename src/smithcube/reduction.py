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

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .bigmat import (ElemDivTable, IntMatrix, block_diag, p_elementary_divisors,
                     snf, valuation)
from .canonical import _check_half, build_E, wilson_form
from .cube import _check_n, adjacency, graded_blocks, laplacian


def _require_even(n: int) -> int:
    if n < 2 or n % 2:
        raise ValueError(f"even n >= 2 required, got {n}")
    return n // 2


def _binomial_row(n: int, k: int) -> list:
    """[C(n, 0), ..., C(n, k)] by C(n, j+1) = C(n, j) * (n - j) / (j + 1)."""
    row = [1]
    for j in range(k):
        row.append(row[-1] * (n - j) // (j + 1))
    return row


def telescoped_multiplicity(n: int, k: int) -> int:
    """Sum over i = k..m of [C(n,i-k) - C(n,i-1-k)]; telescopes to C(n,m-k)."""
    m = _require_even(n)
    if not 1 <= k <= m:
        raise ValueError(f"k={k} out of range 1..{m}")
    total = 0
    for i in range(k, m + 1):
        total += comb(n, i - k) - (comb(n, i - 1 - k) if i - 1 - k >= 0 else 0)
    return total


# -- the conjugated half block B ------------------------------------------


def stacked_basis(n: int, k: int) -> IntMatrix:
    """Block-diagonal sum of the canonical basis matrices for sizes 0..k."""
    _check_half(n, k)
    return block_diag(*(build_E(n, j) for j in range(k + 1)))


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
    _check_n(n)
    return graded_blocks(n, range(m), range(m + 1),
                         lambda i: wilson_form(n, i, i + 1))


# -- the condensed block shadow -------------------------------------------


def _v2(x: Fraction) -> int:
    num, den = x.numerator, x.denominator
    if num == 0:
        raise ValueError("2-adic valuation of zero")
    # the lowest set bit of an integer is its largest power-of-two divisor
    return (num & -num).bit_length() - (den & -den).bit_length()


@dataclass(frozen=True)
class CondensedMatrix:
    """Blockwise shadow of B: one weighted entry per scalar block.

    Rows are labeled (i, k) with 1 <= k <= i <= m; columns (j, l) with
    0 <= j <= m, 1 <= l <= j + 1.  Row (i, k) holds an even entry at column
    (i-1, k) and the exact value i+1-k at column (i, k).  The weight of row
    (i, k) is the number of matrix rows the block row stands for.  Every
    instance is validated once, on construction.
    """
    m: int
    entries: dict  # (row_label, col_label) -> Fraction, odd denominators
    row_weights: dict  # row_label -> positive int

    def row_labels(self) -> tuple:
        return tuple((i, k) for i in range(1, self.m + 1) for k in range(1, i + 1))

    def col_labels(self) -> tuple:
        return tuple((j, l) for j in range(self.m + 1) for l in range(1, j + 2))

    def shape(self) -> tuple:
        return (self.m * (self.m + 1) // 2, (self.m + 1) * (self.m + 2) // 2)

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        rows = set(self.row_labels())
        cols = set(self.col_labels())
        if set(self.row_weights) != rows:
            raise ValueError("row weights do not cover the row labels")
        if any(w <= 0 for w in self.row_weights.values()):
            raise ValueError("non-positive row weight")
        for (r, c), v in self.entries.items():
            if r not in rows or c not in cols:
                raise ValueError(f"entry at unknown position {(r, c)}")
            i, k = r
            if v == 0:
                raise ValueError(f"explicit zero stored at {(r, c)}")
            if v.denominator % 2 == 0:
                raise ValueError(f"entry at {(r, c)} is not 2-local")
            if c == (i, k):
                if v != i + 1 - k:
                    raise ValueError(f"bad diagonal value {v} at {(r, c)}")
            elif c == (i - 1, k):
                if _v2(v) < 1:
                    raise ValueError(f"odd entry {v} on the even diagonal at {(r, c)}")
            else:
                raise ValueError(f"entry outside the two diagonals at {(r, c)}")
        for (i, k) in rows:
            if ((i, k), (i, k)) not in self.entries:
                raise ValueError(f"missing diagonal value at {(i, k)}")
            if ((i, k), (i - 1, k)) not in self.entries:
                raise ValueError(f"missing even entry in row {(i, k)}")


def build_condensed(m: int, n: int | None = None) -> CondensedMatrix:
    """Condensed shadow of B for half-size m, with the concrete even values
    n - 2(i-1) on the main diagonal and weights taken from the block sizes."""
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    if n is None:
        n = 2 * m
    if n % 2 or n < 2 * m:
        raise ValueError(f"n must be even and >= 2m = {2 * m}, got {n}")
    binom = _binomial_row(n, m)
    # row (i, k) stands for count_full_rank(n, k - 1) rows, whatever i is
    weight_of_k = {k: binom[k - 1] - (binom[k - 2] if k >= 2 else 0)
                   for k in range(1, m + 1)}
    entries = {}
    weights = {}
    for i in range(1, m + 1):
        even = Fraction(n - 2 * (i - 1))
        for k in range(1, i + 1):
            entries[((i, k), (i - 1, k))] = even
            entries[((i, k), (i, k))] = Fraction(i + 1 - k)
            weights[(i, k)] = weight_of_k[k]
    return CondensedMatrix(m, entries, weights)


@dataclass(frozen=True)
class ReductionStep:
    """Result of one diagonal-killing pass over a condensed matrix."""
    odd_pivots: tuple  # (value, weight) pairs
    even_residual: CondensedMatrix  # rows/cols with even block index
    odd_residual: CondensedMatrix  # rows/cols with odd block index


def reduce_condensed(c: CondensedMatrix) -> ReductionStep:
    """Kill the even diagonal with the odd condensed entries.

    For each odd value q at (i, k): a column operation scales column (i, k)
    by the 2-multiple c/q and subtracts it from column (i-1, k), killing the
    even entry in the same row and writing a 4-multiple at (i+1, k), (i-1, k);
    a row operation then kills the even entry below the pivot.  The surviving
    rows and columns split by parity of the block index into two copies of
    the half-size shadow, scaled by 2.
    """
    m = c.m
    rows: dict = {r: {} for r in c.row_labels()}
    cols: dict = {cl: set() for cl in c.col_labels()}
    for (r, cl), v in c.entries.items():
        rows[r][cl] = v
        cols[cl].add(r)

    def add_to(r, cl, delta):
        cur = rows[r].get(cl, Fraction(0)) + delta
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
        assert q == i + 1 - k and int(q) % 2 == 1
        t = rows[src][dst] / q
        assert _v2(t) >= 1
        for r in list(cols[src]):
            add_to(r, dst, -t * rows[r][src])
        if i < m:
            below = (i + 1, k)
            tv = rows[below].get(src)
            if tv is not None:
                f = tv / q
                assert _v2(f) >= 1
                for cl in list(rows[src]):
                    add_to(below, cl, -f * rows[src][cl])
        odd_out.append((int(q), c.row_weights[src]))

    # the pivot rows and columns must now be clean
    for (i, k) in pivots:
        assert set(rows[(i, k)]) == {(i, k)}
        assert cols[(i, k)] == {(i, k)}
    pivot_set = set(pivots)

    def residual(parity: int, new_m: int) -> CondensedMatrix:
        def map_row(lab):
            i, k = lab
            return (i // 2, (k + 1) // 2) if parity == 0 else ((i - 1) // 2, k // 2)

        def map_col(lab):
            j, l = lab
            return (j // 2, (l + 1) // 2) if parity == 0 else ((j - 1) // 2, l // 2)

        entries = {}
        weights = {}
        for r in rows:
            i, k = r
            if r in pivot_set or i % 2 != parity:
                continue
            nr = map_row(r)
            weights[nr] = c.row_weights[r]
            for cl, v in rows[r].items():
                j, _ = cl
                assert j % 2 == parity, "entry crossing the parity split"
                half = v / 2
                entries[(nr, map_col(cl))] = half
        return CondensedMatrix(new_m, entries, weights)

    step = ReductionStep(tuple(odd_out), residual(0, m // 2),
                         residual(1, (m - 1) // 2))
    return step


def two_local_divisors_of_M(n: int) -> ElemDivTable:
    """2-elementary divisors of M by full recursive condensed reduction.

    An odd pivot of weight w found after d halvings contributes w to the
    multiplicity of 2^d.
    """
    m = _require_even(n)
    mult: dict = {}
    stack = [(build_condensed(m, n), 0)]
    while stack:
        c, depth = stack.pop()
        if c.m == 0:
            continue
        step = reduce_condensed(c)
        for _value, weight in step.odd_pivots:
            mult[depth] = mult.get(depth, 0) + weight
        stack.append((step.even_residual, depth + 1))
        stack.append((step.odd_residual, depth + 1))
    return ElemDivTable(2, mult, 0)


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
        if sum(c for _, c in runs) != total:
            raise ValueError(f"valuation table of {p} does not cover {total} entries")
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


@dataclass(frozen=True)
class SmithGroupSummary:
    """Diagonal form of the cube's adjacency matrix plus the free rank."""
    n: int
    free_rank: int
    nonzero: dict  # diagonal entry -> multiplicity

    def total(self) -> int:
        return self.free_rank + sum(self.nonzero.values())

    def invariant_factor_rle(self) -> tuple:
        return invariant_factor_rle(self.nonzero)

    def to_text(self) -> str:
        lines = [f"free_rank {self.free_rank}"]
        for k in sorted(self.nonzero):
            lines.append(f"{k} {self.nonzero[k]}")
        return "\n".join(lines) + "\n"


def eigenvalue_diagonal(n: int) -> dict:
    """Multiset of cube eigenvalues n - 2*l with multiplicity C(n, l)."""
    out: dict = {}
    for level, mult in enumerate(_binomial_row(n, n)):
        out[n - 2 * level] = out.get(n - 2 * level, 0) + mult
    return out


def smith_group(n: int) -> SmithGroupSummary:
    """Closed-form Smith group of the n-cube.

    Even n = 2m: C(n, m) zeros and entries k = 1..m with multiplicity
    2*C(n, m-k).  Odd n: the eigenvalue diagonal itself is a diagonal form.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n % 2 == 0:
        m = n // 2
        binom = _binomial_row(n, m)
        return SmithGroupSummary(n, binom[m],
                                 {k: 2 * binom[m - k] for k in range(1, m + 1)})
    nonzero: dict = {}
    for v, cnt in eigenvalue_diagonal(n).items():
        nonzero[abs(v)] = nonzero.get(abs(v), 0) + cnt
    return SmithGroupSummary(n, 0, nonzero)


def smith_group_oracle(n: int) -> SmithGroupSummary:
    """Smith group by generic elimination on the full adjacency matrix."""
    inv = snf(adjacency(n))
    nonzero: dict = {}
    for d in inv.factors:
        nonzero[d] = nonzero.get(d, 0) + 1
    return SmithGroupSummary(n, inv.zero_count, nonzero)


def smith_group_reduction(n: int) -> SmithGroupSummary:
    """Smith group assembled from the structural routes: the recursive
    condensed reduction for the 2-part (doubled across the two half blocks)
    and the eigenvalue diagonal for every odd prime; n even.

    For odd n the eigenvalue diagonal is already the closed form, so there
    is no structural route to assemble and odd n is rejected."""
    m = _require_even(n)
    free_rank = comb(n, m)
    rank = (1 << n) - free_rank
    tables = _valuation_tables({v: c for v, c in eigenvalue_diagonal(n).items() if v})
    tables[2] = {e: 2 * c for e, c in two_local_divisors_of_M(n).mult.items()}
    return SmithGroupSummary(n, free_rank, dict(_positional_merge(tables, rank)))


def same_group(a: SmithGroupSummary, b: SmithGroupSummary) -> bool:
    """Equality as abelian groups: same free rank and invariant factors."""
    return (a.free_rank == b.free_rank
            and a.invariant_factor_rle() == b.invariant_factor_rle())


# -- conjecture and Laplacian reports -------------------------------------


def verify_conjecture(n: int, oracle_cap: int) -> bool:
    """Multiplicity of 2^i among the 2-elementary divisors equals the count
    of eigenvalues exactly divisible by 2^(i+1); n even.

    The divisor side comes from the elimination oracle up to oracle_cap and
    from the recursive 2-local reduction of the half block M beyond it (M
    and N share their Smith data, so every multiplicity counts twice).
    """
    _require_even(n)
    if n <= oracle_cap:
        table = p_elementary_divisors(adjacency(n), 2)
        divisor_side = {e: c for e, c in table.mult.items() if c}
        free = table.free_rank
    else:
        half = two_local_divisors_of_M(n).mult
        divisor_side = {e: 2 * c for e, c in half.items() if c}
        free = (1 << n) - 2 * sum(half.values())
    eigen_side: dict = {}
    zero_eigen = 0
    for v, cnt in eigenvalue_diagonal(n).items():
        if v == 0:
            zero_eigen += cnt
        else:
            i = valuation(v, 2) - 1
            eigen_side[i] = eigen_side.get(i, 0) + cnt
    return divisor_side == eigen_side and free == zero_eigen


@dataclass(frozen=True)
class LaplacianReport:
    """Shared low 2-elementary divisor multiplicities of A and n*I - A."""
    n: int
    s: int
    comparisons: tuple  # (exponent, mult in A, mult in Laplacian)

    @property
    def ok(self) -> bool:
        return all(a == b for _, a, b in self.comparisons)


def laplacian_partial_check(n: int) -> LaplacianReport:
    """For n = 2^s the adjacency and Laplacian matrices agree mod 2^s, so the
    multiplicities of 2^i agree for i < s.  Verified with the oracle."""
    s = 0
    x = n
    while x > 1 and x % 2 == 0:
        x //= 2
        s += 1
    if x != 1 or s < 1:
        raise ValueError(f"n must be a power of two >= 2, got {n}")
    table_a = p_elementary_divisors(adjacency(n), 2)
    table_l = p_elementary_divisors(laplacian(n), 2)
    comparisons = tuple((i, table_a.mult.get(i, 0), table_l.mult.get(i, 0))
                        for i in range(s))
    return LaplacianReport(n, s, comparisons)
