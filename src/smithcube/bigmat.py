"""Exact integer matrices, Smith normal form, and elementary divisors.

Everything works over plain Python ints, so there is no precision limit and
no rounding anywhere.  Matrices are immutable and store their nonzero
entries only; all operations return new values, which makes them safe to
share between threads.
"""
from __future__ import annotations

import re
from heapq import heapify, heappop, heappush
from math import gcd
from operator import itemgetter
from struct import pack

# the module behind collections.abc, which os and collections load anyway,
# so the annotations resolve without importing collections.abc or typing
from _collections_abc import Iterable, Sequence


# no matrix side exceeds 2^SIZE_CAP: the cube matrices (side 2^n) refuse n
# above SIZE_CAP, a subset-indexed matrix refuses a side C(n, k) above
# 2^SIZE_CAP, and `from_text` refuses a header side above 2^SIZE_CAP
SIZE_CAP = 14

_PLAIN_INT = frozenset({int})


def _check_entries(values) -> None:
    """Refuse, naming the first, any entry that is not a plain int: bool and
    every other int subclass too, as for columns and counts."""
    if not set(map(type, values)) <= _PLAIN_INT:
        bad = next(x for x in values if type(x) is not int)
        raise TypeError(f"non-integer entry {bad!r}")


def _check_count(count, name: str) -> None:
    if type(count) is not int:
        raise TypeError(f"non-integer {name} count {count!r}")
    if count < 0:
        raise ValueError("negative dimensions")


def _pairs(row: dict) -> tuple:
    """The nonzero (col, value) pairs of a {col: value} row, in column order."""
    return tuple(sorted(filter(itemgetter(1), row.items())))


class _Record:
    """Immutable record whose fields are its slots, given positionally;
    `==` holds only within one class, and `validate` runs on construction."""
    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)
        self.validate()

    def validate(self) -> None:
        """Refuse invalid fields; the default accepts any."""

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__slots__))

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __reduce__(self):
        return type(self), self._values()

    def __repr__(self):
        fields = ", ".join(f"{k}={v!r}" for k, v in zip(self.__slots__, self._values()))
        return f"{type(self).__name__}({fields})"


class IntMatrix(_Record):
    """Sparse matrix of arbitrary-precision integers.

    Each row is stored as its nonzero (col, value) pairs in column order;
    zeros are never stored, so equal matrices have equal storage.
    """

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, *args, **kwargs):
        # the base's __init__ would store unchecked rows
        raise TypeError("IntMatrix(...) builds nothing; use IntMatrix.from_rows")

    @classmethod
    def _stored(cls, data: tuple, cols: int) -> "IntMatrix":
        """Wrap rows that are already nonzero pairs in column order."""
        m = object.__new__(cls)
        _Record.__init__(m, len(data), cols, data)
        return m

    def __reduce__(self):
        return type(self)._stored, (self._data, self.cols)

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Iterable[dict], cols: int) -> "IntMatrix":
        """Matrix with one {col: value} dict per row, the one builder.
        `cols` is a plain int >= 0, values and columns are plain ints,
        columns lie in 0..cols-1 and zero values are dropped."""
        _check_count(cols, "column")
        data = []
        for row in rows:
            _check_entries(row.values())
            if row and not set(map(type, row)) <= _PLAIN_INT:
                raise TypeError(f"non-integer column in row {len(data)}")
            if row and (min(row) < 0 or max(row) >= cols):
                raise ValueError(f"row {len(data)} has a column outside "
                                 f"0..{cols - 1}")
            data.append(_pairs(row))
        return cls._stored(tuple(data), cols)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        _check_count(rows, "row")
        _check_count(cols, "column")
        return cls._stored(((),) * rows, cols)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls.from_rows(({i: 1} for i in range(n)), n)

    @classmethod
    def diagonal(cls, entries: Sequence[int]) -> "IntMatrix":
        return cls.from_rows(({i: e} for i, e in enumerate(entries)), len(entries))

    # -- access -----------------------------------------------------------

    def pairs(self, i: int) -> tuple:
        """The stored nonzero (col, value) pairs of row i, in column order."""
        return self._data[i]

    def row_lists(self) -> list:
        """Dense mutable copy of the entries, row-major."""
        grid = [[0] * self.cols for _ in range(self.rows)]
        for out, row in zip(grid, self._data):
            for j, v in row:
                out[j] = v
        return grid

    # the base's own methods, bound here because the tracer wraps __eq__ by
    # name in this class body, and a class body that sets __eq__ alone
    # drops the inherited __hash__
    __eq__, __hash__ = _Record.__eq__, _Record.__hash__

    def __repr__(self):
        return f"IntMatrix({self.rows}x{self.cols})"

    # -- arithmetic -------------------------------------------------------

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        """Product that touches nonzeros only: each stored pair (j, v) of a
        row of `self` adds v times row j of `other` into one accumulator, so
        the cost is the number of nonzero pairs that meet."""
        if self.cols != other.rows:
            raise ValueError(f"dimension mismatch {self.cols} != {other.rows}")
        right = other._data
        out = []
        for row in self._data:
            acc: dict = {}
            for j, v in row:
                for c, b in right[j]:
                    acc[c] = acc.get(c, 0) + v * b
            out.append(_pairs(acc))
        return IntMatrix._stored(tuple(out), other.cols)

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("dimension mismatch")
        out = []
        for r, s in zip(self._data, other._data):
            acc = dict(r)
            for c, v in s:
                acc[c] = acc.get(c, 0) + v
            out.append(_pairs(acc))
        return IntMatrix._stored(tuple(out), self.cols)

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        return self + other.scale(-1)

    def scale(self, c: int) -> "IntMatrix":
        _check_entries((c,))
        if not c:
            return IntMatrix.zeros(self.rows, self.cols)
        return IntMatrix._stored(tuple(tuple((j, c * v) for j, v in row)
                                       for row in self._data), self.cols)

    def transpose(self) -> "IntMatrix":
        out: list = [[] for _ in range(self.cols)]
        for i, row in enumerate(self._data):
            for j, v in row:
                out[j].append((i, v))
        return IntMatrix._stored(tuple(map(tuple, out)), self.rows)

    def submatrix(self, row_indices: Iterable[int],
                  col_indices: Iterable[int]) -> "IntMatrix":
        ri = list(row_indices)
        ci = list(col_indices)
        for i in ri:
            if not 0 <= i < self.rows:
                raise IndexError(f"row {i} out of bounds")
        targets: dict = {}  # old column -> its new columns
        for k, j in enumerate(ci):
            if not 0 <= j < self.cols:
                raise IndexError(f"column {j} out of bounds")
            targets.setdefault(j, []).append(k)
        out = []
        for i in ri:
            acc = {}
            for j, v in self._data[i]:
                for k in targets.get(j, ()):
                    acc[k] = v
            out.append(tuple(sorted(acc.items())))
        return IntMatrix._stored(tuple(out), len(ci))

    def determinant(self) -> int:
        """Exact determinant by fraction-free (Bareiss) elimination."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        a = self.row_lists()
        sign = 1
        prev = 1
        for k in range(n - 1):
            if a[k][k] == 0:
                for i in range(k + 1, n):
                    if a[i][k]:
                        a[k], a[i] = a[i], a[k]
                        sign = -sign
                        break
                else:
                    return 0
            akk = a[k][k]
            for i in range(k + 1, n):
                aik = a[i][k]
                ai = a[i]
                ak = a[k]
                for j in range(k + 1, n):
                    ai[j] = (akk * ai[j] - aik * ak[j]) // prev
                ai[k] = 0
            prev = akk
        return sign * a[n - 1][n - 1]


# -- invariant factors and elementary divisors ----------------------------


class InvariantFactors(_Record):
    """Invariant factors d_1 | ... | d_r, all positive, and zero_count >= 0."""
    __slots__ = ("factors", "zero_count")

    def validate(self) -> None:
        f, z = self.factors, self.zero_count
        if type(f) is not tuple or not set(map(type, (*f, z))) <= _PLAIN_INT:
            raise TypeError("factors must be a tuple of ints, zero_count an int")
        if z < 0 or any(d < 1 for d in f):
            raise ValueError("factors must be positive and zero_count >= 0")
        for a, b in zip(f, f[1:]):
            if b % a:
                raise ValueError(f"divisibility chain broken: {a} does not divide {b}")


def _packed(m: IntMatrix, width: int) -> list:
    """Each row of m as one int, the entry in column c at bits width*c on,
    as an exact signed sum."""
    return [sum(v << c * width for c, v in row) for row in m._data]


def _combine(pairs: tuple, rows: list) -> int:
    """The sum of v * rows[c] over the (c, v) pairs, for packed rows; a unit
    v adds its row as it is, since multiplying a packed row by 1 copies it."""
    return sum(rows[c] if v == 1 else v * rows[c] for c, v in pairs)


def _divisibility_chain(entries: Iterable[int]) -> list:
    """Invariant factors of a diagonal matrix with the given nonzero entries.

    Pairwise gcd/lcm exchanges: each step preserves the matrix class up to
    integral equivalence, and the sweep leaves a divisibility chain.  Avoids
    any integer factorization.
    """
    d = sorted(abs(e) for e in entries)
    # a unit divides everything, so the leading 1s stay as they are
    for i in range(d.count(1), len(d)):
        di = d[i]
        for j in range(i + 1, len(d)):
            if d[j] % di:
                g = gcd(di, d[j])
                d[j] = di * d[j] // g
                di = g
        d[i] = di
    return d


# _eliminate leaves its dict rows for packed rows once the nonzeros of the
# active block reach this fraction of its rows times its columns
_DENSE_FILL = 0.5
# the slot widths, in bits, that struct packs and memoryview casts as one code;
# wider slots go through int.to_bytes and int.from_bytes
_SLOT_CODES = {16: "h", 32: "i", 64: "q"}


def _slot_bias(bits: int, width: int) -> int:
    """2^(bits-1) in each of `width` slots of `bits` bits."""
    return int.from_bytes((1 << bits - 1).to_bytes(bits // 8, "little") * width, "little")


def _pack_row(values: list, bits: int, bias: int) -> int:
    """One int holding the given entries, entry j at bits `bits`*j on, as an
    exact signed sum; `bias` is `_slot_bias(bits, len(values))`."""
    code = _SLOT_CODES.get(bits)
    if code:
        raw = pack(f"<{len(values)}{code}", *values)
    else:
        raw = b"".join(v.to_bytes(bits // 8, "little", signed=True) for v in values)
    return (int.from_bytes(raw, "little") ^ bias) - bias


def _unpack_row(row: int, bits: int, bias: int, width: int) -> list:
    """The `width` entries of a packed row, inverse of `_pack_row`."""
    size = bits // 8
    raw = ((row + bias) ^ bias).to_bytes(size * width, "little")
    code = _SLOT_CODES.get(bits)
    if code:
        return memoryview(raw).cast(code).tolist()
    return [int.from_bytes(raw[i:i + size], "little", signed=True)
            for i in range(0, len(raw), size)]


def _packed_tail(rows: dict, cols: dict) -> list:
    """Finish `_eliminate`'s block on packed rows, writing neither argument,
    and return the nonzero diagonal entries produced: each active row
    becomes one int with a slot per active column, so a row update R - q*P
    is one big-int expression instead of one Python step per cell.

    Every entry stays below a quarter of its slot's range, 2^(bits-2) in
    absolute value, by a bound kept per row; slots start at the narrowest
    of 16, 32, 64, 128, ... bits that holds the block's largest entry.  An
    update adds |q| times the pivot row's bound to the row's bound.  A
    bound that reaches the limit repacks every row at twice the width,
    which always suffices; at 64 bits and wider both bounds are first made
    exact by unpacking the two rows, and the slots widen only if the exact
    bound still reaches the limit.  The bounds, and so the pivots, are
    thus those of 64-bit slots alone wherever those would finish.
    """
    order = sorted(cols)
    slot = {c: k for k, c in enumerate(order)}
    width = len(order)
    bound = [max(map(abs, row.values())) for row in rows.values()]
    grid = []
    for row in rows.values():
        values = [0] * width
        for c, v in row.items():
            values[slot[c]] = v
        grid.append(values)
    bits = 16
    while max(bound) >> bits - 2:
        bits *= 2
    bias, limit = _slot_bias(bits, width), 1 << bits - 2
    packed = [_pack_row(values, bits, bias) for values in grid]
    found = []
    while packed:
        # the pivot row has the least bound, and the pivot is its entry of
        # least |value|
        pr = min(range(len(packed)), key=bound.__getitem__)
        values = _unpack_row(packed[pr], bits, bias, width)
        sizes = list(map(abs, values))
        least = min(filter(None, sizes), default=0)
        if not least:
            del packed[pr], bound[pr]
            continue
        bound[pr] = max(sizes)
        pc = sizes.index(least)
        while True:
            shift, mask, half = bits * pc, (1 << bits) - 1, 1 << bits - 1
            column = [((r + bias) >> shift & mask) - half for r in packed]
            while True:
                # nearest-quotient row steps clear the column under the pivot
                p = column[pr]
                prow = packed[pr]
                for r, v in enumerate(column):
                    if not v or r == pr:
                        continue
                    q, rem = divmod(v, p)
                    if 2 * abs(rem) > abs(p):
                        q += 1
                        rem -= p
                    if not q:
                        continue
                    b = bound[r] + abs(q) * bound[pr]
                    if b >= limit and bits >= 64:
                        bound[pr] = max(map(abs, _unpack_row(prow, bits, bias, width)))
                        b = (max(map(abs, _unpack_row(packed[r], bits, bias, width)))
                             + abs(q) * bound[pr])
                    if b >= limit:
                        # b < limit^2 + limit, as |q| <= |v| < limit, so one
                        # doubling to a limit of 4 * limit^2 holds it
                        grid = [_unpack_row(x, bits, bias, width) for x in packed]
                        bits *= 2
                        bias, limit = _slot_bias(bits, width), 1 << bits - 2
                        packed = [_pack_row(values, bits, bias) for values in grid]
                        prow = packed[pr]
                    packed[r] -= q * prow
                    # a row that turns zero is dropped at the next pivot
                    bound[r] = b if packed[r] else 0
                    column[r] = rem
                left = [r for r, v in enumerate(column) if v and r != pr]
                if not left:
                    break
                pr = min(left, key=lambda r: (abs(column[r]), bound[r]))
            # nearest-quotient column steps reduce the rest of the pivot row;
            # its column is clean, so they touch no other row
            values = _unpack_row(packed[pr], bits, bias, width)
            rest = []
            for c, x in enumerate(values):
                if x and c != pc:
                    x %= p
                    if 2 * abs(x) > abs(p):
                        x -= p
                    values[c] = x
                    if x:
                        rest.append(c)
            if not rest:
                found.append(p)
                del packed[pr], bound[pr]
                break
            packed[pr] = _pack_row(values, bits, bias)
            bound[pr] = max(map(abs, values))
            pc = min(rest, key=lambda c: abs(values[c]))
    return found


def _components(m: IntMatrix):
    """Yield each connected component of m's row-column graph as
    `_eliminate`'s {key: row} dicts and column index, its rows and columns
    numbered in the order a breadth-first sweep from its first nonzero row
    finds them, and each row dict in that column order."""
    data = m._data
    index: list = [[] for _ in range(m.cols)]  # column -> its (row, value)s
    for i, row in enumerate(data):
        for c, v in row:
            index[c].append((i, v))
    key = [-1] * m.rows  # row -> its number in its component
    for start, row in enumerate(data):
        if not row or key[start] >= 0:
            continue
        key[start] = 0
        order = [start]
        found = []  # the index entries of the columns found, in order
        for r in order:  # order grows as the sweep finds rows
            for c, _ in data[r]:
                col = index[c]
                if col:
                    found.append(col)
                    index[c] = ()  # found; no later row reopens it
                    for s, _ in col:
                        if key[s] < 0:
                            key[s] = len(order)
                            order.append(s)
        rows: dict = {k: {} for k in range(len(order))}
        for c, col in enumerate(found):
            for s, v in col:
                rows[key[s]][c] = v
        yield rows, {c: {key[s] for s, _ in col} for c, col in enumerate(found)}


def _eliminate(m: IntMatrix) -> list:
    """Diagonalize an integer matrix by unimodular row and column operations;
    returns the list of nonzero diagonal entries produced.

    A breadth-first sweep splits the matrix into the connected components
    of its row-column graph, finished one at a time, and numbers each one's
    rows and columns in the order it finds them (Cuthill-McKee, which keeps
    fill low).  The tie-breaks below follow that numbering, not the labels:
    a signed, permuted A(10) costs what A(10) does.

    The sparse phase works on one {col: value} dict per row and a
    column -> row-set index that mirrors them.  The pivot row is the
    shortest active row, and the pivot is its entry of least absolute value,
    ties going to the shortest column.  Row operations with the pivot row
    clear the pivot column; column operations then reduce the pivot row,
    and they touch only that row because its column is already clean.  Both
    passes take the nearest quotient, so each remainder is at most half the
    pivot in absolute value, which keeps coefficients small.  A nonzero
    remainder left by either pass becomes the new pivot: the smallest one,
    a remainder in the pivot row going to the shortest column.  Pivots thus
    strictly shrink in absolute value, so the loop terminates.

    Each component keeps its nonzero count as it goes, and a heap of
    (length, key) pairs in which a row is pushed again whenever its length
    changes; a pair whose row is gone or has another length is dropped when
    it reaches the top.  The top pair is then the least (length, key), the
    first shortest row, and neither the pivot search nor the fill test
    scans the active rows.

    The dense phase starts once per component, when its active nonzeros
    reach _DENSE_FILL times its rows times its columns (a test of the whole
    matrix would let components dilute each other's fill): `_packed_tail`
    packs each active row into one int, a signed slot per active column,
    and finishes the component with the same steps, each row update one
    big-int expression, widening its slots as the entries grow.
    """
    diag = []
    for rows, cols in _components(m):
        nonzeros = sum(map(len, rows.values()))
        lengths = [(len(row), r) for r, row in rows.items()]
        heapify(lengths)
        while rows:
            if nonzeros >= _DENSE_FILL * len(rows) * len(cols):
                diag += _packed_tail(rows, cols)
                break
            size, pr = lengths[0]
            while pr not in rows or len(rows[pr]) != size:
                heappop(lengths)
                size, pr = lengths[0]
            row = rows[pr]
            pc = min(row, key=lambda c: (abs(row[c]), len(cols[c])))
            while True:
                prow = rows[pr]
                p = prow[pc]
                cells = [(c, x, cols[c]) for c, x in prow.items()]
                for r in [r for r in cols[pc] if r != pr]:
                    row = rows[r]
                    q, rem = divmod(row[pc], p)
                    if 2 * abs(rem) > abs(p):
                        q += 1
                    if q:
                        before = len(row)
                        for c, x, col in cells:
                            y = row.get(c)
                            if y is None:  # fill: -q * x is nonzero
                                row[c] = -q * x
                                col.add(r)
                            else:
                                y -= q * x
                                if y:
                                    row[c] = y
                                else:
                                    del row[c]
                                    col.discard(r)
                        if not row:
                            del rows[r]
                        elif len(row) != before:
                            heappush(lengths, (len(row), r))
                        nonzeros += len(row) - before
                left = [r for r in cols[pc] if r != pr]
                if left:
                    pr = min(left, key=lambda r: abs(rows[r][pc]))
                    continue
                before = len(prow)
                for c in [c for c in prow if c != pc]:
                    rem = prow[c] % p
                    prow[c] = rem - p if 2 * abs(rem) > abs(p) else rem
                    if not prow[c]:
                        del prow[c]
                        cols[c].discard(pr)
                        if not cols[c]:
                            del cols[c]
                nonzeros += len(prow) - before
                if len(prow) == 1:
                    diag.append(p)
                    nonzeros -= 1
                    del rows[pr], cols[pc]
                    break
                if len(prow) != before:
                    heappush(lengths, (len(prow), pr))
                pc = min((c for c in prow if c != pc),
                         key=lambda c: (abs(prow[c]), len(cols[c])))
    return diag


def snf(m: IntMatrix) -> InvariantFactors:
    """Smith normal form diagonal of an arbitrary integer matrix."""
    diag = _eliminate(m)
    factors = _divisibility_chain(diag)
    return InvariantFactors(tuple(factors), min(m.rows, m.cols) - len(factors))


def two_adic_counts(m: IntMatrix, e: int) -> tuple:
    """Multiplicities (c_0, ..., c_{e-1}) of 2^i, i < e, among the
    elementary divisors of m, by elimination over Z/2^e.

    This is exact: if the elementary divisors of m over Z have 2-adic
    valuations v_i, those of m over Z/2^e are 2^min(v_i, e), where 2^e = 0
    also stands for every zero divisor, and invertible row and column
    operations over Z/2^e keep them.  So no reduction mod 2^e loses a count
    below e.

    Each row is packed into one int, entry j in the 2e+1 bits from j(2e+1)
    on, as its residue mod 2^e.  At a level with k bits left, a row with an
    odd slot u is scaled by u^-1 mod 2^k, so that slot reads 1, and clears
    its column in every other row r with slot value q by
    r + (2^k - q) * prow, masked back to k bits per slot.  Each slot of
    that sum is below 2^(2k), so no carry leaves its slot and the mask
    gives the exact residues.  The pivot's column is then clean, so column
    operations would clear the rest of its row without touching another:
    the row is dropped and counts one divisor 2^level.  A row with no odd
    slot stays all even after such a step, so one pass clears every unit;
    then every slot is even and every row shifts right by one bit, which
    halves every slot, and the next level starts with k - 1 bits.
    """
    if type(e) is not int:
        raise TypeError(f"e must be an int, got {e!r}")
    if e < 1:
        raise ValueError(f"e must be >= 1, got {e}")
    width = 2 * e + 1
    top = 1 << e
    rows = [r for r in (sum(v % top << c * width for c, v in row)
                        for row in m._data) if r]
    # bit 0 of every slot
    odd = sum(1 << s for s in range(0, m.cols * width, width))
    counts = []
    for k in range(e, 0, -1):
        modulus = 1 << k
        low = modulus - 1
        mask = odd * low
        found = 0
        kept = []
        while rows:
            prow = rows.pop()
            units = prow & odd
            if not units:
                kept.append(prow)
                continue
            s = (units & -units).bit_length() - 1
            prow = prow * pow(prow >> s & low, -1, modulus) & mask
            for rest in (kept, rows):
                for j, r in enumerate(rest):
                    q = r >> s & low
                    if q:
                        rest[j] = r + (modulus - q) * prow & mask
            found += 1
        counts.append(found)
        rows = [r >> 1 for r in kept if r]
    return tuple(counts)


# -- sparse-triple text format --------------------------------------------


# a word as to_text writes it, between spaces, newlines or ends of the text;
# a text is in to_text's grammar when deleting these leaves only spaces and
# newlines (a repeated group, fullmatched, would keep a frame per repeat)
_WORDS = re.compile(r"(?<![^ \n])(?:0|-?[1-9][0-9]*)(?![^ \n])")


def to_text(m: IntMatrix) -> str:
    """Serialize in the sparse-triple format: header "rows cols", one line
    "i j value" per nonzero entry (1-based), terminator "0 0 0"."""
    lines = [f"{m.rows} {m.cols}"]
    for i, row in enumerate(m._data, 1):
        lines.extend(f"{i} {j + 1} {v}" for j, v in row)
    lines.append("0 0 0")
    return "\n".join(lines) + "\n"


def from_text(text: str) -> IntMatrix:
    """Parse the sparse-triple format; exact inverse of :func:`to_text`.

    Strict: the first line with a character or word `to_text` never writes
    is refused (see `_WORDS`), each (i, j) appears at most once with a
    nonzero value, and nothing but blank lines may follow the terminator."""
    lines = [ln for ln in text.split("\n") if ln.strip(" ")]
    if not lines:
        raise ValueError("empty matrix text")
    if _WORDS.sub("", text).strip(" \n"):
        k = next(k for k, ln in enumerate(lines) if _WORDS.sub("", ln).strip(" "))
        raise ValueError(f"expected {3 if k else 2} integers, got line "
                         f"{lines[k].strip(' ')!r}")
    try:
        rows, cols = map(int, lines[0].split())
    except ValueError:
        raise ValueError(f"expected 2 integers, got line "
                         f"{lines[0].strip(' ')!r}") from None
    if not (0 <= rows <= 1 << SIZE_CAP and 0 <= cols <= 1 << SIZE_CAP):
        raise ValueError(f"header {rows} {cols}: each side must lie in 0..2^"
                         f"{SIZE_CAP} = {1 << SIZE_CAP}")
    data: list = [{} for _ in range(rows)]
    for k, ln in enumerate(lines[1:], 1):
        try:
            i, j, v = map(int, ln.split())
        except ValueError:
            raise ValueError(f"expected 3 integers, got line "
                             f"{ln.strip(' ')!r}") from None
        if (i, j, v) == (0, 0, 0):
            if k + 1 < len(lines):
                raise ValueError(f"line after the 0 0 0 terminator: "
                                 f"{lines[k + 1].strip(' ')!r}")
            return IntMatrix._stored(tuple(map(_pairs, data)), cols)
        if not (1 <= i <= rows and 1 <= j <= cols):
            raise ValueError(f"entry ({i}, {j}) out of bounds")
        if j - 1 in data[i - 1]:
            raise ValueError(f"duplicate entry ({i}, {j})")
        if not v:
            raise ValueError(f"zero entry ({i}, {j})")
        data[i - 1][j - 1] = v
    raise ValueError("missing 0 0 0 terminator")
