"""Dense fixtures for the sparse `IntMatrix`, which only `from_rows` builds,
and a p-adic valuation to check the 2-adic tallies against."""
from smithcube.bigmat import IntMatrix


def from_grid(grid, cols=None) -> IntMatrix:
    """The matrix with one dense list of entries per row of `grid`; `cols`
    defaults to the length of the first row."""
    rows = [dict(enumerate(row)) for row in grid]
    return IntMatrix.from_rows(rows, len(grid[0]) if cols is None else cols)


def valuation(x: int, p: int) -> int:
    """Exponent of the prime p in the nonzero int x, by repeated division:
    the tests' reference, independent of the lowest-set-bit tally in `src`."""
    if not x:
        raise ValueError("valuation of zero")
    e = 0
    while x % p == 0:
        x //= p
        e += 1
    return e
