"""Dense fixtures for the sparse `IntMatrix`, which only `from_rows` builds."""
from smithcube.bigmat import IntMatrix


def from_grid(grid, cols=None) -> IntMatrix:
    """The matrix with one dense list of entries per row of `grid`; `cols`
    defaults to the length of the first row."""
    rows = [dict(enumerate(row)) for row in grid]
    return IntMatrix.from_rows(rows, len(grid[0]) if cols is None else cols)
