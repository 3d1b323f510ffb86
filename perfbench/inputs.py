"""Seeded benchmark inputs.

Everything here is a pure function of the seed, so one seed always gives
byte-identical inputs.  The program only ever sees the generated inputs,
never the seed.
"""
from __future__ import annotations

import random

RELABEL_N = 8
RELABEL_COUNT = 8
# (low, high) inclusive bands of even n for the scale workload
SCALE_BANDS = ((120, 136), (240, 256), (304, 320))


def cube_edges(n: int) -> list:
    """Edges (u, v) of the n-cube on bitmask vertices, built from bit flips."""
    return [(u, u ^ (1 << i)) for u in range(1 << n) for i in range(n)]


def relabelled_adjacency(rng: random.Random, n: int) -> str:
    """Adjacency matrix of the n-cube under a signed row permutation and an
    independent column permutation, in the sparse-triple text format.

    Both operations are unimodular, so the Smith group is unchanged.
    """
    size = 1 << n
    row_perm = list(range(size))
    col_perm = list(range(size))
    rng.shuffle(row_perm)
    rng.shuffle(col_perm)
    signs = [rng.choice((1, -1)) for _ in range(size)]
    triples = sorted((row_perm[u], col_perm[v], signs[u]) for u, v in cube_edges(n))
    lines = [f"{size} {size}"]
    lines.extend(f"{i + 1} {j + 1} {s}" for i, j, s in triples)
    lines.append("0 0 0")
    return "\n".join(lines) + "\n"


def relabellings(seed: int) -> list:
    rng = random.Random(f"relabel:{seed}")
    return [relabelled_adjacency(rng, RELABEL_N) for _ in range(RELABEL_COUNT)]


def scale_sizes(seed: int) -> list:
    """One even n per band that the seed picks, and in the top band also
    its mirror about the band centre.

    The seed sets the parity of m = n/2 and so how unevenly the reduction's
    parity split falls.  The reduction's cost grows smoothly with n, so the
    mirrored pair costs nearly the same for every seed; in the lower bands
    a single pick moves the workload's total by under 2%.
    """
    rng = random.Random(f"scale:{seed}")
    out = [rng.choice(range(low, high + 1, 2)) for low, high in SCALE_BANDS]
    low, high = SCALE_BANDS[-1]
    return out + [low + high - out[-1]]
