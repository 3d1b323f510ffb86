"""Reference answers the benchmark computes on its own.

Nothing here imports smithcube: the Smith group comes from the closed form
written out below, and groups are compared by free rank and by the
multiset of p-adic valuations of the nonzero diagonal entries, one prime at
a time.  Two diagonal forms with the same free rank, the same number of
nonzero entries and the same valuation multisets for every prime present
the same abelian group.
"""
from __future__ import annotations

import hashlib
import json
import re
from math import comb

# sha256 of the output of `smithcube matrix <kind> <n>` at the seed commit
MATRIX_DIGESTS = {
    ("B", 8): "9d91eac1a829f1db87a0ab8ab8dfdc18f17bf20b7953d4f7b0d5703e4fcb815f",
    ("adjacency", 12): "eb6b45059d99f451ab7ffdca8843edc4acd19fa68547a540065bdf82e4ad94bc",
    ("M", 12): "c8b3874c8e3647b11fd9d501ed6dcc4603bcfbfdaf973af54876e122c6ab2fa2",
    ("laplacian", 10): "7f3965835c592f017a445d304af267731d4a5d57f55b29452bd164a61a4aa098",
    ("E", 12, 6): "6e0065c3ed220120b77117abe704e77c2eb4ce1682f2af767c002375b15d5dfa",
}

_ELAPSED = re.compile(rb'"elapsed_ms":\d+,?')


def strip_elapsed(output: bytes) -> bytes:
    """Drop the only field of the CLI's JSON output that varies between runs."""
    return _ELAPSED.sub(b"", output)


def closed_form(n: int) -> tuple:
    """(free rank, {diagonal value: multiplicity}) of the n-cube's adjacency
    matrix.  Even n = 2m: free rank C(n, m), values k = 1..m each
    2*C(n, m-k) times.  Odd n: the eigenvalues |n - 2l|, C(n, l) times."""
    if n % 2 == 0:
        m = n // 2
        return comb(n, m), {k: 2 * comb(n, m - k) for k in range(1, m + 1)}
    counts: dict = {}
    for level in range(n + 1):
        v = abs(n - 2 * level)
        counts[v] = counts.get(v, 0) + comb(n, level)
    return 0, counts


def primes_upto(x: int) -> list:
    sieve = bytearray([1]) * (x + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, int(x ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, x + 1, p)))
    return [p for p in range(x + 1) if sieve[p]]


def _factor(value: int, primes: list, prime_set: frozenset) -> dict | None:
    """{p: e} for value > 0 over the given primes, or None if value has a
    prime factor outside them."""
    out = {}
    for p in primes:
        if p * p > value:
            break
        if value % p == 0:
            e = 0
            while value % p == 0:
                value //= p
                e += 1
            out[p] = e
    if value > 1:
        if value not in prime_set:
            return None
        out[value] = out.get(value, 0) + 1
    return out


def valuation_profile(free_rank: int, counts: dict, primes: list):
    """(free rank, number of nonzero entries, {p: {e >= 1: count}}), or None
    if an entry is not positive or has a prime factor outside `primes`."""
    prime_set = frozenset(primes)
    per_prime: dict = {}
    for value, mult in counts.items():
        if value <= 0 or mult < 0:
            return None
        factors = _factor(value, primes, prime_set)
        if factors is None:
            return None
        for p, e in factors.items():
            table = per_prime.setdefault(p, {})
            table[e] = table.get(e, 0) + mult
    return free_rank, sum(counts.values()), {
        p: {e: c for e, c in t.items() if c}
        for p, t in per_prime.items() if any(t.values())}


def reference_profile(n: int):
    free, counts = closed_form(n)
    primes = primes_upto(max(n, 2))
    return valuation_profile(free, counts, primes), primes


def matches_closed_form(n: int, free_rank: int, counts: dict) -> bool:
    expected, primes = reference_profile(n)
    return valuation_profile(free_rank, counts, primes) == expected


def merge_counts(pairs) -> dict:
    out: dict = {}
    for value, mult in pairs:
        out[value] = out.get(value, 0) + mult
    return out


# -- per-output checks; each returns None when correct, else a reason ------


def check_smith_group(output: bytes, n: int, method: str) -> str | None:
    report = json.loads(output)
    expect = {"command": "smith-group", "params": {"method": method, "n": n},
              "status": "ok"}
    for key, value in expect.items():
        if report.get(key) != value:
            return f"{key} is {report.get(key)!r}, expected {value!r}"
    counts = merge_counts((e["value"], e["multiplicity"]) for e in report["entries"])
    if not matches_closed_form(n, report["free_rank"], counts):
        return f"Smith group of Q_{n} differs from the closed form"
    return None


def check_verify(output: bytes, target: str, n: int) -> str | None:
    report = json.loads(output)
    expect = {"command": "verify", "params": {"n": n, "target": target},
              "status": "ok"}
    for key, value in expect.items():
        if report.get(key) != value:
            return f"{key} is {report.get(key)!r}, expected {value!r}"
    payload = report.get("payload")
    if target == "bier":
        want = {"checked_up_to": n // 2, "failures": []}
    elif target == "laplacian":
        s = n.bit_length() - 1
        profile, _ = reference_profile(n)
        _free, total, per_prime = profile
        twos = per_prime.get(2, {})
        mult = [total - sum(twos.values())] + [twos.get(i, 0) for i in range(1, s)]
        want = {"comparisons": [[i, mult[i], mult[i]] for i in range(s)], "s": s}
    else:
        want = None
    if payload != want:
        return f"payload {payload!r}, expected {want!r}"
    return None


def matrix_shape(kind: str, n: int, *sizes: int) -> tuple:
    """(rows, cols, nonzeros) of the matrices the benchmark asks for."""
    if kind == "adjacency":
        return 1 << n, 1 << n, n << n
    if kind == "laplacian":
        return 1 << n, 1 << n, (n + 1) << n
    if kind == "E":
        # rows of W_{j,k} for the C(n,j) - C(n,j-1) full-rank j-subsets, j <= k;
        # each row has a one for every k-superset of its j-subset
        (k,) = sizes
        nnz = sum((comb(n, j) - comb(n, j - 1) if j else 1) * comb(n - j, k - j)
                  for j in range(k + 1))
        return comb(n, k), comb(n, k), nnz
    m = n // 2
    rows = sum(comb(n, i) for i in range(m))
    cols = rows + comb(n, m)
    if kind == "M":
        # diagonal blocks (n - 2i) I plus the inclusion blocks W_{i,i+1}
        nnz = rows + sum((i + 1) * comb(n, i + 1) for i in range(m))
    elif kind == "B":
        # diagonal blocks (n - 2i) I plus the diagonal Wilson forms D_{i,i+1}
        nnz = 2 * rows
    else:
        raise ValueError(f"no reference shape for matrix {kind}")
    return rows, cols, nnz


def check_matrix(output: bytes, kind: str, *params: int) -> str | None:
    lines = output.split(b"\n")
    rows, cols, nnz = matrix_shape(kind, *params)
    if lines[0] != f"{rows} {cols}".encode():
        return f"header {lines[0][:40]!r}, expected {rows} {cols}"
    if lines[-2:] != [b"0 0 0", b""]:
        return "missing 0 0 0 terminator"
    if len(lines) - 3 != nnz:
        return f"{len(lines) - 3} nonzeros, expected {nnz}"
    digest = hashlib.sha256(output).hexdigest()
    if digest != MATRIX_DIGESTS[(kind, *params)]:
        return f"digest {digest[:16]} differs from the fixed one"
    return None


def check_snf_lines(output: bytes, n: int, count: int) -> str | None:
    lines = output.decode().splitlines()
    if len(lines) != count:
        return f"{len(lines)} results, expected {count}"
    for i, line in enumerate(lines):
        result = json.loads(line)
        counts = merge_counts((d, 1) for d in result["factors"])
        if not matches_closed_form(n, result["zero_count"], counts):
            return f"relabelling {i}: Smith group differs from Q_{n}'s closed form"
    return None


def check_rle(output: bytes, n: int) -> str | None:
    rle = json.loads(output)
    factors = [f for f, _ in rle]
    if any(b % a for a, b in zip(factors, factors[1:])):
        return "run-length factors do not form a divisibility chain"
    free, _ = closed_form(n)
    if not matches_closed_form(n, free, merge_counts(rle)):
        return f"invariant factors of Q_{n} differ from the closed form"
    return None
