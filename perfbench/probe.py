"""Host speed probe.

The speed of a shared host changes by up to ~1.7x within seconds as other
tenants come and go, and no run length averages that out.  `once` times a
fixed pure-Python workload made of the operations smithcube spends its time
in.  Each job process samples it right before and right after its work
and, when untraced, from a timer signal during it; the benchmark reports
the job's time without the probes, scaled to the probe's reference speed.
The probe must run inside the job process: its speed varies from process
to process, so a probe in the parent tracks the job worse than no scaling.
Raw wall times are printed and kept beside the scaled ones.
"""
from __future__ import annotations

import time
from fractions import Fraction

REFERENCE_S = 0.0045  # `once` on a 2-core Intel Xeon VM, CPython 3.11
INTERVAL_S = 0.1  # sampling period inside an untraced job
EDGE_SAMPLES = 3  # samples right before and right after the job's work


def once() -> float:
    """Seconds taken by one fixed round of int list arithmetic, tuples,
    dicts, frozenset inclusion, string formatting and Fractions."""
    start = time.perf_counter()
    rows = [[(i * j) % 5 - 2 for j in range(120)] for i in range(120)]
    acc = [0] * 120
    for row in rows:
        acc = [a + 3 * b for a, b in zip(acc, row)]
    {tuple(r[:8]): i for i, r in enumerate(rows)}
    sets = [frozenset((i % 11, i % 13, i % 17)) for i in range(800)]
    sum(1 for s in sets if s <= sets[7])
    "\n".join(f"{i} {j} {v}" for i, r in enumerate(rows[:12]) for j, v in enumerate(r) if v)
    sum((Fraction(i, 2 * i + 1) for i in range(1, 60)), Fraction(0))
    return time.perf_counter() - start


def speed(samples) -> float:
    """Host speed relative to the reference over the sampled interval."""
    return REFERENCE_S * len(samples) / sum(samples)
