"""Run one benchmark job in a fresh interpreter.

usage: python3 perfbench/job.py META TRACE KIND [ARG ...]

KIND is one of
  cli ARGV...   smithcube.cli.main(ARGV), as the `smithcube` command does
  snf FILE...   bigmat.snf(bigmat.from_text(...)) of each file, one JSON line each
  rle N         smith_group(N).invariant_factor_rle() as JSON

The job's answer goes to stdout.  META receives a JSON object with the
CLOCK_MONOTONIC time at which `smithcube.cli` finished importing (the
parent compares it with the time it spawned this process), the import's
own duration, and with TRACE=1 the spans and counters of the run.  With
TRACE=0 it receives the timings of the host speed probe (probe.py), which
runs a few times right before and right after the job's work and from a
timer signal every probe.INTERVAL_S seconds during it.
"""
from __future__ import annotations

import json
import signal
import sys
import time
from pathlib import Path


def _run_cli(smithcube, args):
    return smithcube.cli.main(args)


def _run_snf(smithcube, paths):
    bigmat = smithcube.bigmat
    for path in paths:
        inv = bigmat.snf(bigmat.from_text(Path(path).read_text()))
        print(json.dumps({"factors": list(inv.factors), "zero_count": inv.zero_count}))
    return 0


def _run_rle(smithcube, args):
    (n,) = args
    print(json.dumps(smithcube.smith_group(int(n)).invariant_factor_rle()))
    return 0


RUNNERS = {"cli": _run_cli, "snf": _run_snf, "rle": _run_rle}


def main(argv) -> int:
    meta_path, trace, kind, *args = argv
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    start = time.monotonic()
    import smithcube.cli
    imported = time.monotonic()
    meta = {"imported": imported, "import_s": imported - start}
    tracer = None
    if trace == "1":
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    else:
        import probe
        samples = meta["probes"] = [probe.once() for _ in range(probe.EDGE_SAMPLES)]
        signal.signal(signal.SIGALRM, lambda *_: samples.append(probe.once()))
        signal.setitimer(signal.ITIMER_REAL, probe.INTERVAL_S, probe.INTERVAL_S)
    try:
        return RUNNERS[kind](smithcube, args)
    finally:
        sys.stdout.flush()
        if tracer is not None:
            meta.update(tracer.export())
        else:
            signal.setitimer(signal.ITIMER_REAL, 0)
            samples.extend(probe.once() for _ in range(probe.EDGE_SAMPLES))
        Path(meta_path).write_text(json.dumps(meta))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
