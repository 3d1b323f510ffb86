"""Self-tests of the benchmark harness itself (not of smithcube).

usage: python3 perfbench/selftest.py      (from the root of a checkout, ~30 s)

Prints one PASS line per check and exits 1 at the first failure.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import inputs
import reference as ref
import run


def expect(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL {message}")
        sys.exit(1)


def with_wrong_multiplicity(output: bytes) -> bytes:
    """Swap the multiplicities of the first two entries: same totals, wrong group."""
    report = json.loads(output)
    a, b = report["entries"][:2]
    a["multiplicity"], b["multiplicity"] = b["multiplicity"], a["multiplicity"]
    return json.dumps(report).encode()


def failures_count(workdir: Path) -> None:
    good = run.smith_job(8, "all")
    wrong = run.Job("smith-group 8, multiplicity tampered", "cli", good.args,
                    "answer", lambda out: good.check(with_wrong_multiplicity(out)))
    refused = run.Job("smith-group 12 --method oracle --cap 10", "cli",
                      ("smith-group", "12", "--method", "oracle", "--cap", "10"),
                      "answer", good.check)
    slow = run.verify_job("half", 10)
    far = time.monotonic() + 120
    results = [run.run_job(good, "g", 0, workdir, far),
               run.run_job(wrong, "w", 0, workdir, far),
               run.run_job(refused, "r", 0, workdir, far),
               run.run_job(slow, "k", 0, workdir, time.monotonic() + 0.5)]
    run.check_results(results)
    reasons = [r.reason for r in results]
    expect(reasons[0] is None, f"good job passes, got {reasons[0]}")
    expect(reasons[1] is not None and "closed form" in reasons[1],
           f"wrong multiplicity fails the check, got {reasons[1]}")
    expect(reasons[2] is not None and reasons[2].startswith("exit code 1"),
           f"nonzero exit fails, got {reasons[2]}")
    expect(reasons[3] is not None and reasons[3].startswith("killed"),
           f"job past its limit is killed, got {reasons[3]}")
    failed = sum(r is not None for r in reasons)
    expect(failed == 3, f"fail ratio 3/4, got {failed}/4")
    print("PASS wrong multiplicity, nonzero exit and killed job each count as failed (3/4)")


def checker_rejects_bad_outputs() -> None:
    same_shape = b"".join([b"4096 4096\n", b"1 2 1\n" * (12 << 12), b"0 0 0\n"])
    reason = ref.check_matrix(same_shape, "adjacency", 12)
    expect(reason is not None and reason.startswith("digest"),
           f"matrix with the right shape but the wrong digest fails, got {reason}")
    expect(ref.check_rle(b"[[2, 1], [3, 1]]", 2) is not None,
           "run-length factors that do not divide each other fail")
    expect(ref.check_verify(b'{"command":"verify","params":{"n":8,"target":"half"},'
                            b'"status":"mismatch"}', "half", 8) is not None,
           "verify status mismatch fails")
    print("PASS reference checker rejects a wrong digest, a broken chain and a mismatch")


def generator_is_seeded(workdir: Path) -> None:
    a, again, b = inputs.relabellings(1), inputs.relabellings(1), inputs.relabellings(2)
    expect("".join(a).encode() == "".join(again).encode(), "same seed, same bytes")
    expect(inputs.scale_sizes(7) == inputs.scale_sizes(7), "same seed, same sizes")
    expect(a != b, "another seed gives other relabellings")
    expect(len({tuple(inputs.scale_sizes(s)) for s in range(8)}) > 1,
           "seeds give other scale sizes")
    far = time.monotonic() + 120
    for seed, texts in ((1, a), (2, b)):
        paths = []
        for i, text in enumerate(texts[:2]):
            path = workdir / f"seed{seed}-{i}.txt"
            path.write_text(text)
            paths.append(str(path))
        job = run.Job("snf", "snf", tuple(paths), "answer",
                      lambda out: ref.check_snf_lines(out, inputs.RELABEL_N, 2))
        result = run.run_job(job, f"snf{seed}", 0, workdir, far)
        run.check_results([result])
        expect(result.reason is None, f"seed {seed} relabellings: {result.reason}")
    print("PASS one seed gives byte-identical inputs; another gives other inputs, same answer")


def trace_keeps_outputs(workdir: Path) -> None:
    jobs = [run.smith_job(8, "all"), run.verify_job("bier", 8),
            run.matrix_job("laplacian", 10),
            run.Job("rle 1000", "rle", ("1000",), "answer",
                    lambda out: ref.check_rle(out, 1000))]
    far = time.monotonic() + 120
    for i, job in enumerate(jobs):
        plain = run.run_job(job, f"p{i}", 0, workdir, far)
        traced = run.run_job(job, f"t{i}", 1, workdir, far)
        run.check_results([plain, traced])
        expect(plain.reason is None and traced.reason is None,
               f"{job.label}: {plain.reason or traced.reason}")
        expect(ref.strip_elapsed(plain.output) == ref.strip_elapsed(traced.output),
               f"{job.label}: traced output differs")
        expect(len(traced.meta["spans"]) > 0, f"{job.label}: no spans recorded")
    print("PASS traced outputs are byte-identical to untraced ones; every job kind passes")


def metric_names_match() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expect(end_to_end == run.END_TO_END_UNITS, "end-to-end metrics match BENCHMARK.json")
    produced = {k: v["unit"] for k, v in run.layer_metrics([], []).items()}
    expect(per_layer == produced, "per-layer metrics match BENCHMARK.json: "
           f"{set(per_layer) ^ set(produced)}")
    print("PASS metric names and units match BENCHMARK.json")


def refuses_without_sources(workdir: Path) -> None:
    bare = workdir / "bare"
    shutil.copytree(run.BENCH, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "scale",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, timeout=60)
    expect(proc.returncode != 0 and b"correct" not in proc.stdout,
           "run without smithcube sources exits nonzero with no result")
    print("PASS exits nonzero with no result when the sources are missing")


def main() -> int:
    run.OUT.mkdir(exist_ok=True)
    workdir = run.OUT / "selftest"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    try:
        metric_names_match()
        checker_rejects_bad_outputs()
        generator_is_seeded(workdir)
        failures_count(workdir)
        trace_keeps_outputs(workdir)
        refuses_without_sources(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
