"""Fresh-process benchmark of smithcube's three Smith-group routes.

usage: python3 perfbench/run.py --workload {oracle,construct,scale}
                                --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Every job runs in its own interpreter
(perfbench/job.py), one job at a time: a closed loop with a single client,
in which each job starts with cold caches exactly as a `smithcube` command
does.  A pass runs every job of the workload once (a job shorter than
REPEAT_BELOW_S three times, counting its median); passes repeat until
--seconds have elapsed, at least twice, and each timing is the median over
passes.  Times are scaled to a reference host speed (see probe.py).  The
benchmark checks every output against answers it computes itself
(perfbench/reference.py) and prints one JSON result as its last line.

With --trace 0 it reports the end-to-end metrics.  With --trace 1 it runs
every job once untraced and then once traced, reports the per-layer
metrics of the traced runs in raw seconds and the tracing overhead (summed
traced job time minus summed untraced job time), and fails any job whose
traced output differs from its untraced output.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import inputs
import probe
import reference as ref

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

JOB_LIMIT_S = 60.0  # a job running longer is killed and counts as failed
RUN_LIMIT_S = 170.0  # no job starts after this; the run must end within 180 s
# A job shorter than this runs three times in each untraced pass and counts
# with its median time: its host speed estimate rests on few probe samples.
REPEAT_BELOW_S = 0.8
REPEATS = 3


@dataclass
class Job:
    label: str
    kind: str  # "cli", "snf" or "rle", see job.py
    args: tuple
    category: str  # "answer", "verify" or "matrix"
    check: Callable[[bytes], "str | None"]


@dataclass
class JobResult:
    job: Job
    wall: float
    setup: float | None
    rss_mb: float
    output: bytes
    meta: dict | None
    reason: str | None  # why the job failed, None if it passed
    speed: float = 1.0  # host speed inside an untraced job process, see probe.py
    probe_s: float = 0.0  # time the job process spent in probes

    @property
    def seconds(self) -> float:
        """Wall time without probes, at the probe's reference speed."""
        return (self.wall - self.probe_s) * self.speed


def smith_job(n: int, method: str | None = None) -> Job:
    argv = ("smith-group", str(n)) + (("--method", method) if method else ())
    return Job(" ".join(argv), "cli", argv, "answer",
               lambda out: ref.check_smith_group(out, n, method or "closed"))


def verify_job(target: str, n: int) -> Job:
    argv = ("verify", target, str(n))
    return Job(" ".join(argv), "cli", argv, "verify",
               lambda out: ref.check_verify(out, target, n))


def matrix_job(kind: str, *params: int) -> Job:
    argv = ("matrix", kind, *map(str, params))
    return Job(" ".join(argv), "cli", argv, "matrix",
               lambda out: ref.check_matrix(out, kind, *params))


# Each workload stresses different layers (see perfbench/NOTES.md).  Every
# workload also has at least one job of each category so that answer_s,
# verify_s and matrix_s are never zero; those extra jobs take about 0.5-1.3 s
# and keep the predicted zero counts of the traced run.  Each function
# returns the jobs and a record of the generated inputs.
def _oracle_jobs(seed: int, workdir: Path) -> tuple:
    texts = inputs.relabellings(seed)
    paths = []
    for i, text in enumerate(texts):
        path = workdir / f"relabel-{i}.txt"
        path.write_text(text)
        paths.append(str(path))
    count = len(texts)
    jobs = [
        smith_job(9, "all"),
        smith_job(8, "oracle"),
        verify_job("conjecture", 8),
        verify_job("laplacian", 8),
        verify_job("half", 10),
        Job(f"snf of {count} relabellings of A({inputs.RELABEL_N})", "snf",
            tuple(paths), "answer",
            lambda out: ref.check_snf_lines(out, inputs.RELABEL_N, count)),
        matrix_job("laplacian", 10),
    ]
    digest = hashlib.sha256("".join(texts).encode()).hexdigest()
    return jobs, {"relabellings_sha256": digest}


def _construct_jobs(seed: int, workdir: Path) -> tuple:
    jobs = [
        matrix_job("B", 8),
        matrix_job("adjacency", 12),
        matrix_job("M", 12),
        verify_job("conjugacy", 10),
        verify_job("bier", 12),
        smith_job(5000),
    ]
    return jobs, {}


def _scale_jobs(seed: int, workdir: Path) -> tuple:
    sizes = inputs.scale_sizes(seed)
    jobs = [smith_job(n, "all") for n in sizes]
    jobs += [
        smith_job(4000),
        Job("smith_group(4000).invariant_factor_rle()", "rle", ("4000",), "answer",
            lambda out: ref.check_rle(out, 4000)),
        verify_job("bier", 11),
        matrix_job("E", 12, 6),
    ]
    return jobs, {"scale_n": sizes}


WORKLOADS = {"oracle": _oracle_jobs, "construct": _construct_jobs,
             "scale": _scale_jobs}


def run_job(job: Job, job_id: str, trace: int, workdir: Path,
            deadline: float) -> JobResult:
    limit = min(JOB_LIMIT_S, deadline - time.monotonic())
    if limit <= 0:
        return JobResult(job, 0.0, None, 0.0, b"", None,
                         "not started: run time limit reached")
    out_path = workdir / f"{job_id}.out"
    err_path = workdir / f"{job_id}.err"
    meta_path = workdir / f"{job_id}.meta"
    cmd = [sys.executable, str(BENCH / "job.py"), str(meta_path), str(trace),
           job.kind, *job.args]
    # SMITHCUBE_CAP would change which routes the CLI runs
    env = {k: v for k, v in os.environ.items() if k != "SMITHCUBE_CAP"}
    killed = threading.Event()
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT, env=env)

        def kill():
            killed.set()
            proc.kill()
        timer = threading.Timer(limit, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.monotonic() - spawned
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            timer.join()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    output = out_path.read_bytes()
    try:
        meta = json.loads(meta_path.read_text())
    except (OSError, ValueError):
        meta = None
    reason = None
    if killed.is_set():
        reason = f"killed after the {limit:.0f} s job limit"
    elif proc.returncode != 0:
        last = err_path.read_bytes().decode(errors="replace").strip().splitlines()
        reason = f"exit code {proc.returncode}: {last[-1] if last else ''}"
    elif meta is None:
        reason = "no job metadata written"
    setup = meta["imported"] - spawned if meta else None
    result = JobResult(job, wall, setup, usage.ru_maxrss / 1024, output, meta, reason)
    samples = (meta or {}).get("probes")
    if samples:
        result.probe_s = sum(samples)
        result.speed = probe.speed(samples)
    return result


def run_sampled(job: Job, prefix: str, workdir: Path, deadline: float) -> list:
    """All runs of one job in an untraced pass (see REPEAT_BELOW_S)."""
    runs = [run_job(job, f"{prefix}-0", 0, workdir, deadline)]
    if runs[0].reason is None and runs[0].wall < REPEAT_BELOW_S:
        runs += [run_job(job, f"{prefix}-{k}", 0, workdir, deadline)
                 for k in range(1, REPEATS)]
    return runs


def median_run(runs: list) -> JobResult:
    return sorted(runs, key=lambda r: r.seconds)[len(runs) // 2]


def check_results(results) -> None:
    """Fill in `reason` for jobs whose output is wrong.  An output already
    seen, by job and digest, is not checked again."""
    verdicts: dict = {}
    for r in results:
        if r.reason is not None:
            continue
        output = ref.strip_elapsed(r.output)
        key = (r.job.label, hashlib.sha256(output).digest())
        if key not in verdicts:
            try:
                verdicts[key] = r.job.check(output)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                verdicts[key] = f"unreadable output: {exc!r}"
        r.reason = verdicts[key]


def pass_metrics(samples) -> dict:
    """Metrics of one pass; `samples` holds the list of runs of each job."""
    results = [median_run(runs) for runs in samples]

    def category_s(category):
        return sum(r.seconds for r in results if r.job.category == category)
    return {"wall_s": sum(r.seconds for r in results),
            "answer_s": category_s("answer"), "verify_s": category_s("verify"),
            "matrix_s": category_s("matrix"),
            "peak_rss_mb": max(r.rss_mb for runs in samples for r in runs)}


END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "answer_s": "s",
                    "verify_s": "s", "matrix_s": "s", "peak_rss_mb": "MB"}


def end_to_end_metrics(passes) -> dict:
    per_pass = [pass_metrics(samples) for samples in passes]
    setups = [r.setup * r.speed for samples in passes for runs in samples
              for r in runs if r.setup is not None]
    values = {"setup_s": statistics.median(setups) if setups else 0.0}
    for name in ("wall_s", "answer_s", "verify_s", "matrix_s", "peak_rss_mb"):
        values[name] = statistics.median(p[name] for p in per_pass)
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()}


# per-layer metrics: span names reported with call counts, and with self time
LAYER_CALLS = ("bigmat.snf", "bigmat.matmul", "subsets.incidence_matrix",
               "canonical.build_E", "canonical.verify_bier", "reduction.build_B",
               "reduction.reduce_condensed")
LAYER_SELF = (
    "bigmat.snf", "bigmat.matmul", "subsets.incidence_matrix",
    "canonical.build_E", "canonical.wilson_form", "canonical.verify_bier",
    "cube.adjacency", "cube.monomial_adjacency", "cube.zeta_matrix",
    "cube.blocks", "cube.laplacian", "cube.verify_conjugacy",
    "cube.verify_half_lemma", "reduction.build_B", "reduction.stacked_basis",
    "reduction.build_condensed", "reduction.two_local_divisors_of_M",
    "reduction.smith_group_reduction", "reduction.invariant_factor_rle",
    "reduction.reduce_condensed", "cli.main")
# counters kept by tracer.py, reported under their own names
LAYER_COUNTS = ("bigmat.snf.cells", "bigmat.matmul.mults", "bigmat.dense_cells",
                "subsets.incidence_matrix.cells", "reduction.reduce_condensed.entries")


def span_totals(spans) -> tuple:
    """(calls, self seconds, inclusive seconds) per span name."""
    calls, self_s, incl = Counter(), Counter(), Counter()
    covered = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    for (name, start, end, _), child in zip(spans, covered):
        calls[name] += 1
        self_s[name] += end - start - child
        incl[name] += end - start
    return calls, self_s, incl


def layer_metrics(traced, base) -> dict:
    calls, self_s, counters = Counter(), Counter(), Counter()
    span_count = 0
    for r in traced:
        meta = r.meta or {}
        c, s, _ = span_totals(meta.get("spans", []))
        calls.update(c)
        self_s.update(s)
        counters.update(meta.get("counters", {}))
        span_count += len(meta.get("spans", []))
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}
    for name in LAYER_CALLS:
        put(f"{name}.calls", calls[name], "count")
    for name in LAYER_SELF:
        put(f"{name}.self_s", self_s[name], "s")
    for name in LAYER_COUNTS:
        put(name, counters[name], "count")
    put("bigmat.text.self_s", self_s["bigmat.to_text"] + self_s["bigmat.from_text"], "s")
    put("bigmat.text.bytes",
        counters["bigmat.to_text.bytes"] + counters["bigmat.from_text.bytes"], "B")
    hits = counters["canonical.build_E.cache_hits"]
    lookups = hits + counters["canonical.build_E.cache_misses"]
    put("canonical.build_E.cache_hit_ratio", hits / lookups if lookups else 0.0, "ratio")
    put("canonical.build_E.cache_lookups", lookups, "count")
    put("cli.output_bytes", sum(len(ref.strip_elapsed(r.output))
                                for r in traced if r.job.kind == "cli"), "B")
    put("proc.import_s", sum((r.meta or {}).get("import_s", 0.0) for r in traced), "s")
    # raw seconds: traced jobs are not probed, so that no probe runs inside a span
    base_s = sum(r.wall - r.probe_s for r in base)
    put("trace.overhead_s", sum(r.wall for r in traced) - base_s, "s")
    put("trace.base_wall_s", base_s, "s")
    put("trace.spans", span_count, "count")
    return out


def job_breakdown(results) -> list:
    """Per traced job: raw wall time and the inclusive time of its heaviest spans."""
    rows = []
    for r in results:
        _, _, incl = span_totals((r.meta or {}).get("spans", []))
        top = {name: round(t, 4) for name, t in incl.most_common(6)}
        rows.append({"job": r.job.label, "wall_s": round(r.wall, 4), "inclusive_s": top})
    return rows


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref_name = head[5:]
        ref_file = git / ref_name
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref_name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(args) -> dict:
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(), "cpu_model": _cpu_model(),
            "nproc": len(os.sched_getaffinity(0)), "commit": _commit(),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "smithcube" / "cli.py").is_file():
        print(f"perfbench: no smithcube sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = environment(args)
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    workdir.mkdir()
    try:
        jobs, env["inputs"] = WORKLOADS[args.workload](args.seed, workdir)
        print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
        print("env " + json.dumps(env, sort_keys=True))

        passes = []
        if args.trace:
            # each job untraced, then traced, so host drift hits both alike
            paired = [[run_job(job, f"{i}-{trace}", trace, workdir, deadline)]
                      for i, job in enumerate(jobs) for trace in (0, 1)]
            passes = [paired[0::2], paired[1::2]]
        else:
            while len(passes) < 2 or time.monotonic() - started < args.seconds:
                passes.append([run_sampled(job, f"{len(passes)}-{i}", workdir, deadline)
                               for i, job in enumerate(jobs)])
                if time.monotonic() >= deadline:
                    break
        all_results = [r for samples in passes for runs in samples for r in runs]
        check_results(all_results)
        if args.trace:
            base, traced = ([runs[0] for runs in samples] for samples in passes)
            for u, t in zip(base, traced):
                if (t.reason is None
                        and ref.strip_elapsed(u.output) != ref.strip_elapsed(t.output)):
                    t.reason = "traced output differs from the untraced output"
            metrics = layer_metrics(traced, base)
        else:
            metrics = end_to_end_metrics(passes)

        failed = [r for r in all_results if r.reason is not None]
        for i, samples in enumerate(passes):
            results = [r for runs in samples for r in runs]
            print(f"pass {i}: {len(results)} job runs, {sum(r.wall for r in results):.3f} s"
                  f" raw, {sum(r.seconds for r in results):.3f} s at reference speed")
        for r in failed:
            print(f"FAILED {r.job.label}: {r.reason}")
        for name, m in metrics.items():
            print(f"metric {name} {m['value']} {m['unit']}")
        print(f"fail_ratio {len(failed)}/{len(all_results)} = "
              f"{len(failed) / len(all_results)}")

        record = {"env": env, "metrics": metrics,
                  "passes": [[{"job": r.job.label, "raw_wall_s": r.wall,
                               "speed": r.speed, "raw_setup_s": r.setup,
                               "rss_mb": r.rss_mb, "failure": r.reason}
                              for runs in samples for r in runs]
                             for samples in passes]}
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        if args.trace:
            record["jobs"] = job_breakdown(traced)
            for row in record["jobs"]:
                print("job " + json.dumps(row))
            spans = [{"job": r.job.label, **(r.meta or {})} for r in traced]
            (OUT / f"{stem}-spans.json").write_text(json.dumps(spans))
        (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
        print(json.dumps({"correct": not failed, "attempted": len(all_results),
                          "failed": len(failed), "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
