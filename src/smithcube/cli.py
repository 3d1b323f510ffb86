"""Command-line front end with machine-readable output.

Exit codes: 0 success, 1 usage error, 2 verification or cross-check
mismatch.  JSON output is canonical (sorted keys, compact separators, no
floats) so that parse + re-serialize is byte-identical.
"""
from __future__ import annotations

import argparse
import json
import sys
import time

from . import bigmat, canonical, cube, reduction, subsets

DEFAULT_ORACLE_CAP = 10


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


class _UsageError(Exception):
    """Bad input from the command line: exit 1 with a message."""


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _write(text: str, out: str | None) -> None:
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise _UsageError(f"cannot write {out}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


def _summary_entries(summary) -> list:
    return [{"multiplicity": summary.nonzero[k], "value": k}
            for k in sorted(summary.nonzero)]


def _emit_report(report: dict, fmt: str, out: str | None) -> None:
    if fmt == "json":
        _write(_canonical_json(report) + "\n", out)
    elif fmt == "csv" and "entries" not in report:
        _write(f"command,status\n{report['command']},{report['status']}\n", out)
    elif fmt == "csv":
        lines = ["value,multiplicity", f"0,{report.get('free_rank', 0)}"]
        for e in report["entries"]:
            lines.append(f"{e['value']},{e['multiplicity']}")
        _write("\n".join(lines) + "\n", out)
    else:
        lines = [f"command {report['command']}", f"status {report['status']}"]
        if "free_rank" in report:
            lines.append(f"free_rank {report['free_rank']}")
        for e in report.get("entries", []):
            lines.append(f"{e['value']} {e['multiplicity']}")
        if report.get("payload"):
            lines.append(_canonical_json(report["payload"]))
        _write("\n".join(lines) + "\n", out)


def _cmd_smith_group(args) -> int:
    n = args.n
    cap = args.cap
    t0 = time.monotonic()
    try:
        if args.method == "closed":
            summaries = {"closed": reduction.smith_group(n)}
        elif args.method == "reduction":
            summaries = {"reduction": reduction.smith_group_reduction(n)}
        elif args.method == "oracle":
            if n > cap:
                raise _UsageError(f"oracle method limited to n <= {cap}")
            summaries = {"oracle": reduction.smith_group_oracle(n)}
        else:  # all
            if n % 2 and n > cap:
                raise _UsageError(f"odd n = {n} is above the oracle cap {cap}, "
                                  "so no route checks the closed form")
            summaries = {"closed": reduction.smith_group(n)}
            if n % 2 == 0:
                summaries["reduction"] = reduction.smith_group_reduction(n)
            if n <= cap:
                summaries["oracle"] = reduction.smith_group_oracle(n)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    elapsed_ms = int((time.monotonic() - t0) * 1000)
    names = sorted(summaries)
    base = summaries[names[0]]
    mismatch = [name for name in names[1:]
                if not reduction.same_group(base, summaries[name])]
    primary = summaries.get("closed") or summaries[names[0]]
    report = {
        "command": "smith-group",
        "params": {"method": args.method, "n": n},
        "status": "mismatch" if mismatch else "ok",
        "free_rank": primary.free_rank,
        "entries": _summary_entries(primary),
        "elapsed_ms": elapsed_ms,
    }
    if mismatch:
        report["payload"] = {
            name: {"entries": _summary_entries(s), "free_rank": s.free_rank}
            for name, s in summaries.items()}
    _emit_report(report, args.format, args.out)
    return 2 if mismatch else 0


def _cmd_verify(args) -> int:
    n = args.n
    if n < 1:
        raise _UsageError(f"n must be >= 1, got {n}")
    t0 = time.monotonic()
    payload: dict = {}
    try:
        if args.target == "bier":
            half = n // 2
            canonical._check_half(n, half)  # refuse before any matrix is built
            failures = [[t, k] for k in range(half + 1) for t in range(k + 1)
                        if not canonical.verify_bier(n, t, k)]
            ok = not failures
            payload = {"checked_up_to": half, "failures": failures}
        elif args.target == "conjecture":
            ok = reduction.verify_conjecture(n, oracle_cap=args.cap)
        elif args.target == "half":
            ok = cube.verify_half_lemma(n)
        elif args.target == "conjugacy":
            ok = cube.verify_conjugacy(n)
        else:  # laplacian
            rep = reduction.laplacian_partial_check(n)
            ok = rep.ok
            payload = {"comparisons": [list(c) for c in rep.comparisons],
                       "s": rep.s}
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    elapsed_ms = int((time.monotonic() - t0) * 1000)
    report = {
        "command": "verify",
        "params": {"n": n, "target": args.target},
        "status": "ok" if ok else "mismatch",
        "elapsed_ms": elapsed_ms,
    }
    if payload:
        report["payload"] = payload
    _emit_report(report, args.format, args.out)
    return 0 if ok else 2


# kind -> (arity, builder); the builders look their function up when called
_MATRICES = {
    "adjacency": (1, lambda n: cube.adjacency(n)),
    "monomial": (1, lambda n: cube.monomial_adjacency(n)),
    "laplacian": (1, lambda n: cube.laplacian(n)),
    "M": (1, lambda n: cube.blocks(n).M),
    "N": (1, lambda n: cube.blocks(n).N),
    "B": (1, lambda n: reduction.build_B(n)),
    "W": (3, lambda n, t, k: subsets.incidence_matrix(n, t, k)),
    "E": (2, lambda n, k: canonical.build_E(n, k)),
    "Estack": (2, lambda n, k: reduction.stacked_basis(n, k)),
    "D": (3, lambda n, t, k: canonical.wilson_form(n, t, k)),
}


def _cmd_matrix(args) -> int:
    arity, build = _MATRICES[args.kind]
    if len(args.params) != arity:
        raise _UsageError(f"matrix kind {args.kind} takes {arity} parameter(s)")
    try:
        mat = build(*args.params)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _write(bigmat.to_text(mat), args.out)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="smithcube",
                     description="Smith group of the n-cube graph: "
                                 "construction, reduction, verification.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    sg = sub.add_parser("smith-group", help="compute the Smith group of the n-cube")
    sg.add_argument("n", type=int)
    sg.add_argument("--method", choices=["closed", "oracle", "reduction", "all"],
                    default="closed")
    sg.add_argument("--format", choices=["json", "csv", "text"], default="json")
    sg.add_argument("--cap", type=int, default=DEFAULT_ORACLE_CAP,
                    help="size limit for the elimination oracle")
    sg.add_argument("--out", default=None)
    sg.set_defaults(func=_cmd_smith_group)

    vf = sub.add_parser("verify", help="run one of the structural verifications")
    vf.add_argument("target", choices=["bier", "conjecture", "half",
                                       "conjugacy", "laplacian"])
    vf.add_argument("n", type=int)
    vf.add_argument("--format", choices=["json", "csv", "text"], default="json")
    vf.add_argument("--cap", type=int, default=DEFAULT_ORACLE_CAP)
    vf.add_argument("--out", default=None)
    vf.set_defaults(func=_cmd_verify)

    mx = sub.add_parser("matrix", help="emit a constructed matrix as sparse triples")
    mx.add_argument("kind", choices=sorted(_MATRICES))
    mx.add_argument("params", type=int, nargs="*")
    mx.add_argument("--out", default=None)
    mx.set_defaults(func=_cmd_matrix)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
