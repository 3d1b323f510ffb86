"""Command-line front end with machine-readable output.

Exit codes: 0 success, 1 usage error, 2 verification or cross-check
mismatch.  JSON output is canonical (sorted keys, compact separators, no
floats) so that parse + re-serialize is byte-identical.
"""
from __future__ import annotations

import argparse
import json
import os
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
    """Bad input from the command line or environment: exit 1 with a message."""


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


def _oracle_cap(args) -> int:
    if args.cap is not None:
        return args.cap
    env = os.environ.get("SMITHCUBE_CAP")
    if not env:
        return DEFAULT_ORACLE_CAP
    try:
        return int(env)
    except ValueError:
        raise _UsageError(f"SMITHCUBE_CAP must be an integer, got {env!r}") from None


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
    cap = _oracle_cap(args)
    t0 = time.monotonic()
    try:
        if args.method == "closed":
            summaries = {"closed": reduction.smith_group(n)}
        elif args.method == "reduction":
            summaries = {"reduction": reduction.smith_group_reduction(n)}
        elif args.method == "oracle":
            if n > cap:
                print(f"oracle method limited to n <= {cap}", file=sys.stderr)
                return 1
            summaries = {"oracle": reduction.smith_group_oracle(n)}
        else:  # all
            if n % 2 and n > cap:
                print(f"error: odd n = {n} is above the oracle cap {cap}, so no "
                      "route checks the closed form", file=sys.stderr)
                return 1
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
        print(f"error: n must be >= 1, got {n}", file=sys.stderr)
        return 1
    t0 = time.monotonic()
    payload: dict = {}
    try:
        if args.target == "bier":
            half = n // 2
            failures = [[t, k] for k in range(half + 1) for t in range(k + 1)
                        if not canonical.verify_bier(n, t, k)]
            ok = not failures
            payload = {"checked_up_to": half, "failures": failures}
        elif args.target == "conjecture":
            ok = reduction.verify_conjecture(n, oracle_cap=_oracle_cap(args))
        elif args.target == "half":
            ok = cube.verify_half_lemma(n)
        elif args.target == "conjugacy":
            ok = cube.verify_conjugacy(n)
        elif args.target == "laplacian":
            rep = reduction.laplacian_partial_check(n)
            ok = rep.ok
            payload = {"comparisons": [list(c) for c in rep.comparisons],
                       "s": rep.s}
        else:
            raise ValueError(f"unknown target {args.target}")
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


_MATRIX_ARITY = {"adjacency": 1, "monomial": 1, "laplacian": 1, "M": 1,
                 "N": 1, "B": 1, "W": 3, "E": 2, "Estack": 2, "D": 3}


def _build_matrix(kind: str, params: list):
    if kind == "adjacency":
        return cube.adjacency(params[0]).matrix
    if kind == "monomial":
        return cube.monomial_adjacency(params[0]).matrix
    if kind == "laplacian":
        return cube.laplacian(params[0])
    if kind == "M":
        return cube.blocks(params[0]).M
    if kind == "N":
        return cube.blocks(params[0]).N
    if kind == "B":
        return reduction.build_B(params[0])
    if kind == "W":
        n, t, k = params
        return subsets.incidence_matrix(n, t, k)
    if kind == "E":
        n, k = params
        return canonical.build_E(n, k).matrix
    if kind == "Estack":
        n, k = params
        return reduction.stacked_basis(n, k)
    if kind == "D":
        n, t, k = params
        return canonical.wilson_form(n, t, k).matrix
    raise ValueError(f"unknown matrix kind {kind}")


def _cmd_matrix(args) -> int:
    kind = args.kind
    arity = _MATRIX_ARITY.get(kind)
    if arity is None:
        print(f"error: unknown matrix kind {kind!r}", file=sys.stderr)
        return 1
    if len(args.params) != arity:
        print(f"error: matrix kind {kind} takes {arity} parameter(s)",
              file=sys.stderr)
        return 1
    try:
        mat = _build_matrix(kind, args.params)
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
    sg.add_argument("--cap", type=int, default=None,
                    help="size limit for the elimination oracle")
    sg.add_argument("--out", default=None)
    sg.set_defaults(func=_cmd_smith_group)

    vf = sub.add_parser("verify", help="run one of the structural verifications")
    vf.add_argument("target", choices=["bier", "conjecture", "half",
                                       "conjugacy", "laplacian"])
    vf.add_argument("n", type=int)
    vf.add_argument("--format", choices=["json", "csv", "text"], default="json")
    vf.add_argument("--cap", type=int, default=None)
    vf.add_argument("--out", default=None)
    vf.set_defaults(func=_cmd_verify)

    mx = sub.add_parser("matrix", help="emit a constructed matrix as sparse triples")
    mx.add_argument("kind", choices=sorted(_MATRIX_ARITY))
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
