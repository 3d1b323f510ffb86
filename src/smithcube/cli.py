"""Command-line front end with machine-readable output.

Exit codes: 0 success, 1 usage error, 2 verification or cross-check
mismatch.  JSON output is canonical (sorted keys, compact separators, no
floats) so that parse + re-serialize is byte-identical.
"""
from __future__ import annotations

import argparse
import json
import math
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


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _write(text: str, out: str | None) -> None:
    try:
        if out is None:
            # bytes, each write's count checked: over an unbuffered stream
            # the text layer drops what a short write leaves, unseen
            binary, rest = sys.stdout.buffer, memoryview(text.encode())
            while rest:
                rest = rest[binary.write(rest):]
            binary.flush()
        else:
            with open(out, "w") as fh:
                fh.write(text)
    except OSError as exc:
        if out is None:  # the interpreter flushes stdout again at exit
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            out = "standard output"
        raise ValueError(f"cannot write {out}: {exc.strerror or exc}") from exc


def _summary(summary) -> dict:
    return {"entries": [{"multiplicity": summary.nonzero[k], "value": k}
                        for k in sorted(summary.nonzero)],
            "free_rank": summary.free_rank}


def _finish(args, command: str, params: dict, ok: bool, t0: float,
            fields: dict) -> int:
    """Write the report of a smith-group or verify run in args.format and
    return its exit code, 0 if ok and 2 on a mismatch."""
    status = "ok" if ok else "mismatch"
    report = {"command": command, "params": params, "status": status,
              "elapsed_ms": int((time.monotonic() - t0) * 1000), **fields}
    if args.format == "json":
        lines = [_canonical_json(report)]
    elif args.format == "csv" and "entries" not in report:
        lines = ["command,status", f"{command},{status}"]
    elif args.format == "csv":
        lines = ["value,multiplicity", f"0,{report['free_rank']}",
                 *(f"{e['value']},{e['multiplicity']}" for e in report["entries"])]
    else:
        lines = [f"command {command}", f"status {status}"]
        if "entries" in report:
            lines += [f"free_rank {report['free_rank']}",
                      *(f"{e['value']} {e['multiplicity']}"
                        for e in report["entries"])]
        if "payload" in report:
            lines.append(_canonical_json(report["payload"]))
    _write("\n".join(lines) + "\n", args.out)
    return 0 if ok else 2


# route -> the name of its function in `reduction`, looked up when called
_ROUTES = {"closed": "smith_group", "reduction": "smith_group_reduction",
           "oracle": "smith_group_oracle"}


def _cmd_smith_group(args) -> int:
    n, cap, method = args.n, args.cap, args.method
    # every printed integer is below 2^n, so it has at most
    # floor(n log10 2) + 1 digits, more than the interpreter converts to
    # text exactly when n >= limit * log2 10 (no limit: 0, or before 3.10.7)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and n >= limit * math.log2(10):
        raise ValueError(f"n = {n} may print integers of more than {limit} "
                         "digits, the interpreter's limit for integer "
                         "string conversion")
    if method == "oracle" and n > cap:
        raise ValueError(f"oracle method limited to n <= {cap}")
    if method == "all" and n % 2 and n > cap:
        raise ValueError(f"odd n = {n} is above the oracle cap {cap}, "
                         "so no route checks the closed form")
    routes = [method] if method != "all" else (
        ["closed"] + ["reduction"] * (n % 2 == 0) + ["oracle"] * (n <= cap))
    t0 = time.monotonic()
    summaries = {r: getattr(reduction, _ROUTES[r])(n) for r in routes}
    primary = summaries[routes[0]]
    ok = all(reduction.same_group(primary, summaries[r]) for r in routes[1:])
    fields = _summary(primary)
    if not ok:
        fields["payload"] = {r: _summary(s) for r, s in summaries.items()}
    return _finish(args, "smith-group", {"method": method, "n": n}, ok, t0, fields)


def _cmd_verify(args) -> int:
    n = args.n
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    t0 = time.monotonic()
    fields: dict = {}
    if args.target == "bier":
        failures = canonical.verify_bier(n)
        ok = not failures
        fields["payload"] = {"checked_up_to": n // 2, "failures": failures}
    elif args.target == "conjecture":
        ok = reduction.verify_conjecture(n, oracle_cap=args.cap)
    elif args.target == "half":
        ok = cube.verify_half_lemma(n)
    elif args.target == "conjugacy":
        ok = cube.verify_conjugacy(n)
    else:  # laplacian
        comparisons = reduction.laplacian_partial_check(n)
        # nI - A = -A mod n, so any kernel that respects negation gives the
        # two sides equal counts; A's are also held to twice the 2-part of
        # the half block M by the reduction, which shares no step with it
        two = reduction.two_local_divisors_of_M(n)
        ok = all(a == b == 2 * two.get(i, 0) for i, a, b in comparisons)
        fields["payload"] = {"comparisons": [list(c) for c in comparisons],
                             "s": len(comparisons)}
    return _finish(args, "verify", {"n": n, "target": args.target}, ok, t0, fields)


# kind -> (arity, builder); the builders look their function up when called
_MATRICES = {
    "adjacency": (1, lambda n: cube.adjacency(n)),
    "monomial": (1, lambda n: cube.monomial_adjacency(n)),
    "laplacian": (1, lambda n: cube.laplacian(n)),
    "M": (1, lambda n: cube.build_M(n)),
    "N": (1, lambda n: cube.build_N(n)),
    "B": (1, lambda n: reduction.build_B(n)),
    "W": (3, lambda n, t, k: subsets.incidence_matrix(n, t, k)),
    "E": (2, lambda n, k: canonical.build_E(n, k)),
    "Estack": (2, lambda n, k: reduction.stacked_basis(n, k)),
    "D": (3, lambda n, t, k: canonical.wilson_form(n, t, k)),
}


def _cmd_matrix(args) -> int:
    arity, build = _MATRICES[args.kind]
    if len(args.params) != arity:
        raise ValueError(f"matrix kind {args.kind} takes {arity} parameter(s)")
    _write(bigmat.to_text(build(*args.params)), args.out)
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
    sg.set_defaults(func=_cmd_smith_group)

    vf = sub.add_parser("verify", help="run one of the structural verifications")
    vf.add_argument("target", choices=["bier", "conjecture", "half",
                                       "conjugacy", "laplacian"])
    vf.add_argument("n", type=int)
    vf.set_defaults(func=_cmd_verify)

    for report in (sg, vf):
        report.add_argument("--format", choices=["json", "csv", "text"], default="json")
        report.add_argument("--cap", type=int, default=DEFAULT_ORACLE_CAP,
                            help="size limit for the elimination oracle")
        report.add_argument("--out", default=None)

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
    except ValueError as exc:  # every usage error, bad --out included
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
