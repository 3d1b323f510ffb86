import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from itertools import product
from pathlib import Path

import pytest

from smithcube import cli, cube, reduction
from smithcube.bigmat import from_text

from grids import from_grid


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# SHA-256 of `smithcube matrix ARGS` for every matrix kind, recorded from
# earlier constructions, so a rewritten builder must keep every byte
MATRIX_SHA256 = {
    "adjacency 8":
        "79e75e68facc15ad58fec6f30c8bfaf99324777f16d04fe21153eac05b626a28",
    "monomial 8":
        "cc795436811f3e63c988e91e85ee1991dd3e3df3fdce541e882fbf391500fd1f",
    "laplacian 8":
        "86c42fadf66ae1de51adc6a40f1010c9eaa25dfd882c825a0d2f84c93351cc08",
    "M 8":
        "7d8e7e289a6326b0786a54e699af90d4eaae20e5286360df966c3d9a3386b25f",
    "N 8":
        "b23da6e4c6c9ad678f3652393b137a9eb911bf88b9e872a925e1c9f9c88b88ae",
    "B 8":
        "9d91eac1a829f1db87a0ab8ab8dfdc18f17bf20b7953d4f7b0d5703e4fcb815f",
    "W 8 2 4":
        "51f3d69ea916af2559ab5ddd0f15307ac681879cfdc60514de7f2636a5d371b3",
    "W 8 4 2":
        "afabe0fb976ef5a598f41d7586c78f77d3c9803029adb200e418ccc3d061b1ee",
    "E 8 4":
        "ff0d4b4d184db8fbad8b213a684adaf1d6e8c62a93483a5bca30145d74086dbf",
    "Estack 8 4":
        "f9ac5ee80f5cf42aed7bd951fb56fb1d3911489e8264c7e596758a0b1feb3055",
    "D 8 2 4":
        "56f381591c4e9b917a6342e71672b9433fd19a2915e06a56d0c7c1db3713eb3a",
    # recorded from the tuple-based subset construction
    "adjacency 10":
        "95de30e1a27849bbc4d3d5a29bda06577c471f17d059e274af45f09cf65f3d98",
    "monomial 10":
        "1d236f11f2be84d281e551e33d2ff8838860f53b12746225a39196d2ecf89595",
    "M 10":
        "7b113a4abe80426f7dfb696c35cea9aba30efa15638f564138d2e5adba3441a1",
    "N 10":
        "d11226bfa3ec896dff27dcb5f029301abb6df6e352df3cf2479d322239a5981a",
    "B 10":
        "655f4519706f19726a96ef5b9489fe527cb18e3520cded7189ca9906f81f8385",
    "E 10 5":
        "5fbdec01762832b9a825755b318a2f629d3f1a0d78de30aa790458b3c6df37d5",
    "W 10 4 5":
        "7fa99683e391df840471c25f298d25faeb9bbc047a76607c2b15aa85f0216497",
    "W 10 5 4":
        "19669a4c14e2bfbf24050f3ec95f35cb3e4a6c21a58836b15a524f1c7da2fd74",
    # recorded before the stacked basis checked its own side
    "Estack 6 3":
        "6495debd532ae99c803984bc2aaed1ac0da382e9a8e68147ac187a7b9d08076f",
}


def test_matrix_output_digests(capsys):
    for args, digest in MATRIX_SHA256.items():
        code, out, err = run(capsys, "matrix", *args.split())
        assert (code, err) == (0, ""), args
        assert hashlib.sha256(out.encode()).hexdigest() == digest, args


# SHA-256 over one JSON line [argv, exit code, stdout, stderr] for each
# smith-group and verify argv of _sweep_argv(), with "elapsed_ms":N taken
# out of stdout; recorded before the two commands shared one report path
REPORT_SHA256 = "f72bd01c27dbb5769528a69c382c8dc4937d7083b130478595f5c82179e40d96"


def test_report_output_digest(sweep):
    digest = hashlib.sha256()
    for argv, code, out, err in sweep:
        if argv[0] != "matrix":
            out = re.sub(r'"elapsed_ms":\d+', "", out)
            digest.update(json.dumps([argv, code, out, err]).encode() + b"\n")
    assert digest.hexdigest() == REPORT_SHA256


def test_smith_group_all_n4(capsys):
    code, out, _ = run(capsys, "smith-group", "4", "--method", "all")
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "ok"
    assert report["free_rank"] == 6
    assert report["entries"] == [{"multiplicity": 8, "value": 1},
                                 {"multiplicity": 2, "value": 2}]


def test_smith_group_odd_n(capsys):
    code, out, _ = run(capsys, "smith-group", "3", "--method", "all")
    assert code == 0
    report = json.loads(out)
    assert report["free_rank"] == 0
    assert sum(e["multiplicity"] for e in report["entries"]) == 8


def test_half_blocks_refuse_odd_n(capsys):
    # above the size cap too, the odd n is what is named
    for n in ("3", "15"):
        for argv in (("matrix", "M", n), ("matrix", "N", n), ("verify", "half", n)):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (1, ""), argv
            assert err == f"error: even n >= 2 required, got {n}\n", argv


def test_smith_group_odd_n_without_second_route(capsys):
    code, out, err = run(capsys, "smith-group", "9", "--method", "reduction")
    assert (code, out) == (1, "")
    assert err == "error: even n >= 2 required, got 9\n"
    code, out, err = run(capsys, "smith-group", "131", "--method", "all")
    assert (code, out) == (1, "")
    assert err.startswith("error: odd n = 131 is above the oracle cap 10")
    assert len(err.splitlines()) == 1
    assert run(capsys, "smith-group", "7", "--method", "all", "--cap", "6")[0] == 1
    assert run(capsys, "smith-group", "7", "--method", "all", "--cap", "7")[0] == 0


def test_json_is_canonical(capsys):
    code, out, _ = run(capsys, "smith-group", "6")
    assert code == 0
    text = out.rstrip("\n")
    report = json.loads(text)
    assert json.dumps(report, sort_keys=True, separators=(",", ":")) == text


def test_text_and_csv_formats(capsys):
    code, out, _ = run(capsys, "smith-group", "4", "--format", "text")
    assert code == 0
    assert "free_rank 6" in out.splitlines()
    code, out, _ = run(capsys, "smith-group", "4", "--format", "csv")
    assert code == 0
    assert out == "value,multiplicity\n0,6\n1,8\n2,2\n"


def test_verify_csv_reports_status(capsys):
    code, out, _ = run(capsys, "verify", "half", "4", "--format", "csv")
    assert code == 0
    assert out == "command,status\nverify,ok\n"


def test_verify_n_below_one_is_usage_error(capsys):
    for target in ("bier", "conjecture", "half", "conjugacy", "laplacian"):
        for n in ("0", "-2"):
            code, out, err = run(capsys, "verify", target, n)
            assert code == 1, (target, n)
            assert out == ""
            assert err.startswith("error: ")


def test_verify_commands(capsys):
    for target, n in (("bier", 6), ("conjecture", 4), ("half", 4),
                      ("conjugacy", 3)):
        code, out, _ = run(capsys, "verify", target, str(n))
        assert code == 0, (target, n)
        assert json.loads(out)["status"] == "ok"


def test_verify_laplacian(capsys):
    code, out, _ = run(capsys, "verify", "laplacian", "4")
    assert code == 0
    report = json.loads(out)
    assert report["payload"]["s"] == 2
    code, _, err = run(capsys, "verify", "laplacian", "6")
    assert code == 1
    assert "power of two" in err


def test_matrix_output(capsys):
    code, out, _ = run(capsys, "matrix", "W", "4", "1", "2")
    assert code == 0
    assert from_text(out) == from_grid([[1, 1, 0, 1, 0, 0],
                                        [1, 0, 1, 0, 1, 0],
                                        [0, 1, 1, 0, 0, 1],
                                        [0, 0, 0, 1, 1, 1]])
    code, out, _ = run(capsys, "matrix", "adjacency", "2")
    assert code == 0
    assert from_text(out) == from_grid([[0, 1, 1, 0], [1, 0, 0, 1],
                                        [1, 0, 0, 1], [0, 1, 1, 0]])
    code, out, _ = run(capsys, "matrix", "E", "4", "2")
    assert code == 0
    assert from_text(out).rows == 6


def test_matrix_out_file(tmp_path, capsys):
    path = tmp_path / "m.txt"
    code, out, _ = run(capsys, "matrix", "M", "4", "--out", str(path))
    assert code == 0
    assert out == ""
    assert from_text(path.read_text()).rows == 5


def test_usage_errors(capsys):
    assert run(capsys, "smith-group")[0] == 1
    assert run(capsys, "smith-group", "zero")[0] == 1
    assert run(capsys, "smith-group", "0")[0] == 1
    assert run(capsys, "nonsense", "4")[0] == 1
    assert run(capsys, "matrix", "W", "4")[0] == 1
    assert run(capsys, "matrix", "adjacency", "99")[0] == 1
    assert run(capsys, "verify", "half", "3")[0] == 1


def test_negative_size_is_usage_error(capsys):
    # a negative k once built an empty stack, and a negative t surfaced as
    # an error about math.comb's k
    for argv, message in ((("Estack", "4", "-1"), "k must be >= 0, got -1"),
                          (("E", "4", "-1"), "k must be >= 0, got -1"),
                          (("D", "4", "-1", "1"), "t must be >= 0, got -1"),
                          (("D", "4", "0", "-1"), "need t <= k, got t=0, k=-1"),
                          # a negative n was once blamed on k
                          (("E", "-2", "0"), "n must be >= 0, got -2"),
                          (("Estack", "-1", "0"), "n must be >= 0, got -1"),
                          (("D", "-1", "0", "0"), "n must be >= 0, got -1")):
        code, out, err = run(capsys, "matrix", *argv)
        assert (code, out) == (1, ""), argv
        assert err == f"error: {message}\n", argv


def test_half_block_builds_only_its_own_inclusion_matrices(capsys, monkeypatch):
    # M's block from size i to i+1 is W_{i,i+1}, i < n/2, and N's is
    # W_{n-i,n-i-1}, n/2 <= i < n; neither command builds the other block
    asked = []
    real = cube.incidence_matrix

    def spy(n, t, k):
        asked.append((t, k))
        return real(n, t, k)
    monkeypatch.setattr(cube, "incidence_matrix", spy)
    for kind, expected in (("M", [(0, 1), (1, 2), (2, 3)]),
                           ("N", [(3, 2), (2, 1), (1, 0)])):
        asked.clear()
        code, out, _ = run(capsys, "matrix", kind, "6")
        assert code == 0 and out, kind
        assert asked == expected, kind


def test_oracle_cap_flag(capsys):
    code, _, err = run(capsys, "smith-group", "12", "--method", "oracle",
                       "--cap", "8")
    assert code == 1
    assert err == "error: oracle method limited to n <= 8\n"


def test_oversized_oracle_refused_before_any_matrix(capsys, monkeypatch):
    # a raised oracle cap does not lift the size cap of the dense cube
    # matrices; the refusal comes before a vertex list is built
    def no_build(n):
        raise AssertionError(f"a 2^{n}-vertex matrix was started")
    monkeypatch.setattr(cube, "vertex_order", no_build)
    for n, method in ((15, "oracle"), (15, "all"), (16, "all")):
        code, out, err = run(capsys, "smith-group", str(n), "--method", method,
                             "--cap", "20")
        assert (code, out) == (1, ""), (n, method)
        assert err == f"error: n={n} exceeds the size cap 14\n"


def test_oversized_subset_matrix_refused_before_allocation(capsys):
    # C(30, 15) subsets once ended in a MemoryError, a lost stderr or a run
    # that did not finish, and so did W(16384, 1, 16383): both sides within
    # the cap, but 16384 * 16383 nonzeros
    side = "error: a side of C(30, 15) subsets exceeds the size cap 2^14 = 16384\n"
    for argv, expected in (
            (("matrix", "W", "30", "15", "15"), side),
            (("matrix", "D", "30", "15", "15"), side),
            (("verify", "bier", "30"), side),
            (("matrix", "W", "16384", "1", "16383"),
             "error: W(16384, 1, 16383) has 268419072 nonzeros, above the cap "
             "3^14 = 4782969\n"),
            # one k-subset of a large n: its n one-bit masks hold O(n^2) bits
            (("matrix", "W", "30000", "30000", "30000"),
             "error: n=30000 exceeds the size cap 2^14 = 16384\n"),
            (("matrix", "W", "200000", "200000", "200000"),
             "error: n=200000 exceeds the size cap 2^14 = 16384\n")):
        t0 = time.monotonic()
        code, out, err = run(capsys, *argv)
        assert time.monotonic() - t0 < 1.0, argv
        assert (code, out) == (1, ""), argv
        assert err == expected, argv


def test_oversized_stacked_basis_refused_before_any_basis(capsys, monkeypatch):
    # the side of Estack(n, k) is C(n, 0) + ... + C(n, k), not C(n, k):
    # Estack(16, 8) once ended in a MemoryError under a 1 GiB limit
    def no_build(n, k):
        raise AssertionError(f"E({n}, {k}) was started")
    monkeypatch.setattr(reduction, "build_E", no_build)
    for k, side in ((7, 26333), (8, 39203)):
        code, out, err = run(capsys, "matrix", "Estack", "16", str(k))
        assert (code, out) == (1, ""), k
        assert err == (f"error: Estack(16, {k}) has side {side}, above the size "
                       "cap 2^14 = 16384\n"), k


def test_empty_subsets_of_a_large_n_still_print(capsys):
    for argv in (("matrix", "W", "30000", "0", "0"), ("matrix", "E", "100000", "0")):
        assert run(capsys, *argv) == (0, "1 1\n1 1 1\n0 0 0\n", ""), argv


def test_cli_import_leaves_out_dataclasses_and_typing():
    # every command runs in a fresh process, and dataclasses with typing
    # pulled in inspect, ast, dis and tokenize: about 20 ms of each start-up
    src = str(Path(cli.__file__).resolve().parents[1])
    code = ("import sys; before = set(sys.modules); sys.path.insert(0, sys.argv[1]); "
            "import smithcube.cli; print(*sorted(set(sys.modules) - before))")
    added = subprocess.run([sys.executable, "-S", "-c", code, src], check=True,
                           capture_output=True, text=True, timeout=60).stdout.split()
    assert "smithcube.cli" in added
    assert not {"dataclasses", "inspect", "typing", "ast", "dis"} & set(added)


def test_oversized_reduction_refused_before_the_shadow(capsys, monkeypatch):
    # m(m+1)/2 condensed rows for n = 2m once ended in a MemoryError
    # traceback under a 1 GiB limit; `build_condensed` refuses before it
    # computes the first chain weight
    def no_build(n, t):
        raise AssertionError(f"a shadow of n={n} was started")
    monkeypatch.setattr(reduction, "count_full_rank", no_build)
    for n, rows, argv in (
            (4000, 2001000, ("smith-group", "4000", "--method", "reduction")),
            (1448, 262450, ("smith-group", "1448", "--method", "all")),
            (4000, 2001000, ("verify", "conjecture", "4000"))):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert err == (f"error: n={n} needs {rows} condensed rows, above the "
                       "cap 262144 (n <= 1446)\n"), argv


def test_unwritable_out_is_usage_error(tmp_path, capsys):
    missing = str(tmp_path / "no-such-dir" / "x")
    # an empty path is a path too, not a request for stdout
    for path, argv in product((missing, ""), (
            ("smith-group", "4"), ("verify", "half", "4"),
            ("matrix", "W", "4", "1", "2"))):
        code, out, err = run(capsys, *argv, "--out", path)
        assert code == 1, (path, argv)
        assert out == ""
        assert err.startswith(f"error: cannot write {path}: ")
        assert len(err.splitlines()) == 1


# this package on the path, with standard output buffered and then
# unbuffered as PYTHONUNBUFFERED makes it
_CHILD_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
_CHILD_ENV["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
_CHILD_ENVS = (_CHILD_ENV, {**_CHILD_ENV, "PYTHONUNBUFFERED": "1"})


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="no /dev/full")
def test_full_standard_output_is_one_error_line():
    commands = (("smith-group", "8"), ("verify", "half", "4"),
                ("matrix", "adjacency", "4"))
    for env, argv in product(_CHILD_ENVS, commands):
        with open("/dev/full", "w") as full:
            done = subprocess.run([sys.executable, "-m", "smithcube.cli", *argv],
                                  stdout=full, stderr=subprocess.PIPE, text=True,
                                  env=env, timeout=60)
        assert (done.returncode, done.stderr) == (
            1, "error: cannot write standard output: No space left on device\n"), argv


def test_closed_pipe_is_one_error_line():
    # each output is above 1 MB, far more than a pipe holds, so the writer
    # meets the closed end
    commands = (("smith-group", "3000"), ("matrix", "adjacency", "13"))
    for env, argv in product(_CHILD_ENVS, commands):
        with subprocess.Popen([sys.executable, "-m", "smithcube.cli", *argv],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, env=env) as child:
            child.stdout.read(10)
            child.stdout.close()
            err = child.stderr.read()
            code = child.wait(timeout=60)
        assert (code, err) == (
            1, "error: cannot write standard output: Broken pipe\n"), argv


def test_cross_check_mismatch_exits_2(capsys, monkeypatch):
    broken = reduction.SmithGroupSummary(4, 7, {1: 9})
    monkeypatch.setattr(reduction, "smith_group_reduction", lambda n: broken)
    code, out, _ = run(capsys, "smith-group", "4", "--method", "all")
    assert code == 2
    report = json.loads(out)
    assert report["status"] == "mismatch"
    assert "payload" in report


@pytest.fixture
def default_str_digits():
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("no integer string conversion limit before 3.10.7")
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(old)


def test_unprintable_n_refused_before_any_route(capsys, default_str_digits):
    # every printed integer is below 2^n; under the default limit of 4300
    # digits, n = 14400 once ran its routes and then failed inside
    # json.dumps with the interpreter's own message
    for argv in (("smith-group", "14400"),
                 ("smith-group", "14400", "--method", "all")):
        t0 = time.monotonic()
        code, out, err = run(capsys, *argv)
        assert time.monotonic() - t0 < 0.5, argv
        assert (code, out) == (1, ""), argv
        assert err == ("error: n = 14400 may print integers of more than 4300 "
                       "digits, the interpreter's limit for integer string "
                       "conversion\n"), argv
    assert run(capsys, "smith-group", "14285")[0] == 1
    # at the smallest limit, 640 digits, the last n answered is 2126: 2^2126
    # has 640 digits and 2^2127 has 641
    sys.set_int_max_str_digits(640)
    for fmt in ("json", "csv", "text"):
        assert run(capsys, "smith-group", "2126", "--format", fmt)[0] == 0
    code, out, err = run(capsys, "smith-group", "2127")
    assert (code, out) == (1, "") and "more than 640 digits" in err


def _sweep_argv():
    sizes = [str(x) for x in range(-2, 7)]
    for fmt in ("json", "csv", "text"):
        for n in sizes:
            for method in ("closed", "oracle", "reduction", "all"):
                yield ["smith-group", n, "--method", method, "--format", fmt]
            for target in ("bier", "conjecture", "half", "conjugacy",
                           "laplacian"):
                yield ["verify", target, n, "--format", fmt]
    for kind, (arity, _) in cli._MATRICES.items():
        yield from (["matrix", kind, *params]
                    for params in product(sizes, repeat=arity))


@pytest.fixture(scope="module")
def sweep():
    # [argv, exit code, stdout, stderr] of every _sweep_argv() command, run
    # once for the module; an exception escaping main fails the fixture
    results = []
    for argv in _sweep_argv():
        # main writes standard output's bytes to its binary layer
        out, err = io.TextIOWrapper(io.BytesIO()), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        out.flush()
        results.append((argv, code, out.buffer.getvalue().decode(), err.getvalue()))
    return results


def test_every_command_exits_cleanly(sweep):
    # every subcommand, target, kind and format, with n, t and k in -2..6:
    # no exception escapes main, and a refusal is one error line on stderr
    for argv, code, out, err in sweep:
        assert code in (0, 1, 2), argv
        if code == 1:
            assert out == "", argv
            lines = err.splitlines()
            assert "error: " in lines[-1], argv
            assert sum("error:" in line for line in lines) == 1, argv
    assert len(sweep) == 1917
