import hashlib
import json
import time

import pytest

from smithcube import cli, cube, reduction
from smithcube.bigmat import IntMatrix, from_text


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# SHA-256 of `smithcube matrix ARGS` for every matrix kind, recorded from the
# per-matrix constructions that preceded the shared block assembler
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
}


def test_matrix_output_digests(capsys):
    for args, digest in MATRIX_SHA256.items():
        code, out, err = run(capsys, "matrix", *args.split())
        assert (code, err) == (0, ""), args
        assert hashlib.sha256(out.encode()).hexdigest() == digest, args


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


def test_smith_group_n100_closed(capsys):
    code, out, _ = run(capsys, "smith-group", "100", "--method", "closed")
    assert code == 0
    report = json.loads(out)
    total = report["free_rank"] + sum(e["multiplicity"] for e in report["entries"])
    assert total == 1 << 100


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
    assert from_text(out) == IntMatrix([[1, 1, 0, 1, 0, 0],
                                        [1, 0, 1, 0, 1, 0],
                                        [0, 1, 1, 0, 0, 1],
                                        [0, 0, 0, 1, 1, 1]])
    code, out, _ = run(capsys, "matrix", "adjacency", "2")
    assert code == 0
    assert from_text(out) == IntMatrix([[0, 1, 1, 0], [1, 0, 0, 1],
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
                          (("D", "4", "0", "-1"), "need t <= k, got t=0, k=-1")):
        code, out, err = run(capsys, "matrix", *argv)
        assert (code, out) == (1, ""), argv
        assert err == f"error: {message}\n", argv


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
    # that did not finish
    for argv in (("matrix", "W", "30", "15", "15"), ("matrix", "D", "30", "15", "15"),
                 ("verify", "bier", "30")):
        t0 = time.monotonic()
        code, out, err = run(capsys, *argv)
        assert time.monotonic() - t0 < 1.0, argv
        assert (code, out) == (1, ""), argv
        assert err == ("error: a side of C(30, 15) subsets exceeds the size "
                       "cap 2^14 = 16384\n"), argv


def test_unwritable_out_is_usage_error(tmp_path, capsys):
    missing = str(tmp_path / "no-such-dir" / "x")
    for argv in (("smith-group", "4"), ("verify", "half", "4"),
                 ("matrix", "W", "4", "1", "2")):
        code, out, err = run(capsys, *argv, "--out", missing)
        assert code == 1, argv
        assert out == ""
        assert err.startswith(f"error: cannot write {missing}: ")
        assert len(err.splitlines()) == 1


def test_cross_check_mismatch_exits_2(capsys, monkeypatch):
    broken = reduction.SmithGroupSummary(4, 7, {1: 9})
    monkeypatch.setattr(reduction, "smith_group_reduction", lambda n: broken)
    code, out, _ = run(capsys, "smith-group", "4", "--method", "all")
    assert code == 2
    report = json.loads(out)
    assert report["status"] == "mismatch"
    assert "payload" in report
