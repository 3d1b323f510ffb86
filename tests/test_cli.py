import json

import pytest

from smithcube import cli, cube, reduction
from smithcube.bigmat import IntMatrix, from_text


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


def test_oracle_cap_flag_and_env(capsys, monkeypatch):
    code, _, err = run(capsys, "smith-group", "12", "--method", "oracle",
                       "--cap", "8")
    assert code == 1
    assert "n <= 8" in err
    monkeypatch.setenv("SMITHCUBE_CAP", "6")
    code, _, err = run(capsys, "smith-group", "8", "--method", "oracle")
    assert code == 1
    assert "n <= 6" in err


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


def test_bad_cap_env_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("SMITHCUBE_CAP", "abc")
    for argv in (("smith-group", "4"), ("verify", "conjecture", "4")):
        code, out, err = run(capsys, *argv)
        assert code == 1, argv
        assert out == ""
        assert err == "error: SMITHCUBE_CAP must be an integer, got 'abc'\n"


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
