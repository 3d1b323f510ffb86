"""Traced benchmark jobs run the same commands as the CLI.

`perfbench/tracer.py` wraps `IntMatrix` methods looked up by name in the
class body, so a change that drops or rebinds one of them shows up here,
not only in a traced benchmark run.
"""
import json
import os
import re
import subprocess
import sys
from pathlib import Path

from smithcube import cli

JOB = Path(__file__).resolve().parents[1] / "perfbench" / "job.py"
COMMANDS = (("smith-group", "6", "--method", "all"), ("verify", "bier", "5"),
            ("verify", "half", "6"), ("matrix", "laplacian", "3"),
            ("matrix", "E", "6", "3"))


def _strip_elapsed(text: str) -> str:
    return re.sub(r'"elapsed_ms":\d+', '"elapsed_ms":0', text)


def test_traced_jobs_match_the_cli(tmp_path, capsys):
    spans = set()
    for argv in COMMANDS:
        meta = tmp_path / "meta.json"
        job = subprocess.run([sys.executable, str(JOB), str(meta), "1", "cli", *argv],
                             cwd=tmp_path, env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
                             capture_output=True, text=True, timeout=120)
        assert (job.returncode, job.stderr) == (0, ""), argv
        assert cli.main(list(argv)) == 0
        assert _strip_elapsed(job.stdout) == _strip_elapsed(capsys.readouterr().out), argv
        spans.update(name for name, *_ in json.loads(meta.read_text())["spans"])
    # no command multiplies two matrices, so bigmat.matmul is not a span;
    # both bigmat names are INTMATRIX_METHODS entries, so a dropped method
    # fails here; build_E, uncached, is still wrapped as a span
    assert {"bigmat.eq", "bigmat.transpose", "canonical.build_E"} <= spans
