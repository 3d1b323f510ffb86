import re
import shlex
from pathlib import Path

import pytest

from smithcube import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()

# every smithcube line of the README's sh blocks; a comment
# "# exit N: <prefix>" gives its exit code and the start of its standard
# error, and any other line must exit 0 with nothing on standard error
COMMANDS = [line for block in re.findall(r"```sh\n(.*?)```", README, re.S)
            for line in block.splitlines() if line.startswith("smithcube ")]


def test_readme_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README, re.S)
    assert blocks
    for code in blocks:
        exec(compile(code, "README.md", "exec"), {})


def test_readme_shows_commands_and_refusals():
    assert sum("# exit 1: error: " in line for line in COMMANDS) >= 10
    assert sum("# exit" not in line for line in COMMANDS) >= 5


@pytest.mark.parametrize("line", COMMANDS, ids=lambda line: line.split("#")[0].strip())
def test_readme_command(line, tmp_path, monkeypatch, capsys):
    command, _, comment = line.partition("#")
    expected = re.fullmatch(r" exit (\d+): (.+)", comment)
    monkeypatch.chdir(tmp_path)
    code = cli.main(shlex.split(command)[1:])
    err = capsys.readouterr().err
    if expected:
        assert (code, err[:len(expected[2])]) == (int(expected[1]), expected[2])
        assert err.count("\n") == 1
    else:
        assert (code, err) == (0, "")
