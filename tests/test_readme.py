import re
from pathlib import Path


def test_readme_library_example_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert blocks
    for code in blocks:
        exec(compile(code, "README.md", "exec"), {})
