"""The README's Python code runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.S | re.M)
    assert blocks
    for code in blocks:
        exec(compile(code, str(README), "exec"), {})
    assert "InvariantReport(n=2, q=4" in capsys.readouterr().out
