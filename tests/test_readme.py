"""The README's Python code and command lines run as written."""

import re
import shlex
from pathlib import Path

from lirg.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.S | re.M)
    assert blocks
    for code in blocks:
        exec(compile(code, str(README), "exec"), {})
    assert "InvariantReport(n=2, q=4" in capsys.readouterr().out


def test_readme_command_lines_run(capsys, monkeypatch, tmp_path):
    section = README.read_text().split("## Command line\n", 1)[1]
    block = re.search(r"^```sh\n(.*?)^```$", section, re.S | re.M)[1]
    commands = [shlex.split(line, comments=True) for line in block.splitlines()]
    assert len(commands) == 10 and all(argv[0] == "lirg" for argv in commands)
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv[1:]) == 0, argv
        out = capsys.readouterr().out
    assert out.endswith("order: 168\n")
    assert (tmp_path / "f2.perm").read_bytes() == (tmp_path / "f.perm").read_bytes()
