"""The README's Python code and command lines run as written."""

import importlib
import inspect
import pkgutil
import re
import shlex
import sys
from pathlib import Path

import lirg
from lirg import aut, cli, field, graph, matrix
from lirg.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"

# The dunders that dataclasses generate, and that hashing, comparison and
# printing call without a caller naming them.
VALUE_DUNDERS = {"__init__", "__repr__", "__eq__", "__hash__", "__setattr__", "__delattr__",
                 "__lt__", "__le__", "__gt__", "__ge__"}


def python_blocks():
    return re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.S | re.M)


def command_lines():
    section = README.read_text().split("## Command line\n", 1)[1]
    block = re.search(r"^```sh\n(.*?)^```$", section, re.S | re.M)[1]
    return [shlex.split(line, comments=True) for line in block.splitlines()]


def public_functions():
    """(module.qualname, function) for every public function and method
    defined in lirg, properties included, the value dunders left out."""
    for info in pkgutil.iter_modules(lirg.__path__):
        module = importlib.import_module(f"lirg.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            for attr, fn in vars(obj).items() if inspect.isclass(obj) else [(name, obj)]:
                fn = getattr(fn, "fget", None) or getattr(fn, "func", fn)
                private = attr.startswith("_") and not attr.endswith("__")
                if inspect.isfunction(fn) and not private and attr not in VALUE_DUNDERS:
                    yield f"{info.name}.{fn.__qualname__}", fn


def test_readme_python_blocks_run(capsys):
    blocks = python_blocks()
    assert blocks
    for code in blocks:
        exec(compile(code, str(README), "exec"), {})
    assert "InvariantReport(n=2, q=4" in capsys.readouterr().out


def test_readme_command_lines_run(capsys, monkeypatch, tmp_path):
    commands = command_lines()
    assert len(commands) == 10 and all(argv[0] == "lirg" for argv in commands)
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv[1:]) == 0, argv
        out = capsys.readouterr().out
    assert out.endswith("order: 168\n")
    assert (tmp_path / "f2.perm").read_bytes() == (tmp_path / "f.perm").read_bytes()


def test_readme_reaches_all_but_these_functions(capsys, monkeypatch, tmp_path):
    # What README neither runs nor shows is kept for a reason: the paper's
    # generators and the full group order, which the acceptance criteria
    # check; the exported closed forms and enumerate_matrices, which tests
    # compare against; Blocks.__len__, which the bench's byte count calls.
    called = set()
    monkeypatch.chdir(tmp_path)
    sys.setprofile(lambda frame, event, arg: event == "call" and called.add(frame.f_code))
    try:
        for code in python_blocks():
            exec(compile(code, str(README), "exec"), {})
        for argv in command_lines():
            main(argv[1:])
    finally:
        sys.setprofile(None)
    unreached = {name for name, fn in public_functions() if fn.__code__ not in called}
    assert unreached == {
        "aut.full_aut_order",
        "aut.FactoredGroupOrder.value",
        "aut.FactoredGroupOrder.__str__",
        "aut.right_mul_automorphism",
        "aut.frobenius_automorphism",
        "counting.rank_class_size",
        "matrix.enumerate_matrices",
        "serialize.Blocks.__len__",
    }


def bound_table():
    """{bound: (value cell, checked-in cell)} of the README's bound table,
    in row order."""
    section = README.read_text().split("Exit codes:", 1)[1]
    lines = re.search(r"^\|.*?(?=\n\n)", section, re.S | re.M)[0].splitlines()
    cells = [[c.strip() for c in line.strip("|").split("|")] for line in lines]
    assert cells[0] == ["bound", "compares", "commands", "value", "checked in"]
    return {c[0]: (c[3], c[4]) for c in cells[2:]}


def test_readme_bound_table_matches_the_code():
    table = bound_table()
    assert list(table) == [
        "primality", "field order", "vertex cap", "subspace cap", "class bound", "digits", "input bytes"
    ]
    # Every backticked number in a value cell, in order: 1,000 or 2^82.
    numbers = {
        bound: [int(b) ** int(e or 1) for b, e in re.findall(r"`(\d+)(?:\^(\d+))?`", value.replace(",", ""))]
        for bound, (value, _) in table.items()
    }
    quotient_cap = inspect.signature(aut.quotient_aut_order).parameters["cap"].default
    assert numbers == {
        "primality": [field.PRIME_LIMIT],
        "field order": [2**field.ORDER_BITS],
        "vertex cap": [matrix.DEFAULT_VERTEX_CAP],
        "subspace cap": [matrix.DEFAULT_VERTEX_CAP, quotient_cap],
        "class bound": [graph.CLASS_BOUND],
        "digits": [sys.int_info.default_max_str_digits],
        "input bytes": [cli.INPUT_SLACK],
    }
    # Each place a bound is checked names a function or class of lirg.
    for _, checked in table.values():
        for name in re.findall(r"`(\w+)\.(\w+)`", checked):
            assert callable(getattr(importlib.import_module(f"lirg.{name[0]}"), name[1])), name
