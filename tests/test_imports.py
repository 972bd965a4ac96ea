"""Every module-level import in lirg is used in its module or exported."""

import ast
from pathlib import Path

import pytest

import lirg

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "lirg").glob("*.py"))


def module_level_imports(tree):
    """The names that the module's top-level import statements bind."""
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_module_level_import_is_used(path):
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | set(lirg.__all__)
    unused = [name for name in module_level_imports(tree) if name not in used]
    assert not unused, f"{path.name} imports {unused} and never uses them"


def test_sources_found():
    assert {"__init__.py", "graph.py", "matrix.py"} <= {path.name for path in SOURCES}
