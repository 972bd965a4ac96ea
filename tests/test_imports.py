"""Every module-level import in lirg is used in its module or exported,
and every private module-level name is used somewhere in lirg."""

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


def private_definitions(tree):
    """(name, node) for each private function, class or constant that the
    module's top level defines; dunder names are not private."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def references(trees, module, name, definition):
    """Loads of ``name`` in ``module`` outside ``definition``, in modules that
    import it from ``module``, and attribute reads ``module.name``."""
    inside = {id(node) for node in ast.walk(definition)}
    for other, tree in trees.items():
        imported = other == module or any(
            isinstance(node, ast.ImportFrom)
            and node.module == f"lirg.{module}"
            and any(alias.name == name for alias in node.names)
            for node in ast.walk(tree)
        )
        for node in ast.walk(tree):
            if id(node) in inside:
                continue
            if isinstance(node, ast.Name):
                if imported and node.id == name and not isinstance(node.ctx, ast.Store):
                    yield node
            elif isinstance(node, ast.Attribute):
                if node.attr == name and getattr(node.value, "id", None) == module:
                    yield node


def test_every_private_name_is_used_in_lirg():
    """No private helper lives on for the tests alone."""
    trees = {path.stem: ast.parse(path.read_text()) for path in SOURCES}
    unused = [
        f"{module}.{name}"
        for module, tree in trees.items()
        for name, node in private_definitions(tree)
        if next(references(trees, module, name, node), None) is None
    ]
    assert not unused, f"private names used nowhere in src/lirg: {unused}"


def test_sources_found():
    assert {"__init__.py", "graph.py", "matrix.py"} <= {path.name for path in SOURCES}
