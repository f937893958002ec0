"""Source hygiene: no module of the package imports a name it never uses,
and no private module-level name goes unread by every module."""

import ast
from pathlib import Path

import pytest

import ued_forge

PACKAGE = sorted(Path(ued_forge.__file__).parent.glob("*.py"))
MODULES = [path for path in PACKAGE if path.name != "__init__.py"]


def unused_imports(source: str) -> list[str]:
    """Each name that ``source`` imports and never reads, with its line."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


def unread_private_names(sources: dict) -> list[str]:
    """Each private module-level name defined in ``sources`` (module name to
    source) that no module reads: by name, as an attribute or by import."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    unread = []
    for module, tree in sorted(trees.items()):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            unread += [f"{module}.{name} (line {node.lineno})" for name in names
                       if name.startswith("_") and not name.startswith("__")
                       and name not in read]
    return unread


def test_unused_imports_finds_names_never_read():
    source = ("from __future__ import annotations\nimport os, os.path as osp\n"
              "import numpy.linalg\nfrom x import y as z, w\nz(numpy.linalg)\n")
    assert unused_imports(source) == ["os (line 2)", "osp (line 2)", "w (line 4)"]


def test_unread_private_names_finds_names_no_module_reads():
    sources = {"a": ("__all__ = []\n_x = 1\n_y: int = 2\ndef _f():\n    return _x\n"
                     "class _C:\n    pass\ndef _g():\n    pass\n_z = x = 3\n"),
               "b": "from .a import _C\nimport a\na._g()\n"}
    assert unread_private_names(sources) == ["a._y (line 3)", "a._f (line 4)",
                                             "a._z (line 10)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_module_reads_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_package_reads_every_private_module_level_name():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE}
    assert unread_private_names(sources) == []
