"""Source hygiene: no module of the package imports a name it never uses."""

import ast
from pathlib import Path

import pytest

import ued_forge

MODULES = sorted(path for path in Path(ued_forge.__file__).parent.glob("*.py")
                 if path.name != "__init__.py")


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


def test_unused_imports_finds_names_never_read():
    source = ("from __future__ import annotations\nimport os, os.path as osp\n"
              "import numpy.linalg\nfrom x import y as z, w\nz(numpy.linalg)\n")
    assert unused_imports(source) == ["os (line 2)", "osp (line 2)", "w (line 4)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_module_reads_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
