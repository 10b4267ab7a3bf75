"""Every module of the package uses every name it imports. A deletion
that leaves an import behind fails here. The package `__init__` is
exempt: its imports are the package's re-exports."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "evomtl"


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement that no expression reads;
    `from __future__` imports bind nothing."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"line {line}: {name}" for name, line in bound.items()
                  if name not in read)


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py")
                                        if p.name != "__init__.py"))
def test_module_uses_every_import(path):
    assert unused_imports((SRC / path).read_text()) == []


def test_the_check_sees_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os, json as js\nfrom math import pi, tau\n"
              "print(os.sep, tau)\n")
    assert unused_imports(source) == ["line 2: js", "line 3: pi"]
