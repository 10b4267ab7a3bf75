"""Every module of the package uses every name it imports, and every
function, class, method and module-level constant it defines is read
somewhere in the package. A deletion that leaves an import, a helper or
a constant behind fails here. The package `__init__` is exempt from the
import check: its imports are the package's re-exports."""

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


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def unread_definitions(sources: dict[str, str]) -> list[str]:
    """Top-level functions and classes, and methods other than dunders,
    of the modules in `sources` (file name -> text) whose name no
    expression in any of them reads, as a name or as an attribute."""
    defined, read = {}, set()
    for path, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined[f"{path}:{node.lineno}: {node.name}"] = node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and not _is_dunder(item.name)):
                        defined[f"{path}:{item.lineno}: {node.name}."
                                f"{item.name}"] = item.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(where for where, name in defined.items()
                  if name not in read)


def test_package_reads_every_definition():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unread_definitions(sources) == []


def test_the_check_sees_an_unread_definition():
    sources = {
        "a.py": ("def helper():\n    pass\n\n\ndef left_over():\n"
                 "    pass\n\n\nclass Box:\n    def __init__(self):\n"
                 "        self.open()\n\n    def open(self):\n"
                 "        pass\n\n    def shut(self):\n        pass\n"),
        "b.py": "from a import Box, helper\nhelper()\nBox()\n",
    }
    assert unread_definitions(sources) == [
        "a.py:16: Box.shut", "a.py:5: left_over"]


def unread_constants(sources: dict[str, str]) -> list[str]:
    """Names other than dunders that a module-level assignment of the
    modules in `sources` (file name -> text) binds and that no expression
    in any of them reads, as a name or as an attribute."""
    defined, read = {}, set()
    for path, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign)
                       else [])
            for target in targets:
                for name in ast.walk(target):
                    if (isinstance(name, ast.Name)
                            and isinstance(name.ctx, ast.Store)
                            and not _is_dunder(name.id)):
                        defined[f"{path}:{node.lineno}: {name.id}"] = name.id
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx,
                                                             ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(where for where, name in defined.items()
                  if name not in read)


def test_package_reads_every_constant():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unread_constants(sources) == []


def test_the_check_sees_an_unread_constant():
    sources = {
        "a.py": ("__all__ = ['LIMIT']\nLIMIT = 3\nSPARE = 4\n"
                 "WIDTH: int = 8\nLO, HI = 0, 1\n"
                 "def f():\n    local = LIMIT\n    return local + HI\n"),
        "b.py": "import a\nprint(a.WIDTH)\nSPARE = 5\n",
    }
    assert unread_constants(sources) == [
        "a.py:3: SPARE", "a.py:5: LO", "b.py:3: SPARE"]
