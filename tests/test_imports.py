"""Every module-level import in ``src/repro`` is used.

Deleting code tends to leave its imports behind.  This guard parses each
module with the standard-library ``ast`` and fails on any module-level
import whose bound name the module never reads.  Exempt: every import in
an ``__init__.py`` (the package's re-exports), names listed in
``__all__``, ``from __future__`` imports, and names that occur only in a
string annotation.
"""

from __future__ import annotations

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"


def _bound_names(node: ast.AST):
    """``(name, line)`` of every name a module-level import binds."""
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return
    for alias in node.names:
        if alias.asname:
            yield alias.asname, node.lineno
        else:
            yield alias.name.split(".")[0], node.lineno


def _used_names(tree: ast.Module) -> set:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            inner = node
            while isinstance(inner, ast.Attribute):
                inner = inner.value
            if isinstance(inner, ast.Name):
                used.add(inner.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # String annotations ("DiscreteDistribution", "Optional[int]").
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(
                n.id for n in ast.walk(expr) if isinstance(n, ast.Name)
            )
    return used


def _exported(tree: ast.Module) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {ast.literal_eval(e) for e in node.value.elts}
    return set()


def unused_imports(path: pathlib.Path) -> list:
    """``(line, name)`` of each unused module-level import in *path*."""
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used_names(tree) | _exported(tree)
    return [
        (line, name)
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for name, line in _bound_names(node)
        if name not in used
    ]


_MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize(
    "path", _MODULES, ids=[str(p.relative_to(SRC)) for p in _MODULES]
)
def test_no_unused_module_level_imports(path):
    assert unused_imports(path) == []


def test_scanner_flags_an_unused_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import math\n"
        "import os.path\n"
        "from typing import List, Tuple\n"
        "from x import y as z\n"
        "def f(a: 'List[int]') -> None:\n"
        "    return os.path.join(a)\n"
    )
    assert unused_imports(module) == [(2, "math"), (4, "Tuple"), (5, "z")]
