"""No module of the package imports a name it never uses, and the package
root exports exactly the names it imports.

The project depends on no linter, so this reads each module's syntax tree
with the standard library's ``ast``. ``__init__.py`` is skipped by the unused
import check (its imports are the package's re-exports), and so are
``__future__`` imports.
"""

import ast
from pathlib import Path

import pytest

import masktune

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "masktune"


def module_imports(tree: ast.Module):
    """Import statements at module level, those under a module-level if or try included."""
    for node in tree.body:
        if isinstance(node, (ast.If, ast.Try)):
            yield from (n for n in ast.walk(node) if isinstance(n, (ast.Import, ast.ImportFrom)))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node


def unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports that nothing else in the module reads."""
    tree = ast.parse(source)
    imported = set()
    for node in module_imports(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            imported.add(alias.asname or alias.name.split(".")[0])
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py")
                                        if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_module_has_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_unused_and_used_imports():
    source = ("from __future__ import annotations\nimport os\nimport numpy as np\n"
              "from typing import TYPE_CHECKING\nif TYPE_CHECKING:\n    from x import Y\n"
              "def f(a: Y):\n    import sys\n    return np.zeros(1)\n")
    assert unused_imports(source) == ["os"]


def imported_names(source: str) -> list[str]:
    """Names bound by the module-level imports of a source."""
    return [alias.asname or alias.name for node in module_imports(ast.parse(source))
            for alias in node.names]


def test_root_exports_exactly_what_it_imports():
    names = imported_names((PACKAGE / "__init__.py").read_text())
    assert sorted(names) == sorted(masktune.__all__)
    assert len(set(masktune.__all__)) == len(masktune.__all__)
    assert all(hasattr(masktune, name) for name in masktune.__all__)
