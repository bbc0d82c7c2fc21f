"""No module of the package imports a name it never uses, no function of it
takes a parameter it never reads, the package root exports exactly the names it
imports, and no function, class or method of the package is there only for its
tests: each one no package code reads is listed, with its reason, in
``UNREFERENCED_ON_PURPOSE``.

A ``RowAnchor``'s arrays are read in ``model.py`` alone, which builds them, so
no other module depends on the anchor's layout. Importing the package does not
import its CLI, whose parser is built at import.

The project depends on no linter, so this reads each module's syntax tree
with the standard library's ``ast``. ``__init__.py`` is skipped by the unused
import check (its imports are the package's re-exports), and so are
``__future__`` imports.
"""

import ast
import os
import subprocess
import sys
from collections import Counter
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


def unread_parameters(source: str) -> list[str]:
    """``name:parameter`` for each parameter of a ``def`` or ``lambda`` (``name`` is then
    ``lambda``) that its body, nested functions included, never reads."""
    flagged = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs,
                                  *filter(None, (a.vararg, a.kwarg)))]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
        flagged += [f"{getattr(node, 'name', 'lambda')}:{p}" for p in params if p not in read]
    return flagged


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_function_takes_a_parameter_it_never_reads(path):
    assert unread_parameters(path.read_text()) == []


def test_the_check_sees_unread_parameters():
    source = ("def f(a, b, *args, c=1, **kw):\n    b = 2\n    return a + c + len(kw)\n"
              "class C:\n    def m(self, x):\n        def inner():\n            return x\n"
              "        return inner\n"
              "g = lambda y, z=0: y\n")
    assert unread_parameters(source) == ["f:b", "f:args", "m:self", "lambda:z"]


def imported_names(source: str) -> list[str]:
    """Names bound by the module-level imports of a source."""
    return [alias.asname or alias.name for node in module_imports(ast.parse(source))
            for alias in node.names]


def test_root_exports_exactly_what_it_imports():
    names = imported_names((PACKAGE / "__init__.py").read_text())
    assert sorted(names) == sorted(masktune.__all__)
    assert len(set(masktune.__all__)) == len(masktune.__all__)
    assert all(hasattr(masktune, name) for name in masktune.__all__)


def row_anchor_array_reads(source: str) -> list[int]:
    """Lines of a source that read a ``RowAnchor`` array field, ``.z1`` or ``.a0_whole``."""
    return sorted(n.lineno for n in ast.walk(ast.parse(source))
                  if isinstance(n, ast.Attribute) and n.attr in ("z1", "a0_whole"))


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "model.py"),
                         ids=lambda p: p.name)
def test_only_the_model_module_reads_the_row_anchor_layout(path):
    assert row_anchor_array_reads(path.read_text()) == []


def test_the_check_sees_row_anchor_array_reads():
    source = ("z1 = anchor.z1\nrows0 = model.rows0\n"
              "change = trained - a0[:, rows0]\nkept = anchor.take(rows).a0_whole\n")
    assert row_anchor_array_reads(source) == [1, 4]


# the definitions no package code reads that are kept for a reason outside the package;
# the check fails when one is gone or read again, so the list cannot go stale
UNREFERENCED_ON_PURPOSE = {
    "LayerMask.to_dense": "only the bench's spans.TARGETS names it",
    "save_dataset_csv": "the bench's input writer",
    "cmd_ablate": "cli.main dispatches each cmd_<name> by name",
    "cmd_finetune": "cli.main dispatches each cmd_<name> by name",
    "cmd_mask_report": "cli.main dispatches each cmd_<name> by name",
    "cmd_pretrain": "cli.main dispatches each cmd_<name> by name",
}


def definitions(tree: ast.Module):
    """(qualified name, node) of each module-level function and class, and of each method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item


def read_names(tree: ast.AST) -> list[str]:
    """Every identifier and attribute name a tree reads, repeats included."""
    return [n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(tree)
            if isinstance(n, (ast.Name, ast.Attribute))]


def unreferenced_definitions(package: list[ast.Module], exported: set[str]) -> list[str]:
    """Functions, classes and methods of the package that no other package code
    reads and that the root does not export. Dunder methods are called by Python
    itself and are never flagged."""
    reads = Counter(name for tree in package for name in read_names(tree))
    flagged = []
    for tree in package:
        for qualname, node in definitions(tree):
            name = qualname.rsplit(".", 1)[-1]
            if name.startswith("__") and name.endswith("__"):
                continue
            elsewhere = reads[name] - read_names(node).count(name)
            if not (elsewhere or name in exported):
                flagged.append(qualname)
    return sorted(flagged)


def test_no_definition_is_only_called_by_its_own_tests():
    package = [ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))]
    assert unreferenced_definitions(package, set(masktune.__all__)) == \
        sorted(UNREFERENCED_ON_PURPOSE)


def test_the_check_sees_unreferenced_definitions():
    module = ast.parse("def used():\n    return used\n\ndef helper():\n    return used()\n\n"
                       "def exported():\n    pass\n\ndef benched():\n    pass\n\n"
                       "class C:\n    def __init__(self):\n        self.m()\n\n"
                       "    def m(self):\n        pass\n\n    def dead(self):\n        pass\n")
    # nothing outside the package counts as a use: a bench target is flagged like dead code
    assert unreferenced_definitions([module], {"exported"}) == [
        "C", "C.dead", "benched", "helper"]


def test_importing_the_package_leaves_the_cli_unimported():
    # the bench imports the package in every set-up, which must not build the CLI's parser
    probe = "import sys, masktune; print('masktune.cli' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    run = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env,
                         check=True)
    assert run.stdout == "False\n"
