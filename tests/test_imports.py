"""Every name a source module imports is used in that module, every
private module-level name is used somewhere in the package, and every
name a module exports resolves.

A deletion that leaves its import behind (a constant, a helper) shows up
here, and so does a numpy import outside ``disk.py``.  ``__init__.py`` is
skipped by the unused-import check: its imports are the package's public
names.  A deletion that leaves a private helper, class or constant with no
caller in ``src/pyjama`` shows up too.  The other direction catches a
deletion that leaves its ``__all__`` entry or its package import behind,
which would break ``from pyjama.gaussian import *`` and every tool that
reads ``__all__``.
"""

import ast
import importlib
import types
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "pyjama"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def _quoted_names(annotation: ast.expr):
    """Names read inside the quoted parts of an annotation ("PadicNumber")."""
    for node in ast.walk(annotation):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield from (n.id for n in ast.walk(ast.parse(node.value, mode="eval"))
                        if isinstance(n, ast.Name))


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports that no ``Name`` node, quoted
    annotation or ``__all__`` entry names."""
    imported, used = {}, set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            used.update(_quoted_names(node.annotation))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            used.update(_quoted_names(node.returns))
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


def test_guard_finds_an_unused_import():
    source = "from .gaussian import P5BAR, P13BAR, valuation\n\nvaluation(1, P13BAR)\n"
    assert unused_imports(source) == ["P5BAR (line 1)"]
    assert unused_imports("import numpy as np\nx: 'np.ndarray'\n") == []
    assert unused_imports("from a import b\n__all__ = ['b']\n") == []


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((SRC / module).read_text()) == []


def _private_definitions(tree: ast.Module):
    """(name, statement) for each private function, class or constant that
    the module's top level defines; dunder names such as ``__version__``
    are not private helpers."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            nodes = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            targets = [n.id for t in nodes for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                yield name, stmt


def _referenced_names(stmt: ast.stmt) -> set[str]:
    """The names a top-level statement reads: plain names, attributes such
    as ``covering._margin``, imported names and quoted annotations."""
    names = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            names.update(_quoted_names(node.annotation))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            names.update(_quoted_names(node.returns))
    return names


def orphaned_private_names(sources: dict[str, str]) -> list[str]:
    """``module.name`` for each private module-level name that no other
    top-level statement of any source names; a function that only calls
    itself is orphaned too."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    reads = [(stmt, _referenced_names(stmt)) for tree in trees.values() for stmt in tree.body]
    return [f"{module}.{name} (line {stmt.lineno})"
            for module, tree in sorted(trees.items())
            for name, stmt in _private_definitions(tree)
            if not any(name in names for other, names in reads if other is not stmt)]


def test_guard_finds_an_orphaned_private_name():
    sources = {
        "a": ("_USED = 1\n"
              "_LEFT = 2\n"
              "_READ_ELSEWHERE = 3\n"
              "__version__ = '1'\n"
              "def _helper():\n    return _helper()\n"
              "def public():\n    return _USED\n"),
        "b": "from . import a\nclass _Kept:\n    pass\nx = a._READ_ELSEWHERE, _Kept\n",
    }
    assert orphaned_private_names(sources) == ["a._LEFT (line 2)", "a._helper (line 5)"]


def test_no_orphaned_private_names():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert orphaned_private_names(sources) == []


def numpy_importers() -> list[str]:
    """The source modules, ``__init__.py`` included, that import numpy
    anywhere, inside a function as well as at the top."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            if any(name.split(".")[0] == "numpy" for name in names):
                found.append(path.name)
                break
    return found


def test_only_the_disk_cover_imports_numpy():
    # every command but irrational-cover starts without numpy's import
    assert numpy_importers() == ["disk.py"]


def unresolved_exports(module: types.ModuleType) -> list[str]:
    """The module's ``__all__`` entries that it does not define."""
    return [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]


def unresolved_package_imports(source: str) -> list[str]:
    """``module.name`` for every ``from .module import name`` of a package
    ``__init__`` source that the module does not define."""
    return [f"{node.module}.{alias.name}" for node in ast.parse(source).body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names
            if not hasattr(importlib.import_module(f"pyjama.{node.module}"), alias.name)]


def test_guard_finds_a_stale_export():
    planted = types.ModuleType("planted")
    planted.kept = 1
    planted.__all__ = ["kept", "removed"]
    assert unresolved_exports(planted) == ["removed"]
    source = "from .gaussian import GaussianInt, removed\n"
    assert unresolved_package_imports(source) == ["gaussian.removed"]


@pytest.mark.parametrize("module", MODULES)
def test_every_export_resolves(module):
    assert unresolved_exports(importlib.import_module(f"pyjama.{module[:-3]}")) == []


def test_every_package_import_resolves():
    assert unresolved_package_imports((SRC / "__init__.py").read_text()) == []
