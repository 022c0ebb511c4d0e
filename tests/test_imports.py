"""Every name a source module imports is used in that module, every
private module-level name is used somewhere in the package, and every
name a module exports resolves.

A deletion that leaves its import behind (a constant, a helper) shows up
here, and so does a numpy import outside ``disk.py`` or any import of
``configparser`` or ``csv``.  ``__init__.py`` imports nothing: its names
resolve on first use.  A deletion that leaves a private helper, class or
constant with no caller in ``src/pyjama`` shows up too, and so does a
function or public method that neither the package, a demo nor the
acceptance tests read.  The other direction catches a deletion that
leaves its ``__all__`` entry or its package name behind, which would
break ``from pyjama.gaussian import *`` and every tool that reads
``__all__``.  The dunder methods of the exact scalars are pinned, so an
operator added to one of them shows up as well.  So does growth that
takes a module past the parser's 4,096-token compile-memory step.
"""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
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


def _reads(trees, kinds) -> list[tuple[ast.AST, str]]:
    """(node, name) for each read in the trees: an attribute ``x.name`` and,
    when ``kinds`` holds ``ast.Name``, a plain ``name``."""
    return [(node, node.attr if isinstance(node, ast.Attribute) else node.id)
            for tree in trees for node in ast.walk(tree)
            if isinstance(node, kinds) and not isinstance(node.ctx, ast.Store)]


def _unread(fn: ast.FunctionDef, reads) -> bool:
    """No read outside the function's own body names it."""
    own = {id(node) for node in ast.walk(fn)}
    return not any(name == fn.name and id(node) not in own for node, name in reads)


def orphaned_public_methods(sources: dict[str, str], readers: list[str]) -> list[str]:
    """``module.Class.method`` for each public method of a class in the
    sources whose name no attribute (``x.name``) outside its own body reads,
    in the sources or in the readers.  It matches names only, so a method
    that shares its name with a live one (``parse``, ``zero``) passes."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    reads = _reads([*trees.values(), *map(ast.parse, readers)], ast.Attribute)
    return [f"{module}.{cls.name}.{fn.name} (line {fn.lineno})"
            for module, tree in sorted(trees.items())
            for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for fn in cls.body
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not fn.name.startswith("_") and _unread(fn, reads)]


# the PEP 562 hooks of ``__init__.py``, which the import system calls
_MODULE_HOOKS = {"__getattr__", "__dir__"}


def orphaned_functions(sources: dict[str, str], readers: list[str]) -> list[str]:
    """``module.function`` for each module-level function of the sources
    whose name no plain name or attribute outside its own body reads, in the
    sources or in the readers; ``__all__`` entries are strings, not reads."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    reads = _reads([*trees.values(), *map(ast.parse, readers)], (ast.Name, ast.Attribute))
    return [f"{module}.{fn.name} (line {fn.lineno})"
            for module, tree in sorted(trees.items()) for fn in tree.body
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            and fn.name not in _MODULE_HOOKS and _unread(fn, reads)]


def test_guard_finds_an_orphaned_public_method():
    sources = {
        "a": ("class P:\n"
              "    def used(self):\n        return self.own\n"
              "    def own(self):\n        return 1\n"
              "    def recursive(self):\n        return self.recursive()\n"
              "    def left(self):\n        return 2\n"
              "    def shown(self):\n        return 3\n"
              "    def _private(self):\n        return 4\n"
              "    def __eq__(self, other):\n        return True\n"),
        "b": "from .a import P\nx = P().used()\n",
    }
    demo = "from pyjama.a import P\nprint(P().shown())\n"
    assert orphaned_public_methods(sources, [demo]) == [
        "a.P.recursive (line 6)", "a.P.left (line 8)"]


def test_guard_finds_an_orphaned_function():
    sources = {
        "a": ("__all__ = ['exported']\n"
              "def used():\n    return 1\n"
              "def recursive():\n    return recursive()\n"
              "def exported():\n    return 2\n"
              "def shown():\n    return 3\n"
              "def __getattr__(name):\n    raise AttributeError(name)\n"
              "class P:\n    def method(self):\n        return used()\n"),
        "b": "from . import a\nx = a.P().method\n",
    }
    demo = "from pyjama import a\nprint(a.shown())\n"
    assert orphaned_functions(sources, [demo]) == [
        "a.recursive (line 4)", "a.exported (line 6)"]


# ConvexPolygon waits for ROADMAP item 6, which retires it together with
# CoverReport.uncovered; until then the benchmark's self-check builds it
_KEPT_CLASSES = {"ConvexPolygon"}


def _sources_and_readers() -> tuple[dict[str, str], list[str]]:
    """The package's modules, and the demos and acceptance tests that read it."""
    root = SRC.parents[1]
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    readers = [path.read_text() for path in sorted((root / "demos").glob("*.py"))]
    readers.append((root / "tests" / "test_acceptance.py").read_text())
    return sources, readers


def test_no_orphaned_public_methods():
    """Every public method serves a command, a demo or an acceptance
    criterion: some module of the package, a demo or the acceptance tests
    reads its name."""
    found = [name for name in orphaned_public_methods(*_sources_and_readers())
             if name.split(".")[1] not in _KEPT_CLASSES]
    assert found == []


def test_no_orphaned_functions():
    """Every module-level function serves a command, a demo or an acceptance
    criterion, as every public method does."""
    assert orphaned_functions(*_sources_and_readers()) == []


def importers(module: str) -> list[str]:
    """The source modules, ``__init__.py`` included, that import the module
    anywhere, inside a function as well as at the top."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            if any(name.split(".")[0] == module for name in names):
                found.append(path.name)
                break
    return found


def test_only_the_disk_cover_imports_numpy():
    # every command but irrational-cover starts without numpy's import
    assert importers("numpy") == ["disk.py"]


def test_no_module_imports_configparser_or_csv():
    # the CLI reads configs and writes CSV rows itself; the standard
    # library's parser and writer are the oracles of its tests
    assert importers("configparser") == importers("csv") == []


def _sloc() -> types.ModuleType:
    spec = importlib.util.spec_from_file_location("sloc", SRC.parents[1] / "scripts" / "sloc.py")
    sloc = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sloc)
    return sloc


def compile_peaks() -> dict[str, int]:
    """The ``tracemalloc`` peak in bytes of ``compile()`` of each source
    module, as ``scripts/sloc.py`` reads it."""
    sloc = _sloc()
    return {path.name: sloc.compile_peak(path.read_text(), path)
            for path in sorted(SRC.glob("*.py"))}


def test_every_module_is_below_the_token_step():
    # Python 3.11's parser doubles its token array as it fills it, so
    # compiling a module of 4,096 or more parser tokens (scripts/sloc.py's
    # count) peaks about 0.23 MiB higher, which an import without cached
    # bytecode pays: padded copies of cli.py read 1,610 KiB at 4,093 tokens
    # and 1,843 KiB at 4,101
    sloc = _sloc()
    tokens = {path.name: sloc.parser_tokens(path.read_text()) for path in SRC.glob("*.py")}
    assert {name: n for name, n in tokens.items() if n >= 4_096} == {}


def test_covering_compiles_below_the_memory_step():
    # covering.py (3,915 tokens) and cli.py (4,065) are the modules nearest
    # the 4,096-token step; below it covering.py peaks under cli.py, at
    # about 1,400 KiB, and past it would read well over 1,600 KiB, as cli.py
    # read 1,843 KiB at 4,101 tokens
    peaks = compile_peaks()
    assert peaks["covering.py"] <= peaks["cli.py"], peaks
    assert peaks["covering.py"] <= 1_600 * 1024, peaks


def unresolved_exports(module: types.ModuleType) -> list[str]:
    """The module's ``__all__`` entries that it does not define."""
    return [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]


def test_guard_finds_a_stale_export():
    planted = types.ModuleType("planted")
    planted.kept = 1
    planted.__all__ = ["kept", "removed"]
    assert unresolved_exports(planted) == ["removed"]


@pytest.mark.parametrize("module", MODULES)
def test_every_export_resolves(module):
    assert unresolved_exports(importlib.import_module(f"pyjama.{module[:-3]}")) == []


def test_package_names_are_in_their_home_all():
    # the tracer and ``from pyjama.<home> import *`` both read ``__all__``
    import pyjama

    for home, names in pyjama._EXPORTS.items():
        exported = importlib.import_module(f"pyjama.{home}").__all__
        assert [name for name in names if name not in exported] == [], home


# the public names of ``import pyjama``: a name may move to another module,
# but it stays in the package namespace
SUBMODULES = {"approx", "covering", "gaussian", "padic", "polygon", "solenoid", "svg"}
PACKAGE_NAMES = SUBMODULES | {
    "ConvexPolygon", "CosetSpec", "CoverReport", "CoveringConfig", "DensityReport",
    "ExactPoint", "GaussianInt", "GaussianRational", "P13", "P13BAR", "P5", "P5BAR",
    "PadicNumber", "PointClassification", "PrecisionError", "PrimeSite",
    "RationalityReport", "SITES", "THETA13", "THETA5",
    "TorsionUnitError", "abs_at", "act", "as_gaussian_rational", "circle_density",
    "classify_point", "closure_index", "coset_element", "embed", "evaluate",
    "gauss_frac_part", "in_A", "obstruction_catalog", "orbit_eval_rows",
    "orbit_eval_sweep", "period_exponent", "periodic_dense_set", "rationality_check",
    "render_svg", "semigroup_density", "snap_to_lattice", "sqrt_neg1",
    "stripe_membership", "strong_approx", "strong_approx_3way", "theta_power",
    "theta_set", "uncovered_region", "unit_circle_elements", "valuation",
    "verify_obstruction",
}


def test_package_namespace_is_lazy_and_complete():
    import pyjama

    public = {name for name in dir(pyjama) if not name.startswith("_")}
    assert public == PACKAGE_NAMES == set(pyjama.__all__) | SUBMODULES
    for home, names in pyjama._EXPORTS.items():
        module = importlib.import_module(f"pyjama.{home}")
        assert getattr(pyjama, home) is module
        for name in names:
            value = getattr(module, name)
            assert getattr(pyjama, name) is value
            if isinstance(value, (type, types.FunctionType)):
                assert value.__module__ == module.__name__  # listed where it is defined
            # resolved anew on every read, so a patched name is never left here
            assert name not in vars(pyjama)
    namespace = {}
    exec("from pyjama import *", namespace)
    assert set(namespace) - {"__builtins__"} == PACKAGE_NAMES
    with pytest.raises(AttributeError, match="no attribute 'disk_cover_scan'"):
        pyjama.disk_cover_scan


def test_error_names_load_only_gaussian():
    # the package's errors are defined in gaussian, so reading them from the
    # package namespace loads no module that only re-exports them
    script = ("import sys, pyjama; pyjama.PrecisionError; pyjama.TorsionUnitError; "
              "print(sorted(m for m in sys.modules if m.split('.')[0] == 'pyjama'))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC.parent),
                                                       os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "['pyjama', 'pyjama.gaussian']\n"


def class_dunders(source: str, name: str) -> set[str]:
    """The dunder methods that class ``name`` of the source defines in its
    body, by ``def`` or by aliasing another method (``__radd__ = __add__``);
    what a dataclass generates is not listed."""
    cls = next(node for node in ast.walk(ast.parse(source))
               if isinstance(node, ast.ClassDef) and node.name == name)
    names = {stmt.name for stmt in cls.body if isinstance(stmt, ast.FunctionDef)}
    names.update(target.id for stmt in cls.body
                 if isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Name)
                 for target in stmt.targets if isinstance(target, ast.Name))
    return {n for n in names if n.startswith("__") and n.endswith("__")}


def test_guard_finds_a_class_dunder():
    source = ("class A:\n    __slots__ = ('x',)\n    def __add__(self, o):\n        return o\n"
              "    __radd__ = __add__\n    def norm(self):\n        return 1\n"
              "class B:\n    def __sub__(self, o):\n        return o\n")
    assert class_dunders(source, "A") == {"__add__", "__radd__"}


# The operators of the exact scalars.  A command, a demo or an acceptance
# test enters each one here but one that ``scripts/reachable.py`` still
# lists: the immutability guard ``GaussianRational.__setattr__``.  An
# operator joins a set only after reachable.py shows that one of those enters
# it, and one that leaves its class leaves its set.
SCALAR_DUNDERS = {
    ("gaussian.py", "GaussianInt"): {
        "__add__", "__bool__", "__mod__", "__mul__", "__pow__", "__radd__", "__rmul__",
        "__str__"},
    ("gaussian.py", "GaussianRational"): {
        "__abs__", "__add__", "__bool__", "__complex__", "__eq__", "__hash__", "__init__",
        "__mul__", "__neg__", "__pow__", "__radd__", "__repr__", "__rmul__",
        "__setattr__", "__str__", "__sub__", "__truediv__"},
    ("padic.py", "PadicNumber"): {"__mul__", "__post_init__"},
}


@pytest.mark.parametrize("module, name", sorted(SCALAR_DUNDERS))
def test_exact_scalar_operators_are_pinned(module, name):
    assert class_dunders((SRC / module).read_text(), name) == SCALAR_DUNDERS[module, name]
