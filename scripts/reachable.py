"""List the functions of ``src/pyjama`` that no demo, command test or
acceptance criterion enters, and the statements that never run inside the
functions that they do enter.

    python3 scripts/reachable.py [ROOT]

ROOT is the checkout to check; it defaults to the one that holds this
script.  In a temporary working directory it runs, one process each, every
script in ``ROOT/demos`` and then pytest on ``tests/test_acceptance.py``,
``tests/test_cli.py`` and ``tests/test_catalog_bytes.py``.  Each Python
process they start, a CLI subprocess of a test as well, first imports a
``sitecustomize`` module from the temporary directory.  It installs a
``sys.settrace`` hook that records every call into ``ROOT/src/pyjama`` and
every line run there, and at exit it writes them down.

It then prints every function and method that ``ast`` finds in
``ROOT/src/pyjama`` and that no process entered, one line each: the module
and the line of its ``def`` (or of its first decorator), its qualified
name and its line count, followed by a totals line.  A function is matched
by its module and first line, so the functions that a dataclass generates,
lambdas and comprehensions are not listed.

After that it prints every statement that never ran inside a function that
was entered, one line each: the module and line, the function's qualified
name and the statement's first source line, followed by a totals line.  A
function's statements are those of its body and of the blocks nested in it,
not those of a nested function or class, which is listed on its own.  A
``raise`` statement, the docstring and ``global`` and ``nonlocal`` (which
run no code) are left out.  A simple statement ran when any of its lines
ran; a compound one (``if``, ``for``, ``try``, ...) when its header line
ran or any statement nested in it did.

Nothing is written into the checkout: the runs start in the temporary
directory with ``PYTHONDONTWRITEBYTECODE=1`` and pytest's cache plugin off.
The script exits 1 if a run fails, after printing the list.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import tempfile
from pathlib import Path

TESTS = ("test_acceptance.py", "test_cli.py", "test_catalog_bytes.py")

# installed as sitecustomize.py; REACHABLE_SRC and REACHABLE_OUT name the
# package directory and the directory that collects one file per process
HOOK = '''\
import atexit, os, sys, threading

_src = os.environ["REACHABLE_SRC"]
_inside = {}  # file name -> whether it lies in the package directory
_seen = set()  # code objects entered
_lines = set()  # (file name, line) run


def _line(frame, event, arg):
    if event == "line":
        _lines.add((frame.f_code.co_filename, frame.f_lineno))
    return _line


def _call(frame, event, arg):
    code = frame.f_code
    name = code.co_filename
    inside = _inside.get(name)
    if inside is None:
        inside = _inside[name] = os.path.dirname(name) == _src
    if not inside:
        return None
    _seen.add(code)
    return _line


@atexit.register
def _write():
    sys.settrace(None)
    rows = {("call", os.path.basename(code.co_filename), code.co_firstlineno)
            for code in _seen}
    rows |= {("line", os.path.basename(name), line) for name, line in _lines}
    path = os.path.join(os.environ["REACHABLE_OUT"], f"{os.getpid()}.txt")
    with open(path, "w") as out:
        out.writelines(f"{kind} {name} {line}\\n" for kind, name, line in rows)


sys.settrace(_call)
threading.settrace(_call)
'''

# statements that run no code of their own
SILENT = (ast.Raise, ast.Global, ast.Nonlocal)
NESTED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _first_line(node: ast.AST) -> int:
    """The line of a statement, or of its first decorator."""
    return min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])


def _line_count(node: ast.AST) -> int:
    return node.end_lineno - _first_line(node) + 1


def defined_functions(src: Path) -> dict[tuple[str, int], tuple[str, ast.AST]]:
    """(module, first line) -> (qualified name, node) for every function and
    method defined in the package directory."""
    found = {}

    def visit(module: str, parent: ast.AST, prefix: str) -> None:
        for node in ast.iter_child_nodes(parent):
            if isinstance(node, ast.ClassDef):
                visit(module, node, f"{prefix}{node.name}.")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found[module, _first_line(node)] = (f"{prefix}{node.name}", node)
                visit(module, node, f"{prefix}{node.name}.<locals>.")
            else:
                visit(module, node, prefix)

    for path in sorted(src.glob("*.py")):
        visit(path.name, ast.parse(path.read_text()), "")
    return found


def _inner(stmt: ast.stmt) -> list[ast.stmt]:
    """The statements nested directly in a compound statement, in source
    order of their blocks; none for a nested function or class."""
    if isinstance(stmt, NESTED):
        return []
    inner = []
    for field in ("body", "handlers", "cases", "orelse", "finalbody"):
        for child in getattr(stmt, field, ()):
            inner += child.body if isinstance(child, (ast.ExceptHandler, ast.match_case)) \
                else [child]
    return inner


def unrun_statements(func: ast.AST, module: str, ran: set[tuple[str, int]]) -> list[ast.stmt]:
    """The statements of ``func``'s own body that never ran, in source order."""
    body = func.body if ast.get_docstring(func) is None else func.body[1:]
    missed = []

    def visit(stmts: list[ast.stmt]) -> bool:
        """Collect the statements that never ran; whether any of them ran."""
        any_ran = False
        for stmt in stmts:
            inner = _inner(stmt)
            first = _first_line(stmt)
            last = max(first, inner[0].lineno - 1) if inner else stmt.end_lineno
            this_ran = visit(inner)
            this_ran |= any((module, line) in ran for line in range(first, last + 1))
            if not this_ran and not isinstance(stmt, SILENT):
                missed.append(stmt)
            any_ran |= this_ran
        return any_ran

    visit(body)
    return sorted(missed, key=lambda stmt: stmt.lineno)


def run_all(root: Path, tmp: Path) -> tuple[set[tuple[str, int]], set[tuple[str, int]],
                                             list[str]]:
    """Run the demos and the tests under the hook in ``tmp``; return the
    (module, first line) pairs of the functions entered, the (module, line)
    pairs of the lines run and the runs that failed."""
    hook, out = tmp / "hook", tmp / "calls"
    hook.mkdir()
    out.mkdir()
    (hook / "sitecustomize.py").write_text(HOOK)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               REACHABLE_SRC=str(root / "src" / "pyjama"), REACHABLE_OUT=str(out),
               PYTHONPATH=os.pathsep.join([str(hook), str(root / "src")]))
    runs = [[str(demo)] for demo in sorted((root / "demos").glob("*.py"))]
    runs.append(["-m", "pytest", "-q", "-p", "no:cacheprovider",
                 *(str(root / "tests" / name) for name in TESTS)])
    failed = []
    for i, args in enumerate(runs):
        cwd = tmp / f"run{i}"
        cwd.mkdir()
        done = subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                              capture_output=True, text=True)
        if done.returncode:
            failed.append(f"{' '.join(args)} exited {done.returncode}:\n"
                          f"{done.stdout[-2000:]}{done.stderr[-2000:]}")
    entered, ran = set(), set()
    for path in out.iterdir():
        for row in path.read_text().splitlines():
            kind, name, line = row.split()
            (entered if kind == "call" else ran).add((name, int(line)))
    return entered, ran, failed


def main(argv: list[str]) -> int:
    root = Path(argv[1]).resolve() if len(argv) > 1 else Path(__file__).resolve().parents[1]
    src = root / "src" / "pyjama"
    defined = defined_functions(src)
    with tempfile.TemporaryDirectory() as tmp:
        entered, ran, failed = run_all(root, Path(tmp))
    missed = sorted(set(defined) - entered)
    for module, line in missed:
        name, node = defined[module, line]
        print(f"{module}:{line}  {name}  {_line_count(node)}")
    print(f"total: {len(missed)} of {len(defined)} functions never entered, "
          f"{sum(_line_count(defined[key][1]) for key in missed)} lines")
    sources = {path.name: path.read_text().splitlines() for path in src.glob("*.py")}
    reached = sorted(set(defined) & entered)
    unrun = 0
    for module, line in reached:
        name, node = defined[module, line]
        for stmt in unrun_statements(node, module, ran):
            print(f"{module}:{stmt.lineno}  {name}  {sources[module][stmt.lineno - 1].strip()}")
            unrun += 1
    print(f"total: {unrun} statements never ran in the {len(reached)} functions entered")
    for failure in failed:
        print(failure, file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
