"""List the functions of ``src/pyjama`` that no demo, command test or
acceptance criterion enters.

    python3 scripts/reachable.py [ROOT]

ROOT is the checkout to check; it defaults to the one that holds this
script.  In a temporary working directory it runs, one process each, every
script in ``ROOT/demos`` and then pytest on ``tests/test_acceptance.py``,
``tests/test_cli.py`` and ``tests/test_catalog_bytes.py``.  Each Python
process they start, a CLI subprocess of a test as well, first imports a
``sitecustomize`` module from the temporary directory.  It installs a
``sys.setprofile`` hook that records the code object of every Python call,
and at exit it writes down the calls into ``ROOT/src/pyjama``.

It then prints every function and method that ``ast`` finds in
``ROOT/src/pyjama`` and that no process entered, one line each: the module
and the line of its ``def`` (or of its first decorator), its qualified
name and its line count.  The last line holds the totals.  A function is
matched by its module and first line, so the functions that a dataclass
generates, lambdas and comprehensions are not listed.

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

_seen = set()


def _profile(frame, event, arg):
    if event == "call":
        _seen.add(frame.f_code)


@atexit.register
def _write():
    sys.setprofile(None)
    src = os.environ["REACHABLE_SRC"]
    rows = {(os.path.basename(code.co_filename), code.co_firstlineno)
            for code in _seen if os.path.dirname(code.co_filename) == src}
    path = os.path.join(os.environ["REACHABLE_OUT"], f"{os.getpid()}.txt")
    with open(path, "w") as out:
        out.writelines(f"{name} {line}\\n" for name, line in rows)


sys.setprofile(_profile)
threading.setprofile(_profile)
'''


def defined_functions(src: Path) -> dict[tuple[str, int], tuple[str, int]]:
    """(module, first line) -> (qualified name, line count) for every
    function and method defined in the package directory."""
    found = {}

    def visit(module: str, parent: ast.AST, prefix: str) -> None:
        for node in ast.iter_child_nodes(parent):
            if isinstance(node, ast.ClassDef):
                visit(module, node, f"{prefix}{node.name}.")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                found[module, first] = (f"{prefix}{node.name}",
                                        node.end_lineno - first + 1)
                visit(module, node, f"{prefix}{node.name}.<locals>.")
            else:
                visit(module, node, prefix)

    for path in sorted(src.glob("*.py")):
        visit(path.name, ast.parse(path.read_text()), "")
    return found


def run_all(root: Path, tmp: Path) -> tuple[set[tuple[str, int]], list[str]]:
    """Run the demos and the tests under the hook in ``tmp``; return the
    (module, first line) pairs entered and the runs that failed."""
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
    entered = set()
    for path in out.iterdir():
        for row in path.read_text().splitlines():
            name, line = row.split()
            entered.add((name, int(line)))
    return entered, failed


def main(argv: list[str]) -> int:
    root = Path(argv[1]).resolve() if len(argv) > 1 else Path(__file__).resolve().parents[1]
    defined = defined_functions(root / "src" / "pyjama")
    with tempfile.TemporaryDirectory() as tmp:
        entered, failed = run_all(root, Path(tmp))
    missed = sorted(set(defined) - entered)
    for module, line in missed:
        name, count = defined[module, line]
        print(f"{module}:{line}  {name}  {count}")
    print(f"total: {len(missed)} of {len(defined)} functions never entered, "
          f"{sum(defined[key][1] for key in missed)} lines")
    for failure in failed:
        print(failure, file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
