"""Count the source lines of each module of a Python package directory.

    python3 scripts/sloc.py [SRC]

SRC defaults to ``src/pyjama``.  For each ``*.py`` file it prints the
``wc -l`` count (every line), the code-line count (the lines that carry a
token of code, so blank lines, comments and docstrings, any string that
stands alone as a statement, are not counted), the number of nodes in its
``ast`` tree, and the peak memory in KiB that ``compile()`` of the file
takes, as ``tracemalloc`` reads it.  That peak is what an import pays when
no bytecode is cached.  The last row holds the totals of the four columns.
"""

import ast
import io
import sys
import tokenize
import tracemalloc
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            docstrings.update(range(node.lineno, node.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def ast_nodes(source: str) -> int:
    return sum(1 for _ in ast.walk(ast.parse(source)))


def compile_peak(source: str, path: Path) -> int:
    """The peak traced memory, in bytes, of ``compile()`` of the source."""
    tracemalloc.start()
    try:
        compile(source, str(path), "exec")
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def main(argv: list[str]) -> None:
    src = Path(argv[1]) if len(argv) > 1 else \
        Path(__file__).resolve().parents[1] / "src" / "pyjama"
    rows = []
    for path in sorted(src.glob("*.py")):
        source = path.read_text()
        rows.append((path.name, source.count("\n"), code_lines(source), ast_nodes(source),
                     compile_peak(source, path)))
    rows.append(("total", *(sum(r[i] for r in rows) for i in (1, 2, 3, 4))))
    width = max(len(r[0]) for r in rows)
    print(f"{'module':{width}}  {'lines':>6}  {'code':>6}  {'nodes':>6}  {'KiB':>6}")
    for name, lines, code, nodes, peak in rows:
        print(f"{name:{width}}  {lines:>6}  {code:>6}  {nodes:>6}  {peak / 1024:>6.0f}")


if __name__ == "__main__":
    main(sys.argv)
