"""``scripts/reachable.py`` on a planted checkout: one demo and the three
test files it runs, over a package with a known never-entered function and
known never-run statements."""

import importlib.util
import textwrap
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "reachable.py"
_spec = importlib.util.spec_from_file_location("reachable", _SCRIPT)
reachable = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reachable)

PLANTED = '''\
def used(flag):
    """Only the plain mode runs."""
    global SEEN
    if flag:
        return "mode"
    if flag is None:
        raise ValueError("no flag")
    try:
        value = (
            "plain")
    except ValueError:
        value = "never"
    return value


def unused():
    return 1
'''


def _write(path, text):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(text))


def test_planted_modes_are_listed(tmp_path, capsys):
    _write(tmp_path / "src" / "pyjama" / "__init__.py", "")
    _write(tmp_path / "src" / "pyjama" / "planted.py", PLANTED)
    _write(tmp_path / "demos" / "demo.py", """\
        from pyjama.planted import used
        assert used(False) == "plain"
    """)
    for name in reachable.TESTS:
        _write(tmp_path / "tests" / name, "def test_nothing():\n    pass\n")
    assert reachable.main(["reachable.py", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "planted.py:16  unused  2",
        "total: 1 of 2 functions never entered, 2 lines",
        'planted.py:5  used  return "mode"',
        'planted.py:12  used  value = "never"',
        "total: 2 statements never ran in the 1 functions entered",
    ]
