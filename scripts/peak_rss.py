"""Run one ``pyjama`` CLI command in a fresh process and report its peak
resident memory and wall time.

    python3 scripts/peak_rss.py COMMAND --config PATH [--out DIR] [FLAGS...]

The arguments are those of the ``pyjama`` CLI.  The command runs as
``python -m pyjama.cli ARGS`` with this checkout's ``src`` first on
``PYTHONPATH``; its stdout and stderr pass through.  Then one line follows
on stdout: ``peak_rss_mib=`` (the child's ``ru_maxrss``, in MiB),
``wall_s=`` (from start to exit, interpreter start-up included) and
``exit=``, and the script exits with the command's exit code.
"""

import os
import resource
import subprocess
import sys
import time
from pathlib import Path


def main(argv: list[str]) -> int:
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    start = time.perf_counter()
    code = subprocess.run([sys.executable, "-m", "pyjama.cli", *argv], env=env).returncode
    wall = time.perf_counter() - start
    peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss  # KiB on Linux
    print(f"peak_rss_mib={peak_kib / 1024:.1f} wall_s={wall:.3f} exit={code}")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
