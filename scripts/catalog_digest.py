"""Digest the outputs of every cover-query catalog job.

Runs each job of ``perfbench/workloads.catalog("cover-query")`` through
``pyjama.cli.main`` in this process and prints one line per job: class, job
key, exit code, and the sha256 (first 16 hex digits) of ``report.txt`` and
of ``cover.svg`` ("-" when a file is not written).  Run it on two checkouts
and diff the outputs to check that a change keeps every byte:

    python3 scripts/catalog_digest.py OLD/src > old.txt
    python3 scripts/catalog_digest.py src > new.txt
    diff old.txt new.txt
"""

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

sys.path[:0] = [sys.argv[1], str(Path(__file__).resolve().parents[1] / "perfbench")]

from pyjama import cli  # noqa: E402
import workloads  # noqa: E402

for cls, jobs in sorted(workloads.catalog("cover-query").items()):
    for job in jobs:
        with tempfile.TemporaryDirectory() as tmp:
            ini, out = Path(tmp) / "job.ini", Path(tmp) / "out"
            ini.write_text(job.ini)
            argv = [job.command, "--config", str(ini), "--out", str(out), *job.flags]
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            digests = [
                hashlib.sha256((out / name).read_bytes()).hexdigest()[:16]
                if (out / name).exists() else "-"
                for name in ("report.txt", "cover.svg")
            ]
            print(cls, job.key, code, *digests, flush=True)
