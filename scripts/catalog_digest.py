"""Digest the outputs of every catalog job of one benchmark workload.

Runs each job of ``perfbench/workloads.catalog(WORKLOAD)`` through
``pyjama.cli.main`` in this process; on adelic-scan, whose approximation
jobs draw their targets from the schedule, it runs those of the first round
of the fixed schedule seed 0 as well.  It prints one line per job: class,
job key, exit code (or the name of the exception that escaped), and the
sha256 (first 16 hex digits) of every artifact a job can write:
``report.txt``, ``cover.svg``, ``orbit.csv`` and ``density.csv`` ("-" when a
file is not written), then of the stdout summary line without its
``report=`` field and of stderr (job directory paths replaced by a fixed
name), so it covers what a CLI user sees.  Run it on two checkouts and diff
the outputs to check that a change keeps every byte:

    python3 scripts/catalog_digest.py OLD/src adelic-scan > old.txt
    python3 scripts/catalog_digest.py src adelic-scan > new.txt
    diff old.txt new.txt

WORKLOAD defaults to cover-query.
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

ARTIFACTS = ("report.txt", "cover.svg", "orbit.csv", "density.csv")
SCHEDULE_SEED = 0

workload = sys.argv[2] if len(sys.argv) > 2 else "cover-query"
jobs = [job for _, cls_jobs in sorted(workloads.catalog(workload).items())
        for job in cls_jobs]
jobs += [job for job in workloads.schedule(workload, SCHEDULE_SEED, 1)[0]
         if job.cls.startswith("approx")]

for job in jobs:
    with tempfile.TemporaryDirectory() as tmp:
        ini, out = Path(tmp) / "job.ini", Path(tmp) / "out"
        ini.write_text(job.ini)
        argv = [job.command, "--config", str(ini), "--out", str(out), *job.flags]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = cli.main(argv)
            except Exception as exc:  # its name stands in for the exit code; the next job runs
                code = type(exc).__name__
        summary = " ".join(part for part in stdout.getvalue().split()
                           if not part.startswith("report="))
        streams = [text.replace(tmp, "TMP").encode()
                   for text in (summary, stderr.getvalue())]
        digests = [
            hashlib.sha256((out / name).read_bytes()).hexdigest()[:16]
            if (out / name).exists() else "-"
            for name in ARTIFACTS
        ] + [hashlib.sha256(data).hexdigest()[:16] for data in streams]
        print(job.cls, job.key, code, *digests, flush=True)
