"""Record the expected outputs of every catalog config.

    python3 perfbench/record.py

Runs each config of every workload's catalogs, and each warm-up config,
once, checks it with the oracles of ``checks.py``, and writes its exit
code, pinned report digest and pinned verdict fields to
``perfbench/expected.json``.  Re-run it only when a change to pyjama is
meant to change those bytes or verdicts, and say so in the change.
"""

from __future__ import annotations

import json
import shutil
import sys
import time

from run import HERE, ROOT, collect, import_cli, run_job
from workloads import WORKLOADS, catalog, warmup_jobs

import checks


def main() -> int:
    cli = import_cli()
    work = ROOT / ".perfbench" / "record"
    shutil.rmtree(work, ignore_errors=True)
    (work / "ini").mkdir(parents=True)
    expected, problems = {}, 0
    jobs = []
    for workload in WORKLOADS:
        jobs += warmup_jobs(workload)
        for cards in catalog(workload).values():
            jobs += cards
    for i, job in enumerate(jobs):
        if job.command == "approx" or job.key in expected:
            continue
        ini = work / "ini" / f"{job.key}.ini"
        ini.write_text(job.ini, encoding="utf-8")
        t0 = time.perf_counter()
        outcome = collect(run_job(cli, job, ini, work / "out" / str(i)))
        expected[job.key] = checks.expectation(job, outcome)
        reason = checks.check(job, outcome, expected[job.key])
        print(f"{time.perf_counter() - t0:7.3f}s {job.cls:15} {job.key} "
              f"{reason or 'ok'}", flush=True)
        problems += reason is not None
    shutil.rmtree(work, ignore_errors=True)
    (HERE / "expected.json").write_text(json.dumps(expected, indent=0,
                                                   sort_keys=True) + "\n")
    print(f"{len(expected)} configs recorded, {problems} failed their checks")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
