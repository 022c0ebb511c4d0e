"""Self-check of the benchmark harness.

A tiny run of each workload (its warm-up jobs: one cheap job of each kind)
goes once untraced and once traced.  Both must give identical outputs, the
outputs must pass their checks, and tracing must leave no wrapper behind.

    python3 -m pytest -q perfbench/tests
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, warmup_jobs  # noqa: E402


def _run_all(cli, jobs, tmp_path, tag):
    outcomes = []
    for i, job in enumerate(jobs):
        ini = tmp_path / f"{job.key}.ini"
        ini.write_text(job.ini, encoding="utf-8")
        outcomes.append(run.collect(run.run_job(cli, job, ini, tmp_path / tag / str(i))))
    return outcomes


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tracing_changes_no_output_and_leaves_no_wrapper(workload, tmp_path):
    cli = run.import_cli()
    import pyjama.covering
    import pyjama.polygon

    originals = (pyjama.covering.uncovered_region, cli.uncovered_region,
                 pyjama.polygon.ConvexPolygon.__dict__["__init__"])
    jobs = warmup_jobs(workload)
    plain = _run_all(cli, jobs, tmp_path, "plain")

    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.uncovered_region is not originals[1]
        traced = _run_all(cli, jobs, tmp_path, "traced")
    finally:
        tracer.uninstall()

    assert tracing.leftover_wrappers() == []
    assert (pyjama.covering.uncovered_region, cli.uncovered_region,
            pyjama.polygon.ConvexPolygon.__dict__["__init__"]) == originals
    assert len(tracer.start) > 0 and tracer.summary()["cli.main"]["calls"] == len(jobs)
    assert [run.output_digest(o) for o in traced] == \
        [run.output_digest(o) for o in plain]
    expected = json.loads((run.HERE / "expected.json").read_text())
    for job, outcome in zip(jobs, plain):
        assert checks.check(job, outcome, expected.get(job.key)) is None, job.cls
