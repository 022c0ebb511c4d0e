"""Every cover-build catalog job of the benchmark writes the report bytes
recorded in ``perfbench/expected.json``: each job runs through
``pyjama.cli.main`` in this process, and its exit code and the sha256 (first
16 hex digits) of its ``report.txt`` must match the recorded entry.  The
benchmark's files are only read."""

import contextlib
import hashlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

from pyjama import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


JOBS = [job for _, jobs in sorted(_load_workloads().catalog("cover-build").items()) for job in jobs]
EXPECTED = json.loads((PERFBENCH / "expected.json").read_text())


def test_catalog_has_every_cover_build_job():
    assert len(JOBS) == 64
    assert all(job.key in EXPECTED and "digest" in EXPECTED[job.key] for job in JOBS)


@pytest.mark.parametrize("job", JOBS, ids=lambda job: f"{job.cls}-{job.key}")
def test_cover_build_report_bytes(job, tmp_path):
    ini, out = tmp_path / "job.ini", tmp_path / "out"
    ini.write_text(job.ini)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([job.command, "--config", str(ini), "--out", str(out), *job.flags])
    digest = hashlib.sha256((out / "report.txt").read_bytes()).hexdigest()[:16]
    assert (code, digest) == (EXPECTED[job.key]["exit"], EXPECTED[job.key]["digest"])
