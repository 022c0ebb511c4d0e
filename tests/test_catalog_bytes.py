"""Every cover-build catalog job of the benchmark writes the report bytes
recorded in ``perfbench/expected.json``, and every adelic-scan disk job
(``irrational-cover``, whose verdict alone is recorded there) writes the
report bytes pinned below: each job runs through ``pyjama.cli.main`` in this
process, and its exit code and the sha256 (first 16 hex digits) of its
``report.txt`` must match.  The benchmark's files are only read."""

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


WORKLOADS = _load_workloads()
JOBS = [job for _, jobs in sorted(WORKLOADS.catalog("cover-build").items()) for job in jobs]
DISK_JOBS = WORKLOADS.catalog("adelic-scan")["disk"]
EXPECTED = json.loads((PERFBENCH / "expected.json").read_text())
# report.txt digests of the disk jobs, from scripts/catalog_digest.py
DISK_DIGESTS = {
    "0e88c49a8c4b6244": "fcf492729c693aee",
    "2fb7081c516db00d": "56315d6a8b46cc1f",
    "f6f647bde6619770": "91cbe44883cfd956",
}


def _run(job, tmp_path):
    """The exit code and report digest of one job."""
    ini, out = tmp_path / "job.ini", tmp_path / "out"
    ini.write_text(job.ini)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([job.command, "--config", str(ini), "--out", str(out), *job.flags])
    return code, hashlib.sha256((out / "report.txt").read_bytes()).hexdigest()[:16]


def test_catalog_has_every_cover_build_job():
    assert len(JOBS) == 64
    assert all(job.key in EXPECTED and "digest" in EXPECTED[job.key] for job in JOBS)


@pytest.mark.parametrize("job", JOBS, ids=lambda job: f"{job.cls}-{job.key}")
def test_cover_build_report_bytes(job, tmp_path):
    assert _run(job, tmp_path) == (EXPECTED[job.key]["exit"], EXPECTED[job.key]["digest"])


def test_catalog_has_every_disk_job():
    assert sorted(job.key for job in DISK_JOBS) == sorted(DISK_DIGESTS)


@pytest.mark.parametrize("job", DISK_JOBS, ids=lambda job: f"{job.cls}-{job.key}")
def test_disk_report_bytes(job, tmp_path):
    assert _run(job, tmp_path) == (EXPECTED[job.key]["exit"], DISK_DIGESTS[job.key])
