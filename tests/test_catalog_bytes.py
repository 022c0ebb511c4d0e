"""Every cover-build and cover-query catalog job of the benchmark writes
the report bytes recorded in ``perfbench/expected.json``, and every
adelic-scan disk job (``irrational-cover``, whose verdict alone is recorded
there), one longer disk scan and every approximation job of the first round
of schedule seed 0 (which the benchmark checks only with oracles) writes the
report bytes pinned below, as every adelic-scan orbit job does its
``report.txt`` and ``orbit.csv`` bytes, every density job its
``report.txt`` and ``density.csv`` bytes, and every classify and
closure-index job its ``report.txt`` bytes: each job runs through
``pyjama.cli.main`` in this process, and its exit code and the sha256
(first 16 hex digits) of those files must match.  The benchmark's files
are only read."""

import contextlib
import hashlib
import importlib.util
import io
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from pyjama import cli, disk
from pyjama.disk import theta_prime
from pyjama.gaussian import GaussianRational

from _util import theta_prime_forms, uncovered_oracle

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load_workloads()
JOBS = [job for _, jobs in sorted(WORKLOADS.catalog("cover-build").items()) for job in jobs]
QUERY_JOBS = [job for _, jobs in sorted(WORKLOADS.catalog("cover-query").items()) for job in jobs]
DISK_JOBS = WORKLOADS.catalog("adelic-scan")["disk"]
EXPECTED = json.loads((PERFBENCH / "expected.json").read_text())
# report.txt digests of the disk jobs, from scripts/catalog_digest.py; their
# non-certified scan rows name a witness or "none"
DISK_DIGESTS = {
    "0e88c49a8c4b6244": "9be5279901604b0c",
    "2fb7081c516db00d": "c818e69c33a3ed5c",
    "f6f647bde6619770": "1cbc68bed636bf7c",
}
# the approx jobs that scripts/catalog_digest.py runs, and their
# (exit code, report.txt digest) from that script
APPROX_JOBS = [job for job in WORKLOADS.schedule("adelic-scan", 0, 1)[0]
               if job.cls.startswith("approx")]
APPROX_DIGESTS = {
    "bb51bf0ff88ced74": (0, "40208af56fd08255"),
    "de5daf78cb8330f5": (0, "0c9796fcc178c553"),
    "d6e8c2ef7c3fe719": (0, "9e2ed562612ae54d"),
    "8a3e32470645c5d5": (0, "fbc4b707bd41718e"),
    "879e38ecce4adea3": (0, "d971bd5d9d42be63"),
    "44814915dccdea77": (0, "c8168c0486c7379a"),
    "31bbf107986541e0": (0, "a91d3e7c70dbfcc7"),
    "366fb78bcc893fc4": (0, "e92e52caabe7d325"),
    "7561894939b4c724": (0, "2f5d36c2576a97f6"),
    "c726f62e64b8dd00": (0, "b15bc2fe4b4e4c98"),
    "3393c8f2e8cb906c": (0, "a0477caaa522b113"),
    "9bf3ece35536e341": (0, "10975b2fb6ff9cf5"),
    "9b76626fd9bb1312": (0, "27802fe2161f757c"),
    "cf7d0764f50d23b4": (0, "b660f24134f58551"),
    "83f19d73428d18ba": (0, "a8fc0b23ce2f7893"),
    "8a80e38ca239e5f7": (0, "89d061466d02df05"),
    "50cd7e732fcdafc4": (0, "86a16b8ff93ea7ea"),
    "22df54437720190f": (0, "9c3daef60c759f1f"),
    "20c714958449c61c": (0, "e0ee12b4733cd396"),
    "8bc5ce80eb39b9df": (0, "8e297f68b1b7bf87"),
    "11c5dc5f05e39848": (0, "5a79a6c6e33d613e"),
    "fecf948aab836afe": (0, "dfb295382b986ecc"),
}
# the orbit jobs' (exit code, report.txt digest, orbit.csv digest), from
# scripts/catalog_digest.py
ORBIT_JOBS = WORKLOADS.catalog("adelic-scan")["orbit"]
ORBIT_DIGESTS = {
    "da391bef85f0efdc": (0, "3a69e2718c10dbf0", "cab2ccc4baa5ea88"),
    "ea42bdb48cd8ee63": (0, "8ff3509364743bfb", "88a867b215fa761c"),
    "fc16c12f22d4ee3b": (0, "2e9dc52fb2835eea", "23c5d033d61bdd2e"),
    "17d9c5a8e279c7df": (0, "1c3153ce9f1fa60f", "db89ed3c47bf85d4"),
    "9f389a2e5b2b0481": (0, "bbf1904d5d97f596", "1bf71074a17ad827"),
    "05848c2b9e3287aa": (0, "22e8e655b95a093a", "0dcdb1ef20115533"),
    "a63751617dd368f0": (0, "8c918fbc5d01178e", "288d489a8c783059"),
    "8ede82cd95cb8a41": (0, "7dcdd490b769ac0d", "d2821a5497be79f3"),
    "e28fa12846a42f86": (1, "045041a1baeff14d", "e5349fb3db4ca4df"),
    "bb9a3d924aa51429": (1, "a7cd5b03e86bc311", "1c11db8b73b515d1"),
    "e96aacc855944e4f": (0, "bdf790c286aa6256", "686d75111e0a6506"),
    "3a75f28f40f6be60": (0, "9252881c74e9e88b", "f61531497daa74fb"),
    "7c4c9fa8a3c2320a": (0, "88ff779b2eea0091", "367e54199dac9d7c"),
    "cae0253b1169898d": (0, "c2ef3b0af7096802", "ab7aad8f15c38f97"),
    "0bb8c2e56ee0112a": (0, "5b6d44d72dcb8f4c", "9a91eb69f15bf12e"),
    "7713c9ff54f00d44": (0, "682b35e135e42c31", "dedfa8b135195306"),
}


def _run(job, tmp_path, names=("report.txt",)):
    """The exit code and the digests of the named artifacts of one job."""
    ini, out = tmp_path / "job.ini", tmp_path / "out"
    ini.write_text(job.ini)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([job.command, "--config", str(ini), "--out", str(out), *job.flags])
    return (code, *(hashlib.sha256((out / name).read_bytes()).hexdigest()[:16]
                    for name in names))


def test_catalog_has_every_cover_build_job():
    assert len(JOBS) == 64
    assert all(job.key in EXPECTED and "digest" in EXPECTED[job.key] for job in JOBS)


@pytest.mark.parametrize("job", JOBS, ids=lambda job: f"{job.cls}-{job.key}")
def test_cover_build_report_bytes(job, tmp_path):
    assert _run(job, tmp_path) == (EXPECTED[job.key]["exit"], EXPECTED[job.key]["digest"])


def test_catalog_has_every_cover_query_job():
    assert len(QUERY_JOBS) == 170
    assert all(job.key in EXPECTED and "digest" in EXPECTED[job.key] for job in QUERY_JOBS)


@pytest.mark.parametrize("job", QUERY_JOBS, ids=lambda job: f"{job.cls}-{job.key}")
def test_cover_query_report_bytes(job, tmp_path):
    assert _run(job, tmp_path) == (EXPECTED[job.key]["exit"], EXPECTED[job.key]["digest"])


def test_catalog_has_every_disk_job():
    assert sorted(job.key for job in DISK_JOBS) == sorted(DISK_DIGESTS)


@pytest.mark.parametrize("job", DISK_JOBS, ids=lambda job: f"{job.cls}-{job.key}")
def test_disk_report_bytes(job, tmp_path):
    assert _run(job, tmp_path) == (EXPECTED[job.key]["exit"], DISK_DIGESTS[job.key])


# a scan longer than the catalog's: five families at n = 1, the last certified,
# each started from the grid cells the family before it left failing
LONG_DISK_JOB = WORKLOADS.disk_job("disk", "0.15", "0.1", 2, 4, 2)


def test_long_disk_scan_report_bytes(tmp_path):
    assert _run(LONG_DISK_JOB, tmp_path) == (0, "c80d1a3b79e56579")


# an odd grid: 25 x 25 cells at R = 2.5, pitch 0.2, so one cell sits at the
# centre; its certifying rows as recorded before the grid was laid out
# centred on the disk
ODD_GRID_DISK_JOB = WORKLOADS.Job(
    "disk", "irrational-cover",
    WORKLOADS._ini("disk", epsilon="0.15", radius="2.5", pitch="0.2", n_max=2, N_max=4,
                   refine_rounds=2),
    ("--refine",))


def test_odd_grid_disk_scan_report_bytes(tmp_path):
    assert _run(ODD_GRID_DISK_JOB, tmp_path) == (0, "c6a3ea3f85946d2a")


@pytest.mark.parametrize("job", [*DISK_JOBS, LONG_DISK_JOB, ODD_GRID_DISK_JOB],
                         ids=lambda job: f"{job.cls}-{job.key}")
def test_disk_scan_witnesses_are_uncovered(job, tmp_path):
    # every witness a pinned scan names misses every open stripe of the
    # exact theta_prime(n, N) at the config's decimal half-width, within its
    # decimal radius: re-checked by the tests' own Fraction oracle
    assert _run(job, tmp_path)[0] == 0
    config = dict(line.split(" = ") for line in job.ini.splitlines() if " = " in line)
    rows = [dict(part.split("=", 1) for part in line.split()[1:])
            for line in (tmp_path / "out" / "report.txt").read_text().splitlines()
            if line.startswith("scan ")]
    witnesses = [row for row in rows if row["certified"] == "false" and row["witness"] != "none"]
    assert witnesses
    for row in witnesses:
        assert int(row["failing"]) > 0
        point = GaussianRational.parse(row["witness"])
        forms = theta_prime_forms(int(row["n"]), int(row["N"]))
        assert uncovered_oracle(point, config["epsilon"], config["radius"], forms)


@pytest.mark.parametrize("job", [*DISK_JOBS, LONG_DISK_JOB, ODD_GRID_DISK_JOB],
                         ids=lambda job: f"{job.cls}-{job.key}")
def test_disk_scan_candidates_are_float_clear(job, tmp_path, monkeypatch):
    # every point the scan hands to the exact check lies in the disk and at
    # least epsilon from the nearest integer under every float rotation of
    # its step, those from before N included: the exact check passes over a
    # bad candidate quietly, so no report byte would show one
    steps, seen = [], []
    triple, clear = disk.irrational_triple, disk._clear
    monkeypatch.setattr(disk, "irrational_triple", lambda n: steps.append(n) or triple(n))
    monkeypatch.setattr(disk, "_clear",
                        lambda x, y, radius, clearance, exact:
                        seen.append((steps[-1], len(exact), x, y))
                        or clear(x, y, radius, clearance, exact))
    assert _run(job, tmp_path)[0] == 0
    config = dict(line.split(" = ") for line in job.ini.splitlines() if " = " in line)
    eps, radius = float(config["epsilon"]), float(config["radius"])
    assert seen
    for n, count, x, y in seen:
        N = math.isqrt(count // 3) - 1
        assert count == 3 * (N + 1) ** 2
        rotations = np.array(theta_prime(n, N))
        values = x * rotations.real - y * rotations.imag
        assert x * x + y * y <= radius * radius
        assert not (np.abs(values - np.rint(values)) < eps).any(), (n, N, x, y)


def test_schedule_has_every_pinned_approx_job():
    assert sorted(job.key for job in APPROX_JOBS) == sorted(APPROX_DIGESTS)


@pytest.mark.parametrize("job", APPROX_JOBS, ids=lambda job: f"{job.cls}-{job.key}")
def test_approx_report_bytes(job, tmp_path):
    assert _run(job, tmp_path) == APPROX_DIGESTS[job.key]


def test_catalog_has_every_pinned_orbit_job():
    assert sorted(job.key for job in ORBIT_JOBS) == sorted(ORBIT_DIGESTS)


@pytest.mark.parametrize("job", ORBIT_JOBS, ids=lambda job: f"{job.cls}-{job.key}")
def test_orbit_report_and_csv_bytes(job, tmp_path):
    assert _run(job, tmp_path, ("report.txt", "orbit.csv")) == ORBIT_DIGESTS[job.key]


# the density jobs' (exit code, report.txt digest, density.csv digest), from
# scripts/catalog_digest.py
DENSITY_JOBS = WORKLOADS.catalog("adelic-scan")["density"]
DENSITY_DIGESTS = {
    "989b8fa7ca120b58": (0, "8fc2cabf520f00b8", "a8491e3642e5b581"),
    "9766d7615825b60e": (1, "188d66b5e638b7eb", "b50e9d6144e82877"),
    "1c566e143be61ab3": (0, "6c08c11aac8b1556", "5360fc2553c0f436"),
    "e3497f5533c6e11e": (1, "b59f9e4037a46732", "26326d6c8863f0f7"),
    "6d8d045fad05f515": (0, "be4bee4aa10495fd", "01da4200bfee4e06"),
    "c22972e4fe8f3536": (0, "e737c952956c906d", "b59c6c14da160858"),
    "119cc3b4ede915d5": (0, "21e4272cd46b6c52", "c110378452a6c371"),
    "b0a9b8bf8450816b": (0, "ad141b178fe7c8c2", "30140f5978357263"),
    "dde3959b539f7c0f": (0, "7437fcfc50c1960a", "2d5b7adabcaf0434"),
    "eb0d2c8cd383613a": (0, "e7fe8319a55c103e", "ec82334186bc6dd4"),
    "2abed0b43618c11f": (0, "1e3b9034229369b2", "f2995edb973007b8"),
    "02ab49a1639a2e60": (0, "5be384bec7a56a80", "6b8cd098209ba25d"),
}
# the classify and closure-index jobs' (exit code, report.txt digest), from
# scripts/catalog_digest.py
SCALAR_JOBS = [*WORKLOADS.catalog("adelic-scan")["classify"],
               *WORKLOADS.catalog("adelic-scan")["closure-index"]]
SCALAR_DIGESTS = {
    "c5c65bbe285030b3": (0, "207f1dd93fffbc5a"),
    "d5e52a854392c33c": (0, "a8dc0b922927c7a4"),
    "c875f400ca26e2f8": (0, "69f9302b126afa95"),
    "751b667400a3b4bb": (0, "6d00fb46b2906d8d"),
    "0a0c9bed061140c8": (0, "38897153c3241898"),
    "b8805dd29f0f524e": (0, "6a90963dfa22f183"),
    "17c2c801c8e013ee": (0, "55a06bc60580996d"),
    "a5c83713246d22b1": (0, "d295b8e4d2570dc4"),
    "dbcdf570254e45a4": (0, "b28cd58bbeb3d73d"),
    "d51384fb5677315e": (0, "054d6dc0d0501f9b"),
    "14cea9939398ea47": (0, "be1035ca48e44cf6"),
    "7fa8008b9729700a": (0, "dc6b8557bf03c401"),
    "6b3504268dd0b6a8": (0, "bbb16f5fbf614287"),
    "acee65ed1a684c11": (0, "dc066ff7d8c09e09"),
    "3a86d57a86a2de84": (0, "9da3d632416e6b8c"),
    "fbd3739df1fe8cb3": (0, "a340ccf7dde0e247"),
    "5878976efbb4b727": (0, "71ace1a0559a611c"),
    "966d69fe46ba69be": (0, "6759561a1593cae6"),
    "366b533894671dc0": (0, "8c33e7eda5f3615a"),
    "06f372ac1af4e9e7": (0, "8aba6c5409dea9f5"),
    "3c95842c7253dd85": (0, "74b4f857bc7fb14e"),
    "8d5ea6a646a52d7d": (0, "23649bef52427fca"),
    "bea9b35b995a27fd": (0, "8c3df98278a30012"),
    "f737bdf37c43eb5c": (0, "aa7f5694ec31fec8"),
    "00c373b64b329aa5": (0, "9ab22b28d90d9226"),
    "fcfc88546239c436": (0, "76ca89adf3099463"),
    "03d51d90f84723ad": (0, "61ca168d5216c0fd"),
    "6c9dc7be02c30b9e": (0, "0ff56a7a79e41b23"),
    "865417646e737c66": (0, "dcecb73800db8aab"),
    "162d9756e992878c": (0, "b3c51123adfff101"),
    "badc59224021af7e": (0, "80b1fd9268902d1e"),
    "1c18f390f650ff34": (0, "80e061433847faae"),
    "b911aa6473359f13": (0, "4c1401a198c3c8aa"),
    "684fa2e06096c5b9": (0, "acbb5469e6be3209"),
    "6470e8556db1543d": (0, "d3365560a80afa2e"),
    "9ebaa2c9e004a44b": (0, "92886b409ba98fec"),
    "182b845400c51a97": (0, "2831e371f7c59063"),
    "27010bd4d8c424b9": (0, "c0fdad508100a821"),
    "deec51d863405068": (0, "f99a3a789e4283d8"),
    "8b6e297d792aafc4": (0, "5f14a6ad764ae10e"),
    "69de469c8167ccee": (0, "0ea7c6bcc01c9e6a"),
    "1531820e8381c7f2": (0, "aba5b04fe804a66e"),
}


def test_catalog_has_every_pinned_density_and_scalar_job():
    assert len(DENSITY_JOBS) == 12 and len(SCALAR_JOBS) == 18 + 24
    assert sorted(job.key for job in DENSITY_JOBS) == sorted(DENSITY_DIGESTS)
    assert sorted(job.key for job in SCALAR_JOBS) == sorted(SCALAR_DIGESTS)


@pytest.mark.parametrize("job", DENSITY_JOBS, ids=lambda job: f"{job.cls}-{job.key}")
def test_density_report_and_csv_bytes(job, tmp_path):
    assert _run(job, tmp_path, ("report.txt", "density.csv")) == DENSITY_DIGESTS[job.key]


@pytest.mark.parametrize("job", SCALAR_JOBS, ids=lambda job: f"{job.cls}-{job.key}")
def test_classify_and_closure_index_report_bytes(job, tmp_path):
    assert _run(job, tmp_path) == SCALAR_DIGESTS[job.key]
