"""Every demo in ``demos/`` runs to completion: each one runs as a script in
its own process, in a scratch directory so that the files it writes land
there, and must exit 0.  The witness that demo 05 prints is re-checked."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from pyjama.disk import theta_prime
from pyjama.gaussian import GaussianRational

from _util import plain_forms, theta_prime_forms, uncovered_oracle

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 6


def _run(demo, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
    return subprocess.run([sys.executable, str(demo)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_exits_zero(demo, tmp_path):
    run = _run(demo, tmp_path)
    assert run.returncode == 0, run.stderr


def test_demo_05_prints_an_uncovered_point(tmp_path):
    # theta_prime(1, 0) at half-width 0.3 on the radius-20 disk: the point
    # misses every stripe of the float rotations the demo passes, and of the
    # exact rotations they round
    run = _run(ROOT / "demos" / "05_density_and_disk_cover.py", tmp_path)
    assert run.returncode == 0, run.stderr
    line, = (line for line in run.stdout.splitlines() if "witness:" in line)
    witness = GaussianRational.parse(line.split("witness:")[1].strip())
    assert uncovered_oracle(witness, "0.3", "20", plain_forms(theta_prime(1, 0)))
    assert uncovered_oracle(witness, "0.3", "20", theta_prime_forms(1, 0))
