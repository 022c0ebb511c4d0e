"""
How the finite rotation family grows as epsilon shrinks
=======================================================

For every epsilon > 0 finitely many rotations of the pyjama stripe cover
the plane, but the proof gives no bound on how many.  The certified disk
cover measures it: for each stripe half-width epsilon this runs the
``irrational-cover`` scan over theta_prime(n, N) on the disk of radius R,
at grid pitch epsilon with two refinement rounds, and reports the least
certifying (n, N), the number of rotations, the cells checked, the wall
time and the peak RSS.  "N - 1 lost" says whether the step before it names
a witness, an uncovered point that proves theta_prime(n, N - 1) misses the
disk, so that N is proven least for its n.  Each scan runs as a CLI command in its own process
(through ``scripts/peak_rss.py``), so its peak memory is its own; the wall
time includes the start-up, printed first: an ``irrational-cover`` run on
a one-cell grid, which imports numpy as every scan does.

    python3 demos/06_epsilon_growth.py [R]

R defaults to 20.
"""

import re
import subprocess
import sys
import tempfile
from pathlib import Path

PEAK_RSS = Path(__file__).resolve().parents[1] / "scripts" / "peak_rss.py"
EPSILONS = ("0.3", "0.25", "0.2", "0.15", "0.1", "0.05")
RADIUS = sys.argv[1] if len(sys.argv) > 1 else "20"
CONFIG = """\
[disk]
epsilon = {eps}
radius = {radius}
pitch = {eps}
n_max = 2
N_max = 8
refine_rounds = 2
"""


def peak_rss(*args: str) -> dict[str, str]:
    """The ``peak_rss_mib``, ``wall_s`` and ``exit`` of one CLI command."""
    run = subprocess.run([sys.executable, str(PEAK_RSS), *args],
                         capture_output=True, text=True, check=True)
    return dict(part.split("=") for part in run.stdout.splitlines()[-1].split())


with tempfile.TemporaryDirectory() as tmp:
    # what every row pays before its scan starts: the interpreter and the
    # imports, numpy's included, measured on a grid of one cell
    config = Path(tmp) / "start.ini"
    config.write_text(CONFIG.format(eps="0.45", radius="0.1"))
    start = peak_rss("irrational-cover", "--config", str(config),
                     "--out", str(Path(tmp) / "start"))
    print(f"start-up (irrational-cover on one cell): {float(start['wall_s']):.2f} s, "
          f"{float(start['peak_rss_mib']):.1f} MiB")
    print(f"radius {RADIUS}")
    print(f"{'epsilon':>7}  {'(n, N)':>7}  {'rotations':>9}  {'cells':>10}  "
          f"{'scan cells':>10}  {'wall s':>6}  {'peak MiB':>8}  {'N - 1 lost':>10}")
    for eps in EPSILONS:
        config, out = Path(tmp) / f"eps-{eps}.ini", Path(tmp) / eps
        config.write_text(CONFIG.format(eps=eps, radius=RADIUS))
        measured = peak_rss("irrational-cover", "--config", str(config),
                            "--out", str(out), "--refine")
        report = (out / "report.txt").read_text()
        # the last scan line is the certifying step: "scan n=.. N=.. rotations=.. ..."
        steps = re.findall(r"^scan n=(\d+) N=(\d+) rotations=(\d+) certified=\S+ ?(\S*) "
                           r"cells=(\d+)", report, re.M)
        n, N, rotations, _, cells = steps[-1]
        total = sum(int(step[4]) for step in steps)
        # the step before, at the same n: "witness=none" when it is undecided
        lost = "-" if N == "0" else "no" if steps[-2][3] == "witness=none" else "yes"
        print(f"{eps:>7}  {f'({n}, {N})':>7}  {rotations:>9}  {cells:>10}  {total:>10}  "
              f"{float(measured['wall_s']):>6.2f}  {float(measured['peak_rss_mib']):>8.1f}  "
              f"{lost:>10}")
        assert "certified_pair" in report
