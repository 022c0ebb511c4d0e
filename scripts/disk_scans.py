"""In-process A/B of the disk-cover scans between two revisions.

    python3 scripts/disk_scans.py PARENT [CHANGE] [--passes N] [--repeats K]

Run from inside the git checkout.  It writes ``git archive`` copies of
PARENT and CHANGE (default HEAD) into one temporary directory (``TMPDIR``
picks where) with ``scripts/ab_pairs.py``'s ``_checkout``.  Each pass
starts one fresh process per side, alternating which side goes first, and
each process imports its side's ``src`` and runs K rounds of the scans
below, one after the other, timing each call of ``disk_cover_scan`` with
``time.perf_counter`` and counting its minor page faults (``ru_minflt``).
The scan is taken from ``pyjama.disk``, or from ``pyjama.covering`` in a
revision from before the disk cover had its own module:

    catalog-1  disk_cover_scan(0.2, 20, 0.2, 2, 3, 2)     the three
    catalog-2  disk_cover_scan(0.2, 20, 0.25, 2, 3, 2)    adelic-scan disk
    catalog-3  disk_cover_scan(0.25, 20, 0.1, 1, 3, 2)    jobs' scans
    eps-0.05   disk_cover_scan(0.05, 80, 0.05, 2, 8, 2)   demo 06 at R = 80

It prints, per scan and side, the median time in ms, its quartiles and the
median minor page faults over all N * K runs.  If any scan's rows differ
between the sides, or between the runs of one side, it then prints the
rows that differ, parent's first, and exits 1.  N defaults to 3 and K to 5.
"""

from __future__ import annotations

import argparse
import difflib
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from ab_pairs import _checkout

SCANS = {
    "catalog-1": (0.2, 20, 0.2, 2, 3, 2),
    "catalog-2": (0.2, 20, 0.25, 2, 3, 2),
    "catalog-3": (0.25, 20, 0.1, 1, 3, 2),
    "eps-0.05": (0.05, 80, 0.05, 2, 8, 2),
}

# one side's process: K rounds of every scan; prints one JSON document
CHILD = """
import json, resource, sys, time
try:
    from pyjama.disk import disk_cover_scan
except ModuleNotFoundError:
    from pyjama.covering import disk_cover_scan
scans, repeats = json.loads(sys.argv[1]), int(sys.argv[2])
out = {name: {"ms": [], "minflt": [], "rows": None} for name in scans}
for _ in range(repeats):
    for name, args in scans.items():
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        start = time.perf_counter()
        rows = disk_cover_scan(*args)
        ms = 1000 * (time.perf_counter() - start)
        out[name]["minflt"].append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults)
        out[name]["ms"].append(ms)
        text = [" ".join(map(str, row)) for row in rows]
        if out[name]["rows"] not in (None, text):
            raise SystemExit(f"{name}: rows differ between runs")
        out[name]["rows"] = text
print(json.dumps(out))
"""


def _side(root: Path, repeats: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run([sys.executable, "-c", CHILD, json.dumps(SCANS), str(repeats)],
                          capture_output=True, text=True, env=env)
    if done.returncode != 0:
        raise SystemExit(f"disk_scans: the run in {root} exited {done.returncode}:\n"
                         f"{done.stderr}")
    return json.loads(done.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", metavar="PARENT")
    parser.add_argument("change", metavar="CHANGE", nargs="?", default="HEAD")
    parser.add_argument("--passes", type=int, default=3)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="disk_scans-") as tmp:
        roots = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        commits = {side: _checkout(rev, roots[side])
                   for side, rev in (("parent", args.parent), ("change", args.change))}
        runs = {"parent": [], "change": []}
        for i in range(args.passes):
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                runs[side].append(_side(roots[side], args.repeats))
                print(f"disk_scans: pass {i + 1} {side} done", file=sys.stderr, flush=True)

    print(f"parent {commits['parent'][:12]}  change {commits['change'][:12]}  "
          f"{args.passes} passes x {args.repeats} runs a side")
    print(f"{'scan':<10}  {'side':<6}  {'median ms':>9}  {'q1-q3 ms':>15}  {'minflt':>7}")
    differ = []
    for name in SCANS:
        rows = {side: {json.dumps(run[name]["rows"]) for run in side_runs}
                for side, side_runs in runs.items()}
        if len(rows["parent"] | rows["change"]) != 1:
            differ.append(name)
        for side, side_runs in runs.items():
            ms = [t for run in side_runs for t in run[name]["ms"]]
            faults = [f for run in side_runs for f in run[name]["minflt"]]
            q1, median, q3 = statistics.quantiles(ms, n=4, method="inclusive")
            print(f"{name:<10}  {side:<6}  {median:>9.2f}  {f'{q1:.2f}-{q3:.2f}':>15}  "
                  f"{statistics.median(faults):>7.0f}")
    for name in differ:
        print(f"{name}: rows that differ (- parent, + change)")
        for side, side_runs in runs.items():
            if any(run[name]["rows"] != side_runs[0][name]["rows"] for run in side_runs):
                print(f"  the {side} runs differ among themselves")
        diff = difflib.unified_diff(runs["parent"][0][name]["rows"],
                                    runs["change"][0][name]["rows"], lineterm="", n=0)
        for line in diff:
            if not line.startswith(("---", "+++", "@@")):
                print(f"  {line}")
    print("ROWS DIFFER" if differ else "rows identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
