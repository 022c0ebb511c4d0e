"""A/B benchmark of a parent commit against HEAD in two fresh checkouts.

    python3 scripts/ab_pairs.py PARENT [--pairs N] [--workloads W ...]
                                [--first-seed S] [--claim WORKLOAD:METRIC]

Run from inside the git checkout.  It writes ``git archive`` copies of
PARENT and HEAD into two new directories under one temporary directory
(``TMPDIR`` picks where), made one after the other, so that both copies are
equally fresh.  For every workload it then runs N pairs of

    python3 perfbench/run.py --workload W --seed S --seconds 20 --trace 0

one in each copy, on seeds S, S+1, ..., alternating which side goes first:
the parent on the first seed, HEAD on the second, and so on.  Each run ends
before the next starts, and the copies are removed at the end.

It prints one JSON document shaped like the ``BENCH_<n>.json`` files: the
commits, how the runs were made, the machine, the claimed metric (if
given), and per workload the seeds, every run's end-to-end metrics, and
per metric each side's quartiles (``statistics.quantiles(n=4,
method="inclusive")``), ``parent_iqr`` (the parent's q3 - q1) and
``change_wins``, the pairs in which HEAD is strictly better in the
direction that BENCHMARK.json gives.  With ``--claim`` the claim also
carries ``claim_met``: HEAD wins at least nine tenths of the pairs, and its
median is better than the parent's by more than ``parent_iqr``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from importlib import metadata
from pathlib import Path

SECONDS = 20


def _git(*args: str) -> bytes:
    return subprocess.run(["git", *args], check=True, capture_output=True).stdout


def _checkout(rev: str, where: Path) -> str:
    """Extract the files of ``rev`` into ``where``; the full commit hash."""
    commit = _git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    where.mkdir()
    with tarfile.open(fileobj=io.BytesIO(_git("archive", commit))) as tar:
        tar.extractall(where, filter="data")
    return commit


def _run(root: Path, workload: str, seed: int) -> dict:
    """One untraced perfbench run in the checkout ``root``: its last line."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"]
    done = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"ab_pairs: {' '.join(argv[1:])} in {root} exited "
                         f"{done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.splitlines()[-1])
    row = {"seed": seed, "correct": result["correct"],
           "attempted": result["attempted"], "failed": result["failed"]}
    row.update((name, metric["value"]) for name, metric in result["metrics"].items())
    return row


def _summary(runs: dict, metrics: list[dict]) -> dict:
    out = {}
    for metric in metrics:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        sides = {side: [row[name] for row in rows] for side, rows in runs.items()}
        entry = {}
        for side, values in sides.items():
            q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
            entry[side] = {"q1": round(q1, 6), "median": round(median, 6),
                           "q3": round(q3, 6)}
        entry["parent_iqr"] = round(entry["parent"]["q3"] - entry["parent"]["q1"], 6)
        entry["change_wins"] = sum(sign * (c - p) > 0
                                   for p, c in zip(sides["parent"], sides["change"]))
        out[name] = entry
    return out


def _claim_met(entry: dict, better: str, pairs: int) -> bool:
    """The gain rule on one metric's summary: HEAD wins at least nine tenths
    of the pairs, ties counting for neither, and its median is better than
    the parent's by more than the parent's quartile spread."""
    gain = entry["change"]["median"] - entry["parent"]["median"]
    if better != "higher":
        gain = -gain
    return 10 * entry["change_wins"] >= 9 * pairs and gain > entry["parent_iqr"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", metavar="PARENT")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workloads", nargs="+", metavar="W")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--claim", metavar="WORKLOAD:METRIC")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 (quartiles need two runs)")
    claim = None
    if args.claim:
        workload, sep, metric = args.claim.partition(":")
        if not sep:
            parser.error("--claim must be WORKLOAD:METRIC")
        claim = {"workload": workload, "metric": metric}

    with tempfile.TemporaryDirectory(prefix="ab_pairs-") as tmp:
        roots = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        commits = {side: _checkout(rev, roots[side])
                   for side, rev in (("parent", args.parent), ("change", "HEAD"))}
        spec = json.loads((roots["change"] / "BENCHMARK.json").read_text())
        workloads = args.workloads or [w["name"] for w in spec["workloads"]]
        better = {m["name"]: m["better"] for m in spec["end_to_end"]}
        if claim and (claim["workload"] not in workloads or claim["metric"] not in better):
            parser.error(f"--claim {args.claim}: no such workload run or end-to-end metric")
        seeds = list(range(args.first_seed, args.first_seed + args.pairs))
        record = {}
        for workload in workloads:
            runs = {"parent": [], "change": []}
            for i, seed in enumerate(seeds):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    runs[side].append(_run(roots[side], workload, seed))
                    print(f"ab_pairs: {workload} seed {seed} {side} done",
                          file=sys.stderr, flush=True)
            record[workload] = {"seeds": seeds, "runs": runs,
                                "summary": _summary(runs, spec["end_to_end"])}

    if claim:
        metric = claim["metric"]
        summary = record[claim["workload"]]["summary"][metric]
        claim["claim_met"] = _claim_met(summary, better[metric], args.pairs)
        print(f"ab_pairs: claim_met={str(claim['claim_met']).lower()}",
              file=sys.stderr, flush=True)
    print(json.dumps({
        "parent_commit": commits["parent"],
        "change_commit": commits["change"],
        "how": (f"python3 perfbench/run.py --workload W --seed S --seconds {SECONDS} "
                "--trace 0 in two fresh git archives of the two commits "
                "(scripts/ab_pairs.py), run alternately, parent first on the "
                f"first seed; seeds {seeds[0]}-{seeds[-1]} on every workload; "
                "quartiles are statistics.quantiles(n=4, method='inclusive'); "
                "change_wins counts pairs where the change is strictly better."),
        "machine": (f"{platform.machine()} {platform.system()} {platform.release()}, "
                    f"{len(os.sched_getaffinity(0))} usable CPUs, Python "
                    f"{platform.python_version()}, numpy {metadata.version('numpy')}"),
        "claim": claim,
        "workloads": record,
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
