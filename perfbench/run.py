"""pyjama benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The unit of work is one job: one
in-process ``pyjama.cli.main([...])`` command on a generated INI file,
writing its reports to a scratch directory.  One client runs jobs in a
closed loop in this single-threaded process: the next job starts when the
previous one has returned.

Set-up imports pyjama, writes the seeded INI inputs and runs one untimed
warm-up job of each kind (filling the lru caches of padic and approx).  The
run then goes through as many whole rounds of jobs (see ``workloads.py``) as
take about ``--seconds`` at the baseline commit.  Set-up time comes from
``SETUP_PROBES`` set-ups in fresh processes, spread evenly between the jobs
of the timed loop, so that drift of the host during a run reaches them as
it reaches the jobs.  It is in seconds, with numpy's import counted at a
fixed time (see ``REFERENCE_IMPORT_S``).  Every job's output is checked
afterwards (see ``checks.py``); a job fails if it raises, exits 2 or fails
its check.  Job times are reported in reference seconds (see
``REFERENCE_S``); the record line also gives them in wall seconds.

With ``--trace 0`` the last line reports the end-to-end metrics of
BENCHMARK.json.  With ``--trace 1`` the first rounds run with the layer
wrappers of ``tracing.py`` installed, then again without them; the last
line reports the per-layer metrics, and the spans go to
``.perfbench/traces/``.  A line before the last one records the run: the
commit, the versions, the machine, the tail percentile and the failures.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, schedule, warmup_jobs  # noqa: E402

SETUP_PROBES = 8
# Cost of one round in reference seconds at the baseline commit.  A run does
# round(seconds / ROUND_S) whole rounds, so that every commit measures the
# same jobs and the tail percentile always has the same rank.
ROUND_S = {"cover-build": 5.0, "cover-query": 12.5, "adelic-scan": 0.55}
# distinct rounds written in set-up; longer runs repeat them in order.  A
# multiple of 3, so that the 36 rounds of adelic-scan hold each of its three
# disk configs 12 times.
DISTINCT_ROUNDS = 12
# rounds of a traced run
TRACE_ROUNDS = {"cover-build": 1, "cover-query": 1, "adelic-scan": 6}


# The speed of a shared host drifts by up to +-20% over tens of seconds,
# with other tenants.  Job times are therefore in reference seconds:
# each wall time is multiplied by REFERENCE_S over the time that a fixed
# loop of plain Python takes around it.  The loop runs no pyjama code, so it
# tracks the machine and not the program.  Raw wall times go to the record.
REFERENCE_S = 0.004
PROBE_EVERY_S = 0.2

# Set-up runs in fresh processes, and on a shared host the time that a
# fresh process takes to import numpy swings between about 0.07 s and 0.17 s
# from one quarter of an hour to the next, while the calibration loop stays
# put.  So each set-up probe is followed by a fresh process that imports
# numpy and no pyjama code, and set-up time counts numpy's import at a fixed
# REFERENCE_IMPORT_S: it is REFERENCE_IMPORT_S plus the median of (set-up
# time - reference import time).
REFERENCE_IMPORT = ("import time; t = time.perf_counter(); import numpy; "
                    "print(time.perf_counter() - t)")
REFERENCE_IMPORT_S = 0.15


def calibration_s() -> float:
    t0 = time.perf_counter()
    x, table = 1, {}
    for i in range(20000):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        table[x & 1023] = i
    return time.perf_counter() - t0


class SpeedLog:
    """Calibration samples taken between jobs."""

    def __init__(self):
        self.samples: list[float] = []
        self._last = -math.inf

    def probe(self) -> int:
        self.samples.append(calibration_s())
        self._last = time.perf_counter()
        return len(self.samples)

    def probe_if_due(self) -> int:
        if time.perf_counter() - self._last >= PROBE_EVERY_S:
            self.probe()
        return len(self.samples)

    def scale(self, before: int) -> float:
        """REFERENCE_S over the median of the five samples taken before a
        job and the first one after it."""
        return REFERENCE_S / statistics.median(self.samples[max(0, before - 5):
                                                            before + 1])


class SetupError(Exception):
    pass


def import_cli():
    """pyjama.cli from this checkout's src/, and nothing else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import pyjama.cli
    except ImportError as exc:
        raise SetupError(f"cannot import pyjama from {src}: {exc}") from exc
    if Path(pyjama.cli.__file__).resolve().parent != src / "pyjama":
        raise SetupError(f"pyjama imported from {pyjama.cli.__file__}, not {src}")
    return pyjama.cli


def run_job(cli, job, ini_path: Path, out_dir: Path) -> dict:
    argv = [job.command, "--config", str(ini_path), "--out", str(out_dir),
            *job.flags]
    stdout, stderr = io.StringIO(), io.StringIO()
    error = code = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
    except Exception as exc:  # the job failed; the run goes on
        error = type(exc).__name__
    latency = time.perf_counter() - t0
    summary = stdout.getvalue().strip().rsplit("\n", 1)[-1]
    return {"code": code, "error": error, "summary": summary,
            "latency": latency, "out": out_dir}


def collect(outcome: dict) -> dict:
    out = outcome["out"]
    outcome["files"] = ({p.name: p.read_bytes() for p in sorted(out.iterdir())}
                        if out.is_dir() else {})
    return outcome


def output_digest(outcome: dict) -> str:
    h = hashlib.sha256(repr((outcome["code"], outcome["error"])).encode())
    h.update(" ".join(p for p in outcome["summary"].split()
                      if not p.startswith("report=")).encode())
    for name, data in outcome["files"].items():
        h.update(name.encode() + b"\0" + data)
    return h.hexdigest()


class Bench:
    """One workload's inputs in a scratch directory of the checkout."""

    def __init__(self, workload: str, seed: int, work: Path, n_rounds: int):
        t0 = time.perf_counter()
        self.cli = import_cli()
        self.work = work
        distinct = schedule(workload, seed, min(n_rounds, DISTINCT_ROUNDS))
        self.rounds = [distinct[i % len(distinct)] for i in range(n_rounds)]
        warmups = warmup_jobs(workload)
        self.ini = {}
        (work / "ini").mkdir(parents=True)
        for job in warmups + [j for r in distinct for j in r]:
            if job.key not in self.ini:
                path = work / "ini" / f"{job.key}.ini"
                path.write_text(job.ini, encoding="utf-8")
                self.ini[job.key] = path
        for i, job in enumerate(warmups):
            run_job(self.cli, job, self.ini[job.key], work / "warmup" / str(i))
        self.setup_wall_s = time.perf_counter() - t0
        self._outputs = 0

    def run(self, job, tag: str) -> dict:
        self._outputs += 1
        out = self.work / tag / str(self._outputs)
        return run_job(self.cli, job, self.ini[job.key], out)


def probe_setup(workload: str, seed: int, seconds: float) -> tuple[float, float]:
    """Set-up wall time of a fresh process, and the time that the reference
    import takes in the next one."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--setup-probe"]
    outputs = []
    for argv in (cmd, [sys.executable, "-c", REFERENCE_IMPORT]):
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=120)
        if done.returncode != 0:
            raise SetupError(f"set-up probe failed: {done.stderr.strip()[-500:]}")
        outputs.append(done.stdout.strip().splitlines()[-1])
    return json.loads(outputs[0])["setup_wall_s"], float(outputs[1])


def run_timed(bench: Bench, jobs, setup_probe):
    """Run jobs back to back.  Returns their outcomes, their latencies in
    reference seconds, the median calibration time, and the set-up times
    that setup_probe returns when it is called between the jobs."""
    speed = SpeedLog()
    outcomes, probes_before, setups = [], [], []
    probe_at = {len(jobs) * k // SETUP_PROBES for k in range(SETUP_PROBES)}
    for i, job in enumerate(jobs):
        if i in probe_at:
            setups.append(setup_probe())
        probes_before.append(speed.probe_if_due())
        outcomes.append(bench.run(job, "out"))
    speed.probe()
    latencies = [o["latency"] * speed.scale(b)
                 for o, b in zip(outcomes, probes_before)]
    return outcomes, latencies, statistics.median(speed.samples), setups


def check_all(jobs_and_outcomes, expected) -> tuple[int, bool, Counter]:
    """(failed jobs, whether every failure is the known defect, reasons)."""
    failed, unexpected, reasons = 0, 0, Counter()
    for job, outcome in jobs_and_outcomes:
        reason = checks.check(job, collect(outcome), expected.get(job.key))
        if reason is None:
            continue
        failed += 1
        known = checks.is_known_defect(job, reason)
        unexpected += not known
        reasons[f"{job.cls}: {reason}{'' if known else ' (UNEXPECTED)'}"] += 1
    return failed, unexpected == 0, reasons


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with at least 10 jobs beyond it,
    and that percentile (nearest rank; the slowest job when n <= 10)."""
    ordered = sorted(latencies)
    n = len(ordered)
    rank = max(n - 10, 1)
    return ordered[rank - 1], 100.0 * rank / n


def end_to_end(bench: Bench, workload: str, seed: int, seconds: float,
               expected: dict) -> tuple[dict, dict, dict]:
    jobs = [j for r in bench.rounds for j in r]
    outcomes, latencies, calibration, setups = run_timed(
        bench, jobs, lambda: probe_setup(workload, seed, seconds))
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed, correct, reasons = check_all(zip(jobs, outcomes), expected)
    wall = [o["latency"] for o in outcomes]
    tail_s, tail_pct = tail(latencies)
    n = len(jobs)
    metrics = {
        "setup_s": REFERENCE_IMPORT_S + statistics.median(s - r for s, r in setups),
        "jobs_per_s": n / sum(latencies),
        "job_p50_s": statistics.median(latencies),
        "job_tail_s": tail_s,
        "ok_frac": (n - failed) / n,
        "peak_rss_mib": peak_rss,
    }
    record = {"rounds": len(bench.rounds), "jobs": n, "failed": failed,
              "fail_frac": failed / n, "failures": dict(reasons),
              "tail_percentile": round(tail_pct, 2), "tail_n": n,
              "setup_samples": setups,
              "setup_in_process_s": bench.setup_wall_s,
              "wall": {"jobs_per_s": n / sum(wall),
                       "job_p50_s": statistics.median(wall),
                       "job_tail_s": tail(wall)[0],
                       "setup_s": statistics.median(s for s, _ in setups),
                       "reference_import_s": statistics.median(r for _, r in setups)},
              "calibration_s": calibration}
    return metrics, record, {"correct": correct, "attempted": n, "failed": failed}


def per_layer(bench: Bench, workload: str, seed: int, expected: dict):
    jobs = [j for r in bench.rounds[:TRACE_ROUNDS[workload]] for j in r]
    # each job runs traced and then untraced, so that the two latencies of a
    # pair see the same host speed
    tracer = tracing.Tracer()
    traced, plain = [], []
    for i, job in enumerate(jobs):
        tracer.job_id = i
        tracer.install()
        try:
            traced.append(bench.run(job, "traced"))
        finally:
            tracer.uninstall()
        plain.append(bench.run(job, "plain"))
    leftovers = tracing.leftover_wrappers()

    failed, correct, reasons = check_all(zip(jobs, traced), expected)
    differ = sum(output_digest(a) != output_digest(collect(b))
                 for a, b in zip(traced, plain))
    artifact_bytes = sum(len(d) for o in traced for d in o["files"].values())
    overhead = (sum(o["latency"] for o in traced)
                / sum(o["latency"] for o in plain) - 1)
    metrics = tracing.layer_metrics(tracer, artifact_bytes, overhead)
    traces = ROOT / ".perfbench" / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    tracer.save(traces / f"{workload}-seed{seed}.npz")
    shares = layer_shares(tracer)
    broken = isolation(workload, metrics)
    record = {"rounds": TRACE_ROUNDS[workload], "jobs": len(jobs),
              "failed": failed, "failures": dict(reasons),
              "outputs_differ": differ, "wrappers_left": leftovers,
              "self_time_share": shares,
              "isolation_broken": broken,
              "largest_self_time": largest_self_time(metrics)}
    correct = correct and differ == 0 and not leftovers and not broken
    return metrics, record, {"correct": correct, "attempted": len(jobs),
                             "failed": failed}


def layer_shares(tracer) -> dict[str, float]:
    spans = tracer.summary()
    by_layer = Counter()
    for name, s in spans.items():
        by_layer[name.split(".", 1)[0]] += s["self_s"]
    total = sum(by_layer.values()) or 1.0
    return {k: round(v / total, 4) for k, v in sorted(by_layer.items())}


def isolation(workload: str, m: dict) -> list[str]:
    """The layers that a workload must not call but this trace shows called.
    A traced run with any of them is not correct."""
    zero = {"cover-build": ("polygon.dist_sq.calls", "padic.calls",
                            "svg.render.calls"),
            "adelic-scan": [k for k in m if k.startswith("polygon.")
                            and k.endswith(".calls")]
            + [k for k in m if k.startswith("svg.")]}.get(workload, ())
    return [f"{k}={m[k]} (want 0)" for k in zero if m[k] != 0]


def largest_self_time(m: dict) -> str:
    """The single function with the most self time.  Recorded, not checked:
    on cover-build it is polygon.clip at the baseline, and a faster clip may
    rightly change that."""
    selfs = {k: v for k, v in m.items()
             if k.endswith(".self_s") and k.count(".") == 2}
    return max(selfs, key=selfs.get)


def run_record(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import numpy

    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "pyjama").glob("*.py")):
        src.update(path.read_bytes())
    return {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": int(trace), "commit": git_head(), "src_sha256": src.hexdigest(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": nproc,
            "machine": f"{platform.machine()} {platform.system()} "
                       f"{platform.release()}, {nproc} usable CPUs, "
                       "shared host: other tenants may add noise"}


def git_head() -> str | None:
    """The checked-out commit, or None when the checkout is not a git
    repository (git is kept from looking in the directories above it)."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    if done.returncode != 0:
        return None
    return done.stdout.strip() or None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    work = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    expected = json.loads((HERE / "expected.json").read_text())
    try:
        n_rounds = (TRACE_ROUNDS[args.workload] if args.trace else
                    max(1, round(args.seconds / ROUND_S[args.workload])))
        bench = Bench(args.workload, args.seed, work, n_rounds)
        if args.setup_probe:
            print(json.dumps({"setup_wall_s": bench.setup_wall_s}))
            return 0
        if args.trace:
            metrics, record, result = per_layer(bench, args.workload, args.seed,
                                                expected)
            wanted = spec["per_layer"]
        else:
            metrics, record, result = end_to_end(bench, args.workload, args.seed,
                                                 args.seconds, expected)
            wanted = spec["end_to_end"]
    except (SetupError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)

    names = [m["name"] for m in wanted]
    if set(names) != set(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match "
                           f"BENCHMARK.json {sorted(names)}")
    record = {**run_record(args.workload, args.seed, args.seconds, args.trace),
              **record}
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps({"record": record, "metrics": metrics},
                                           indent=1))
    print("perfbench-record " + json.dumps(record))
    result["metrics"] = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                         for m in wanted}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
