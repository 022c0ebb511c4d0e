"""The summary and gain rule of ``scripts/ab_pairs.py`` on hand-made runs."""

import importlib.util
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "ab_pairs.py"
_spec = importlib.util.spec_from_file_location("ab_pairs", _SCRIPT)
ab_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_pairs)

METRICS = [{"name": "jobs_per_s", "better": "higher"},
           {"name": "job_p50_s", "better": "lower"}]
PARENT = (100, 102, 104, 106, 108, 110, 112, 114, 116, 118)


def _runs(change):
    return {"parent": [{"jobs_per_s": v, "job_p50_s": 1 / v} for v in PARENT],
            "change": [{"jobs_per_s": v, "job_p50_s": 1 / v} for v in change]}


def _met(summary, name):
    better = {m["name"]: m["better"] for m in METRICS}[name]
    return ab_pairs._claim_met(summary[name], better, len(PARENT))


def test_summary_quartiles_parent_iqr_and_wins():
    summary = ab_pairs._summary(_runs([v + 20 for v in PARENT]), METRICS)
    entry = summary["jobs_per_s"]
    assert entry["parent"] == {"q1": 104.5, "median": 109.0, "q3": 113.5}
    assert entry["change"] == {"q1": 124.5, "median": 129.0, "q3": 133.5}
    assert entry["parent_iqr"] == 9.0
    assert entry["change_wins"] == 10
    # a lower-is-better metric counts its wins in its own direction
    assert summary["job_p50_s"]["change_wins"] == 10
    assert _met(summary, "jobs_per_s") and _met(summary, "job_p50_s")


def test_claim_needs_nine_in_ten_pairs_and_a_gain_beyond_the_parent_iqr():
    # every pair won, but the medians differ by less than the parent's IQR
    summary = ab_pairs._summary(_runs([v + 8 for v in PARENT]), METRICS)
    assert summary["jobs_per_s"]["change_wins"] == 10
    assert not _met(summary, "jobs_per_s")
    # a large gain on 8 pairs of 10
    change = [v + 30 for v in PARENT[:8]] + [v - 1 for v in PARENT[8:]]
    summary = ab_pairs._summary(_runs(change), METRICS)
    assert summary["jobs_per_s"]["change_wins"] == 8
    assert not _met(summary, "jobs_per_s")
    # 9 wins and a tie, which counts for neither side
    change = [v + 30 for v in PARENT[:9]] + [PARENT[9]]
    summary = ab_pairs._summary(_runs(change), METRICS)
    assert summary["jobs_per_s"]["change_wins"] == 9
    assert _met(summary, "jobs_per_s")
    # no change at all
    summary = ab_pairs._summary(_runs(PARENT), METRICS)
    assert summary["jobs_per_s"]["change_wins"] == 0
    assert not _met(summary, "jobs_per_s") and not _met(summary, "job_p50_s")
