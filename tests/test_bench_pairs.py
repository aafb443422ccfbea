"""scripts/bench_pairs.py: alternating benchmark pairs of two checkouts."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "bench_pairs.py"

_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

SHA = {"csv": "c" * 64, "logits": "1" * 64}


def _run(step_ms: float, rss: float, sha=SHA, failed: int = 0) -> dict:
    metrics = {"decode_step_ms_p50": {"value": step_ms, "unit": "ms"},
               "peak_rss_mib": {"value": rss, "unit": "MiB"}}
    return {"correct": not failed, "attempted": 10, "failed": failed, "metrics": metrics, "sha256": sha}


BETTER = {"decode_step_ms_p50": "lower", "peak_rss_mib": "lower"}


def test_wins_count_pairs_where_the_change_is_strictly_better():
    parent = [_run(1.0, 50), _run(1.2, 50), _run(0.9, 50), _run(1.1, 50)]
    change = [_run(0.8, 50), _run(1.3, 49), _run(0.9, 51), _run(0.7, 50)]
    rows = {r["metric"]: r for r in bench_pairs.summary(parent, change, BETTER)}
    assert rows["decode_step_ms_p50"]["wins"] == 2  # a tie is no win
    assert rows["peak_rss_mib"]["wins"] == 1
    assert rows["decode_step_ms_p50"]["parent"] == pytest.approx((0.975, 1.05, 1.125))
    assert rows["decode_step_ms_p50"]["change"] == pytest.approx((0.775, 0.85, 1.0))
    assert rows["decode_step_ms_p50"]["pairs"] == 4


def test_a_higher_is_better_metric_wins_upward():
    parent, change = [_run(1.0, 50)], [_run(2.0, 60)]
    rows = bench_pairs.summary(parent, change, {"decode_step_ms_p50": "higher"})
    assert [(r["metric"], r["wins"]) for r in rows] == [("decode_step_ms_p50", 1), ("peak_rss_mib", 0)]


def test_differing_sha_and_failures_are_named():
    other = {**SHA, "logits": "2" * 64}
    parent = [_run(1.0, 50), _run(1.0, 50)]
    change = [_run(1.0, 50), _run(1.0, 50, sha=other, failed=3)]
    assert bench_pairs.problems(parent, change) == [
        "change pair 1: logits sha256 222222222222 != parent's 111111111111",
        "change pair 1: 3 of 10 operations failed",
    ]
    assert bench_pairs.problems(parent, parent) == []


def test_a_metric_past_its_bound_is_named():
    # the step time 25% worse against a 24% bound; peak_rss_mib 9.8% worse against 10%
    parent = [_run(1.0, 50), _run(1.0, 50)]
    change = [_run(1.25, 54.9), _run(1.25, 54.9)]
    rows = bench_pairs.summary(parent, change, BETTER)
    bounds = {"decode_step_ms_p50": ("lower", 0.24), "peak_rss_mib": ("lower", 0.1)}
    assert bench_pairs.over_bounds(rows, bounds) == [
        "decode_step_ms_p50: change median 1.25 is worse than the parent's 1 by more than its bound of 24%",
    ]
    # a higher-is-better metric is worse downward, and an ungated one is never named
    assert bench_pairs.over_bounds(rows, {"decode_step_ms_p50": ("higher", 0.1)}) == []
    swapped = bench_pairs.summary(change, parent, BETTER)
    assert bench_pairs.over_bounds(swapped, {"peak_rss_mib": ("higher", 0.08)}) == [
        "peak_rss_mib: change median 50 is worse than the parent's 54.9 by more than its bound of 8%",
    ]


def test_one_pair_on_one_checkout_runs_clean():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    parent = [bench_pairs.run_once(ROOT, "recall_tradeoff", 0, 0)]
    change = [bench_pairs.run_once(ROOT, "recall_tradeoff", 0, 0)]
    assert bench_pairs.problems(parent, change) == []
    rows = bench_pairs.summary(parent, change, better)
    assert sorted(r["metric"] for r in rows) == sorted(better)
    lines = bench_pairs._table(rows).splitlines()
    assert lines[0].split() == ["metric", "parent", "median", "[q1,", "q3]", "change", "median", "[q1,", "q3]",
                                "change", "wins"]
    assert sorted(line.split()[0] for line in lines[1:]) == sorted(better)
