"""Smoke test of the benchmark at a tiny scale.

Run with ``python3 -m pytest -q kvbench``. Each workload runs once untraced
and once traced, in this process, on inputs a few hundred times smaller than
the benchmark's; every metric named in BENCHMARK.json must come out with its
unit and every output check must pass.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())

TINY = {
    "recall_tradeoff": workloads.RecallSize(seq_len=128, seeds=2, num_pairs=8, base_tokens=32),
    "prefill_long": workloads.PrefillSize(
        seq_len=128, points=2, layers=2, heads=2, d_model=16, vocab=32, base_tokens=32,
        probe_steps=2,
    ),
    "decode_stream": workloads.DecodeSize(
        seq_len=64, layers=1, heads=2, d_model=32, vocab=32, tokens=32, group_size=8,
        steps=16, streams=2,
    ),
}


def test_benchmark_names_its_workloads():
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(workloads.WORKLOADS) == set(TINY)


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
def test_tiny_run_emits_every_metric(name, trace, tmp_path):
    line, info = run.run_workload(name, 7, 0, trace, TINY[name], trace_dir=tmp_path)
    assert info["problems"] == []
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(line["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        assert line["metrics"][m["name"]]["unit"] == m["unit"], m["name"]
    if not trace:
        for m in expected:
            assert line["metrics"][m["name"]]["value"] > 0, m["name"]
        return
    metrics = {k: v["value"] for k, v in line["metrics"].items()}
    assert (tmp_path / f"trace-{name}-seed7.jsonl").stat().st_size > 0
    assert metrics["trace.overhead_ratio"] > 0
    if name == "prefill_long":
        assert metrics["quant.dequantize_matrix.calls"] == 0
    if name == "recall_tradeoff":
        # each quantized point decodes its K and V block once per query
        pairs = TINY[name].num_pairs
        assert metrics["quant.dequantize_matrix.distinct_ratio"] == 2 / (2 * pairs)
        assert metrics["budget.plan_to_measured_ratio"] > 0
    if name == "decode_stream":
        size = TINY[name]
        flushes = size.streams * size.layers * size.heads * (size.steps // size.group_size)
        assert metrics["cache.flushes"] == flushes
        # every step decodes the same immutable blocks again
        assert metrics["quant.dequantize_matrix.distinct_ratio"] < 0.5
        assert metrics["cache.serialized_to_accounted"] > 1


def test_fails_without_the_package(tmp_path):
    """In a directory holding only the benchmark, a run exits non-zero and prints no result."""
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "recall_tradeoff",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
