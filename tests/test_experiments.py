"""The experiment configs under ``experiments/`` and the CSV summarizer."""

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import kvtrade
from kvtrade.cli import main
from kvtrade.sweep import emit_csv, enumerate_grid, parse_config, run_sweep

ROOT = Path(__file__).resolve().parents[1]
SUMMARIZE = ROOT / "scripts" / "summarize.py"
# summary lines per experiment: its grid's points at one seed
SUMMARY_LINES = {"budget_tradeoff": 30, "layer_overrides": 9, "quant_strategy": 12}


def _config(name: str):
    return parse_config((ROOT / "experiments" / f"{name}.cfg").read_text(encoding="utf-8"))


def _summarize(*csvs) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(kvtrade.__file__))}
    return subprocess.run([sys.executable, str(SUMMARIZE), *map(str, csvs)],
                          env=env, capture_output=True, text=True)


def test_every_experiment_is_there():
    assert sorted(p.stem for p in (ROOT / "experiments").glob("*.cfg")) == sorted(SUMMARY_LINES)


@pytest.mark.parametrize("name", sorted(SUMMARY_LINES))
def test_experiment_runs_and_summarizes(name, tmp_path):
    assert (ROOT / "experiments" / f"{name}.cfg").read_text(encoding="utf-8").startswith("# ")
    cfg = _config(name)
    rows, skips = run_sweep(replace(cfg, seeds=cfg.seeds[:1]))
    assert rows and not skips
    csv = tmp_path / "sweep.csv"
    emit_csv(rows, csv)

    proc = _summarize(csv)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].split()[-4:] == ["seeds", "median_accuracy", "median_logit_perturb",
                                     "median_budget_ratio_meta"]
    assert len(lines) == 1 + SUMMARY_LINES[name]
    assert all(line.split()[-4] == "1" for line in lines[1:])


# each full config's CSV bytes (ROADMAP rule 1), identical under 1 and 2 BLAS threads; both
# run the hand-built recall model. layer_overrides is not pinned: it runs the random
# model, whose BLAS products may round differently on another CPU.
CSV_SHA256 = {
    "budget_tradeoff": "4e9b52515e76423c969beee1f2670640610a1f249c862e9b0a12fc214bde88b1",
    "quant_strategy": "6d65fdeceb0ef96fd2dc474b71df0b534156ff2cfcf13b2d0201dc078ebe9125",
}


@pytest.mark.parametrize("name", sorted(CSV_SHA256))
def test_full_config_csv_keeps_its_bytes(name, tmp_path):
    out = tmp_path / f"{name}.csv"
    assert main(["run", "--config", str(ROOT / "experiments" / f"{name}.cfg"), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CSV_SHA256[name]


# the benchmark's headline workload runs the recall model too, so its seed-0 CSV is pinned the same
# way; its logits and the two random-model workloads are not, as their BLAS sums may differ by CPU
RECALL_TRADEOFF_CSV_SHA256 = "96a27e3f04ea6799e28fc5d6381653d6fb128af2768e7c22d60d736af8019b0a"


def test_benchmark_recall_workload_csv_keeps_its_bytes():
    proc = subprocess.run([sys.executable, "kvbench/run.py", "--workload", "recall_tradeoff", "--seed", "0",
                           "--seconds", "0", "--trace", "0"], cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    info, result = map(json.loads, proc.stdout.splitlines()[-2:])
    assert result["correct"] and result["failed"] == 0
    assert info["sha256"]["csv"] == RECALL_TRADEOFF_CSV_SHA256


def test_budget_grid_holds_the_budget_matched_points():
    points = enumerate_grid(_config("budget_tradeoff"))
    # 1x@16, 2x@8 and 4x@4 at 32, 64 and 128 tokens of 16-bit budget
    matched = {(p.bits, 32 * p.token_multiplier) for p in points
               if p.bits * p.token_multiplier in (16, 32, 64)}
    assert matched == {(16, 32), (16, 64), (16, 128), (8, 64), (8, 128), (8, 256),
                       (4, 128), (4, 256), (4, 512)}


def test_summarize_pools_seeds_across_files(tmp_path):
    cfg = replace(_config("quant_strategy"), seeds=(0, 1), layouts=("per_token",), group_sizes=(64,))
    rows, _ = run_sweep(cfg)
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(rows[:1], first)
    emit_csv(rows[1:], second)
    proc = _summarize(first, second)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 2
    assert lines[1].split()[-4] == "2"


def test_summarize_without_a_csv_prints_its_usage():
    proc = _summarize()
    assert proc.returncode == 1
    assert "summarize.py <sweep.csv>" in proc.stderr
