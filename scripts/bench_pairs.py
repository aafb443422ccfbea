#!/usr/bin/env python3
"""Run the benchmark on two checkouts in alternating pairs and count the change's wins.

    python scripts/bench_pairs.py --parent DIR --change DIR --workload W [--workload W2 ...] --pairs N [--seed S]

``--workload`` may be given more than once: the workloads run in turn, each
its N pairs, with one table and one list of problems per workload, so one
command gates a change on every workload. Each pair runs ``kvbench/run.py --trace 0`` once in each checkout, each run
a new process in that checkout, for ``run_seconds`` of the change's
BENCHMARK.json. Pair i runs the parent first when i is even and the change
first when it is odd, so neither side always meets the machine in the same
state. For every metric the script prints each side's median and quartiles,
the change's median against the parent's, and the pairs the change won
(strictly better in the metric's direction). Then it names every run whose
csv or logits sha256 differs from the parent's first run, or that reported
failures, and every end-to-end metric whose change median is worse than the
parent's by more than the metric's ``bound`` in BENCHMARK.json, a fraction
of the parent median in the metric's ``better`` direction. It exits 1 if it
named any, on any workload. Under the table it prints how much of its bound
each bounded metric used, such as ``peak_rss_mib +5.2% of 10%``, so a
change sees its margin and not only whether it passed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``checkout``: its result line, with the sha256 record as ``sha256``."""
    proc = subprocess.run(
        [sys.executable, "kvbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.exit(f"bench_pairs: run in {checkout} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    info, line = json.loads(lines[-2]), json.loads(lines[-1])
    return {**line, "sha256": info["sha256"]}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) of ``values``, interpolated linearly."""
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return float(q1), float(median), float(q3)


def summary(parent: list[dict], change: list[dict], better: dict[str, str]) -> list[dict]:
    """One row per metric both sides report: each side's quartiles and the change's wins.

    ``parent[i]`` and ``change[i]`` are pair i's runs; ``better`` maps a
    metric to "lower" or "higher". A metric missing from ``better`` counts no wins.
    """
    rows = []
    for name in parent[0]["metrics"]:
        if name not in change[0]["metrics"]:
            continue
        p = [run["metrics"][name]["value"] for run in parent]
        c = [run["metrics"][name]["value"] for run in change]
        sign = {"lower": -1, "higher": 1}.get(better.get(name), 0)
        rows.append({
            "metric": name,
            "parent": quartiles(p),
            "change": quartiles(c),
            "wins": sum(sign * (cv - pv) > 0 for pv, cv in zip(p, c)),
            "pairs": len(p),
        })
    return rows


def problems(parent: list[dict], change: list[dict]) -> list[str]:
    """Runs whose sha256 differs from the parent's first run, or that report failures."""
    want = parent[0]["sha256"]
    found = []
    for side, runs in (("parent", parent), ("change", change)):
        for i, run in enumerate(runs):
            for kind, digest in run["sha256"].items():
                if digest != want[kind]:
                    found.append(f"{side} pair {i}: {kind} sha256 {digest[:12]} != parent's {want[kind][:12]}")
            if run["failed"]:
                found.append(f"{side} pair {i}: {run['failed']} of {run['attempted']} operations failed")
    return found


def _worse(r: dict, better: str) -> float:
    """How far a :func:`summary` row's change median is worse than the parent's (negative: better)."""
    parent, change = r["parent"][1], r["change"][1]
    return change - parent if better == "lower" else parent - change


def over_bounds(rows: list[dict], bounds: dict[str, tuple[str, float]]) -> list[str]:
    """The :func:`summary` rows whose change median is worse than the parent's by more than their bound.

    ``bounds`` maps a metric to its ("lower" or "higher", bound); a metric
    missing from it is not gated.
    """
    found = []
    for r in rows:
        if r["metric"] not in bounds:
            continue
        better, bound = bounds[r["metric"]]
        parent, change = r["parent"][1], r["change"][1]
        if _worse(r, better) > bound * abs(parent):
            found.append(f"{r['metric']}: change median {change:.6g} is worse than the parent's {parent:.6g} "
                         f"by more than its bound of {bound:.0%}")
    return found


def bound_use(rows: list[dict], bounds: dict[str, tuple[str, float]]) -> list[str]:
    """How much of its bound each gated :func:`summary` row used, e.g. ``peak_rss_mib +5.2% of 10%``.

    The share is the change median's move in the worse direction, a fraction
    of the parent median; a negative share is a move in the better one.
    ``bounds`` is as in :func:`over_bounds`.
    """
    found = []
    for r in rows:
        if r["metric"] in bounds:
            better, bound = bounds[r["metric"]]
            parent = abs(r["parent"][1])
            share = _worse(r, better) / parent if parent else 0.0
            found.append(f"{r['metric']} {share:+.1%} of {bound:.0%}")
    return found


def _table(rows: list[dict]) -> str:
    def cell(q: tuple[float, float, float]) -> str:
        return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"

    lines = [["metric", "parent median [q1, q3]", "change median [q1, q3]", "change", "wins"]]
    for r in rows:
        delta = (r["change"][1] - r["parent"][1]) / r["parent"][1] if r["parent"][1] else 0.0
        lines.append([r["metric"], cell(r["parent"]), cell(r["change"]), f"{delta:+.1%}",
                      f"{r['wins']}/{r['pairs']}"])
    widths = [max(len(line[i]) for line in lines) for i in range(len(lines[0]))]
    return "\n".join("  ".join(c.ljust(w) for c, w in zip(line, widths)).rstrip() for line in lines)


def gate(parent: Path, change: Path, workload: str, pairs: int, seed: int, bench: dict) -> list[str]:
    """Run ``pairs`` alternating pairs of ``workload``, print its table and problems, and return the problems."""
    seconds = bench["run_seconds"]
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    bounds = {m["name"]: (m["better"], m["bound"]) for m in bench["end_to_end"]}
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    checkouts = {"parent": parent, "change": change}
    for i in range(pairs):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            runs[side].append(run_once(checkouts[side], workload, seed, seconds))
    print(f"{workload}, seed {seed}, {pairs} pairs of {seconds:g} s runs")
    rows = summary(runs["parent"], runs["change"], better)
    print(_table(rows))
    print("bound used: " + ", ".join(bound_use(rows, bounds)))
    found = problems(runs["parent"], runs["change"]) + over_bounds(rows, bounds)
    for line in found:
        print(line)
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", action="append", required=True, help="may be given more than once")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    bench = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = {w["name"] for w in bench["workloads"]}
    for workload in args.workload:
        if workload not in names:
            parser.error(f"--workload must be one of BENCHMARK.json's workloads, got {workload!r}")
    found = []
    for i, workload in enumerate(args.workload):
        if i:
            print()
        found += gate(args.parent, args.change, workload, args.pairs, args.seed, bench)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
