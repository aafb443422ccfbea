#!/usr/bin/env python3
"""Median results per configuration of one or more sweep CSVs.

    python scripts/summarize.py <sweep.csv> [<sweep.csv> ...]

Rows are grouped by every column except ``seed`` and the measured values.
Each group, in first-seen order, prints its seed count and the medians of
accuracy, logit perturbation and the metadata-inclusive budget ratio.
"""

import statistics
import sys
from pathlib import Path

from kvtrade.sweep import CSV_COLUMNS, parse_csv

MEDIANS = ("accuracy", "logit_perturb", "budget_ratio_meta")
KEY = [c for c in CSV_COLUMNS if c not in ("seed", "bytes", "budget_ratio_raw", *MEDIANS)]


def main(paths: list[str]) -> None:
    groups: dict[tuple, list] = {}
    for path in paths:
        for row in parse_csv(Path(path).read_text(encoding="utf-8")):
            groups.setdefault(tuple(getattr(row, c) for c in KEY), []).append(row)
    table = [KEY + ["seeds"] + [f"median_{m}" for m in MEDIANS]]
    for key, rows in groups.items():
        medians = (statistics.median(getattr(r, m) for r in rows) for m in MEDIANS)
        table.append([*map(str, key), str(len({r.seed for r in rows})), *(f"{v:.6g}" for v in medians)])
    widths = [max(len(line[i]) for line in table) for i in range(len(table[0]))]
    for line in table:
        print("  ".join(cell.rjust(w) for cell, w in zip(line, widths)))


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    main(sys.argv[1:])
