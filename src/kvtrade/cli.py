"""Command-line entry point.

Subcommands:

* ``run --config <path>``: execute a sweep config and write its CSV. The
  special config name ``demo`` uses the built-in demonstration sweep.
* ``validate --config <path>``: schema-check a config; exit 0 when valid,
  2 when not.
* ``demo``: ``run --config demo`` plus a result table; a CSV only with ``--out``.

Exit codes: 0 success, 1 runtime error, 2 config error. When set, the
``KVTRADE_OUT_DIR`` environment variable provides the default directory for
relative output paths.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields
from pathlib import Path

from .errors import ContractViolation, require_int
from .sweep import (
    DEMO_CONFIG,
    ConfigError,
    SweepConfig,
    SweepRow,
    SweepSkip,
    emit_csv,
    parse_config,
    run_sweep,
)

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2

OUT_DIR_ENV = "KVTRADE_OUT_DIR"


def _load_config(spec: str) -> SweepConfig:
    """Parse the config file at ``spec``, or the built-in one for ``demo``.

    An unreadable file is a ConfigError.
    """
    try:
        text = DEMO_CONFIG if spec == "demo" else Path(spec).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(str(exc)) from exc
    return parse_config(text)


def _print_table(rows: list[SweepRow], stream) -> None:
    cols = ("policy", "bits", "token_multiplier", "tokens_per_layer",
            "layout", "seed", "accuracy", "logit_perturb", "budget_ratio_meta")
    table = [cols] + [
        tuple(
            f"{getattr(r, c):.4g}" if isinstance(getattr(r, c), float) else str(getattr(r, c))
            for c in cols
        )
        for r in rows
    ]
    widths = [max(len(line[i]) for line in table) for i in range(len(cols))]
    for line in table:
        print("  ".join(cell.ljust(w) for cell, w in zip(line, widths)), file=stream)


def _run(spec: str, parallel: int, out: str | None) -> tuple[list[SweepRow], list[SweepSkip], Path | None]:
    """Run the config at ``spec``; returns its rows, its skips and the CSV path written.

    Unless ``out`` is None the CSV goes to ``out``, else the config's ``output``,
    else ``sweep.csv``, a relative path under ``KVTRADE_OUT_DIR`` when that is set.
    """
    cfg = _load_config(spec)
    rows, skips = run_sweep(cfg, parallel=parallel)
    if out is not None:
        out = Path(out or cfg.output or "sweep.csv")
        if not out.is_absolute() and os.environ.get(OUT_DIR_ENV):
            out = Path(os.environ[OUT_DIR_ENV]) / out
        out.parent.mkdir(parents=True, exist_ok=True)
        emit_csv(rows, out)
    return rows, skips, out


def _cmd_run(args) -> int:
    rows, skips, out = _run(args.config, args.parallel, args.out or "")
    print(f"wrote {len(rows)} rows to {out} ({len(skips)} skipped)")
    if args.verbose:
        for skip in skips:
            label = " ".join(f"{f.name}={getattr(skip.point, f.name)}"
                             for f in fields(skip.point) if f.name != "index")
            print(f"skipped {label}: {skip.reason}", file=sys.stderr)
    return EXIT_OK


def _cmd_validate(args) -> int:
    _load_config(args.config)
    print("ok")
    return EXIT_OK


def _cmd_demo(args) -> int:
    rows, skips, out = _run("demo", 1, args.out or None)
    _print_table(rows, sys.stdout)
    if skips:
        print(f"({len(skips)} grid points skipped)")
    if out is not None:
        print(f"wrote {out}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="kvtrade",
        description="Token-precision trade-off sweeps for compressed KV caches.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a sweep config and write CSV")
    p_run.add_argument("--config", required=True, help="config path, or 'demo'")
    p_run.add_argument("--out", help="output CSV path")
    p_run.add_argument("--parallel", type=int, default=1, help="worker processes")
    p_run.add_argument("--verbose", action="store_true")
    p_run.set_defaults(func=_cmd_run)

    p_val = sub.add_parser("validate", help="schema-check a config")
    p_val.add_argument("--config", required=True)
    p_val.set_defaults(func=_cmd_validate)

    p_demo = sub.add_parser("demo", help="run the built-in tiny sweep")
    p_demo.add_argument("--out", help="also write the CSV here")
    p_demo.set_defaults(func=_cmd_demo)

    args = parser.parse_args(argv)
    if args.command == "run":  # argparse itself rejects a non-integer
        try:
            require_int("--parallel", args.parallel, 1)
        except ContractViolation as exc:
            p_run.error(str(exc))
    try:
        return args.func(args)
    except ConfigError as exc:
        label = "invalid" if args.command == "validate" else "config error"
        print(f"{label}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - CLI boundary; IntegrityError among them
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
