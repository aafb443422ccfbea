"""Command-line entry point.

Subcommands:

* ``run --config <path>``: execute a sweep config and write its CSV. The
  special config name ``demo`` uses the built-in demonstration sweep.
* ``validate --config <path>``: schema-check a config; exit 0 when valid,
  2 when not.
* ``demo``: run the built-in sweep and print a result table.

Exit codes: 0 success, 1 runtime error, 2 config error. When set, the
``KVTRADE_OUT_DIR`` environment variable provides the default directory for
relative output paths.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .errors import IntegrityError
from .sweep import (
    DEMO_CONFIG,
    ConfigError,
    SweepRow,
    emit_csv,
    parse_config,
    run_sweep,
)

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2

OUT_DIR_ENV = "KVTRADE_OUT_DIR"


def _read_config(spec: str) -> str:
    if spec == "demo":
        return DEMO_CONFIG
    return Path(spec).read_text(encoding="utf-8")


def _resolve_out(arg_out: str | None, cfg_out: str) -> Path:
    name = arg_out or cfg_out or "sweep.csv"
    path = Path(name)
    if not path.is_absolute():
        base = os.environ.get(OUT_DIR_ENV)
        if base:
            path = Path(base) / path
    return path


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


def _cmd_run(args) -> int:
    try:
        cfg = parse_config(_read_config(args.config))
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except IntegrityError as exc:  # a damaged weights file, read to validate
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    try:
        rows, skips = run_sweep(cfg, parallel=args.parallel)
        out = _resolve_out(args.out, cfg.output)
        out.parent.mkdir(parents=True, exist_ok=True)
        emit_csv(rows, out)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    print(f"wrote {len(rows)} rows to {out} ({len(skips)} skipped)")
    if skips and args.verbose:
        for skip in skips:
            p = skip.point
            print(
                f"skipped {p.policy}/{p.bits}b/x{p.multiplier}/{p.strategy}"
                f"/seed{p.seed}: {skip.reason}",
                file=sys.stderr,
            )
    return EXIT_OK


def _cmd_validate(args) -> int:
    try:
        parse_config(_read_config(args.config))
    except (ConfigError, OSError) as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except IntegrityError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    print("ok")
    return EXIT_OK


def _cmd_demo(args) -> int:
    cfg = parse_config(DEMO_CONFIG)
    try:
        rows, skips = run_sweep(cfg)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    _print_table(rows, sys.stdout)
    if skips:
        print(f"({len(skips)} grid points skipped)")
    if args.out:
        out = _resolve_out(args.out, "")
        out.parent.mkdir(parents=True, exist_ok=True)
        emit_csv(rows, out)
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
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
