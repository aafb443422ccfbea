"""Declarative sweep runner over compression configurations.

A sweep config is a flat ``key = value`` text file (lists comma-separated,
one level only, ``#`` comments). The grid crosses eviction policy, bit
width, token multiplier, group size, quantization strategy, layer override
set, sequence length and seed; every grid point prefills a model, compresses
the cache under the point's plan, decodes task queries through it and
records retrieval accuracy, logit perturbation against the uncompressed
decode path, and exact byte accounting.

Each schema is stated once: config keys and their parsers derive from the
``SweepConfig`` annotations, CSV columns and their formats from the
``SweepRow`` fields, and validation asks the types that own each rule
(``PolicyConfig``, ``budget.PLAN_BITS``, ``STRATEGIES``, ``enumerate_grid``).

Infeasible grid points (e.g. a budget below the policy's window) are
recorded as skips with a reason and never crash the sweep. Results are
emitted as CSV with a fixed 14-column schema in deterministic order (grid
order, then seed), so identical configs produce byte-identical files; wall
times are kept on the row objects but excluded from the CSV for that reason.
"""

from __future__ import annotations

import functools
import itertools
import time
import typing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from .budget import (
    PLAN_BITS,
    BudgetPlan,
    LayerOverride,
    apply_overrides,
    fp16_kv_bytes,
    plan_for_tokens,
    pyramid_allocation,
)
from .cache import prefill_compress
from .errors import ContractViolation
from .model import (
    DenseKV,
    Model,
    ModelConfig,
    build_recall_model,
    decode_step,
    decode_step_dense,
    embed_token,
    load_weights,
    prefill,
    random_model,
)
from .prune import PolicyConfig, PolicyKind, ScoreContext
from .quant import Layout
from .tasks import gen_probe_prompt, gen_recall_task


class ConfigError(ValueError):
    """A sweep config failed to parse or validate."""


# Quantization strategy axis: grouping layout for keys, with or without the
# fixed |v| > 6 outlier filter. Values are per-token (both caches grouped
# along channels inside a token) or per-channel (keys grouped along tokens
# inside a channel, values still per-token).
STRATEGIES: dict[str, tuple[Layout, float | None]] = {
    "per_token": (Layout.PER_TOKEN, None),
    "per_channel": (Layout.PER_CHANNEL, None),
    "per_token_outlier": (Layout.PER_TOKEN, 6.0),
    "per_channel_outlier": (Layout.PER_CHANNEL, 6.0),
}


@dataclass(frozen=True)
class SweepConfig:
    task: str = "recall"
    model: str = "recall"  # recall | random (or set weights_file)
    weights_file: str = ""
    seq_lens: tuple[int, ...] = (256,)
    seeds: tuple[int, ...] = (0,)
    policies: tuple[str, ...] = ("snapkv",)
    bits: tuple[int, ...] = (4, 8, 16)
    token_multipliers: tuple[int, ...] = (1, 2, 4)
    paired_budget: bool = True
    group_sizes: tuple[int, ...] = (64,)
    layouts: tuple[str, ...] = ("per_token",)
    overrides: tuple[str, ...] = ("none",)
    base_tokens: int = 64
    full_cache_tokens: int = 256
    num_pairs: int = 8
    needle_depths: tuple[float, ...] = ()
    filler_vocab: int = 32
    probe_steps: int = 4
    layers: int = 1
    heads: int = 1
    d_model: int = 32
    vocab: int = 64
    context_limit: int = 2048
    pyramid_min_fraction: float = 0.2
    recent_window: int | None = None
    pool_width: int = 7
    output: str = ""

    def depths(self) -> tuple[float, ...]:
        if self.needle_depths:
            return self.needle_depths
        n = self.num_pairs
        if n == 1:
            return (0.5,)
        return tuple(i / (n - 1) for i in range(n))


@dataclass(frozen=True)
class GridPoint:
    index: int
    policy: str
    bits: int
    multiplier: int
    group_size: int
    strategy: str
    override_spec: str
    seq_len: int
    seed: int


@dataclass
class SweepRow:
    policy: str
    bits: int
    token_multiplier: int
    tokens_per_layer: int
    group_size: int
    layout: str
    override_id: str
    seed: int
    seq_len: int
    accuracy: float
    logit_perturb: float
    bytes: int
    budget_ratio_raw: float
    budget_ratio_meta: float
    wall_time: float = 0.0  # informational only, never emitted to CSV

    def csv_values(self) -> list[str]:
        return [
            _fmt(getattr(self, col)) if kind is float else str(getattr(self, col))
            for col, kind in _CSV_TYPES.items()
        ]


@dataclass
class SweepSkip:
    point: GridPoint
    reason: str


def _fmt(x: float) -> str:
    return format(float(x), ".6g")


# CSV column -> SweepRow field type, which both formats and parses the column.
_ROW_TYPES = typing.get_type_hints(SweepRow)
_CSV_TYPES = {f.name: _ROW_TYPES[f.name] for f in fields(SweepRow) if f.name != "wall_time"}
CSV_COLUMNS = tuple(_CSV_TYPES)


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------


def _parse_bool(val: str) -> bool:
    if val.lower() not in ("true", "false"):
        raise ValueError(f"expected true/false, got {val!r}")
    return val.lower() == "true"


def _list_of(item):
    return lambda val: tuple(item(v.strip()) for v in val.split(",") if v.strip())


# One parser per SweepConfig annotation type; an empty optional int is None.
_PARSERS = {
    int: int,
    float: float,
    str: str,
    bool: _parse_bool,
    int | None: lambda val: int(val) if val else None,
    tuple[int, ...]: _list_of(int),
    tuple[float, ...]: _list_of(float),
    tuple[str, ...]: _list_of(str),
}
_FIELD_PARSERS = {key: _PARSERS[t] for key, t in typing.get_type_hints(SweepConfig).items()}


def parse_config(text: str) -> SweepConfig:
    """Parse and validate the flat key-value schema (see module docstring)."""
    values: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in _FIELD_PARSERS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: repeated key {key!r}")
        try:
            values[key] = _FIELD_PARSERS[key](val.strip())
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {exc}") from exc
    cfg = SweepConfig(**values)
    _require_valid(cfg)
    return cfg


def _require_valid(cfg: SweepConfig) -> None:
    problems = validate_config(cfg)
    if problems:
        raise ConfigError("; ".join(problems))


def validate_config(cfg: SweepConfig) -> list[str]:
    """Return a list of problems (empty when the config is usable)."""
    problems = []
    if cfg.task not in ("recall", "random_probe"):
        problems.append(f"task must be recall or random_probe, got {cfg.task!r}")
    if cfg.model not in ("recall", "random"):
        problems.append(f"model must be recall or random, got {cfg.model!r}")
    if cfg.task == "recall" and (cfg.model != "recall" or cfg.weights_file):
        # the pair vocabulary cannot be reconstructed from a weights file
        problems.append("the recall task requires the built-in recall model")
    if cfg.model == "random" and not cfg.weights_file:
        try:
            ModelConfig(cfg.layers, cfg.heads, cfg.d_model, cfg.vocab, cfg.context_limit)
        except ContractViolation as exc:
            problems.append(f"random model: {exc}")
    if not enumerate_grid(cfg):
        problems.append("the grid is empty (an axis has no value, or no bits x multiplier is 16)")
    for p in cfg.policies:
        try:
            PolicyConfig(PolicyKind(p), cfg.recent_window, cfg.pool_width)
        except ContractViolation as exc:
            problems.append(f"policy {p}: {exc}")
        except ValueError:
            problems.append(f"unknown policy {p!r}")
    for b in cfg.bits:
        if b not in PLAN_BITS:
            problems.append(f"bits must be one of {PLAN_BITS}, got {b}")
    for g in cfg.group_sizes:
        if g < 1:
            problems.append(f"group size must be >= 1, got {g}")
    for s in cfg.layouts:
        if s not in STRATEGIES:
            problems.append(f"unknown layout/strategy {s!r}")
    for spec in cfg.overrides:
        try:
            parse_override_spec(spec)
        except ContractViolation as exc:
            problems.append(f"bad override {spec!r}: {exc}")
    for n in cfg.seq_lens:
        if n < 4:
            problems.append(f"seq_len {n} too short")
        if cfg.model == "random" and n > cfg.context_limit:
            problems.append(f"seq_len {n} exceeds context_limit {cfg.context_limit}")
    if any(s < 0 for s in cfg.seeds):
        problems.append("seeds must be >= 0")
    if cfg.task == "recall":
        if cfg.num_pairs < 1:
            problems.append("num_pairs must be >= 1 for the recall task")
        if cfg.filler_vocab < 1:
            problems.append("filler_vocab must be >= 1 for the recall task")
        if cfg.needle_depths and len(cfg.needle_depths) != cfg.num_pairs:
            problems.append("needle_depths length must equal num_pairs")
        for d in cfg.needle_depths:
            if not 0.0 <= d <= 1.0:
                problems.append(f"needle depth {d} outside [0, 1]")
        for n in cfg.seq_lens:
            if 2 * cfg.num_pairs > n:
                problems.append(f"{cfg.num_pairs} pairs cannot fit in seq_len {n}")
    if cfg.task == "random_probe" and cfg.probe_steps < 1:
        problems.append("probe_steps must be >= 1 for the random_probe task")
    if cfg.base_tokens < 1:
        problems.append("base_tokens must be >= 1")
    if cfg.full_cache_tokens < 1:
        problems.append("full_cache_tokens must be >= 1")
    if not 0 < cfg.pyramid_min_fraction <= 1:
        problems.append("pyramid_min_fraction must be in (0, 1]")
    return problems


def parse_override_spec(spec: str) -> list[LayerOverride]:
    """Parse 'none' or ';'-joined 'start-end@BITSxMULT' items."""
    spec = spec.strip()
    if spec in ("", "none"):
        return []
    out = []
    for item in spec.split(";"):
        item = item.strip()
        try:
            rng, _, conf = item.partition("@")
            start_s, _, end_s = rng.partition("-")
            bits_s, _, mult_s = conf.partition("x")
            out.append(
                LayerOverride(
                    start=int(start_s),
                    end=int(end_s),
                    bits=int(bits_s),
                    tokens_multiplier=int(mult_s),
                )
            )
        except (ValueError, TypeError) as exc:
            raise ContractViolation(f"cannot parse override item {item!r}") from exc
    return out


# ---------------------------------------------------------------------------
# Grid execution
# ---------------------------------------------------------------------------


def enumerate_grid(cfg: SweepConfig) -> list[GridPoint]:
    """Grid points in axis-major order (policy first, seed last), indexed."""
    axes = itertools.product(cfg.policies, cfg.bits, cfg.token_multipliers, cfg.group_sizes,
                             cfg.layouts, cfg.overrides, cfg.seq_lens, cfg.seeds)
    kept = (a for a in axes if not cfg.paired_budget or a[1] * a[2] == 16)
    return [GridPoint(index, *a) for index, a in enumerate(kept)]


@functools.lru_cache(maxsize=8)
def _recall_model(num_pairs: int, seq_len: int, filler_vocab: int):
    model, vocab, _margin = build_recall_model(num_pairs, seq_len, filler_vocab)
    return model, vocab


def _build_model(cfg: SweepConfig, point: GridPoint):
    if cfg.weights_file:
        return load_weights(cfg.weights_file), None
    if cfg.model == "recall":
        model, vocab = _recall_model(cfg.num_pairs, point.seq_len, cfg.filler_vocab)
        return model, vocab
    mc = ModelConfig(
        layers=cfg.layers,
        heads=cfg.heads,
        d_model=cfg.d_model,
        vocab=cfg.vocab,
        context_limit=cfg.context_limit,
        seed=point.seed,
    )
    return random_model(mc), None


def _contexts(result) -> list[list[ScoreContext]]:
    n = result.hidden.shape[0]
    return [[ScoreContext(attn, n) for attn in row] for row in result.attn]


def _build_plan(cfg: SweepConfig, point: GridPoint, model: Model, policy: PolicyConfig) -> BudgetPlan:
    layout, _thr = STRATEGIES[point.strategy]
    layers = model.config.layers
    tokens = cfg.base_tokens * point.multiplier
    if point.policy == PolicyKind.PYRAMIDKV.value:
        counts = pyramid_allocation(
            layers,
            tokens * layers,
            cfg.pyramid_min_fraction,
            min_tokens=policy.window,
        )
    else:
        counts = [tokens] * layers
    plan = plan_for_tokens(
        counts,
        point.bits,
        heads=model.config.heads,
        head_dim=model.config.head_dim,
        group_size=point.group_size,
        layout=layout,
    )
    return apply_overrides(plan, parse_override_spec(point.override_spec))


def _run_recall(model: Model, task, point: GridPoint, cache, result):
    hits = 0
    perturb = 0.0
    for query in task.queries:
        h = embed_token(model, query.key_token, position=point.seq_len)
        episode = cache.clone()
        logits = decode_step(model, episode, h)
        dense = DenseKV.from_prefill(result)
        ref = decode_step_dense(model, dense, h)
        hits += int(np.argmax(logits) == query.value_token)
        perturb += float(np.abs(logits - ref).max())
    n = len(task.queries)
    return hits / n, perturb / n


def _run_probe(model: Model, cfg: SweepConfig, point: GridPoint, cache, result):
    dense = DenseKV.from_prefill(result)
    token = int(np.argmax(result.logits))
    agree = 0
    perturb = 0.0
    for step in range(cfg.probe_steps):
        h = embed_token(model, token, position=point.seq_len + step)
        ref = decode_step_dense(model, dense, h)
        logits = decode_step(model, cache, h)
        agree += int(np.argmax(logits) == np.argmax(ref))
        perturb += float(np.abs(logits - ref).max())
        token = int(np.argmax(ref))
    return agree / cfg.probe_steps, perturb / cfg.probe_steps


def run_point(cfg: SweepConfig, point: GridPoint) -> SweepRow | SweepSkip:
    """Execute one grid point; contract violations become skips.

    An IntegrityError (corrupt stored data, such as a damaged weights file)
    is not caught: it is a storage fault, not an infeasible config, so it
    aborts the sweep, also under ``run_sweep(parallel=...)``.
    """
    start = time.perf_counter()
    try:
        policy = PolicyConfig(
            PolicyKind(point.policy),
            recent_window=cfg.recent_window,
            pool_width=cfg.pool_width,
        )
        model, vocab = _build_model(cfg, point)
        _layout, threshold = STRATEGIES[point.strategy]
        plan = _build_plan(cfg, point, model, policy)

        task = None
        if cfg.task == "recall":
            task = gen_recall_task(
                point.seq_len, cfg.num_pairs, cfg.depths(), point.seed, vocab
            )
            tokens = task.tokens
        else:
            tokens = gen_probe_prompt(point.seq_len, model.config.vocab, point.seed)

        result = prefill(model, tokens)
        cache = prefill_compress(
            result.keys,
            result.values,
            _contexts(result),
            plan,
            policy,
            outlier_threshold=threshold,
        )
        measured = cache.measured_bytes()
        payload = cache.payload_bytes()
        c = model.config
        full = c.layers * fp16_kv_bytes(cfg.full_cache_tokens, c.heads, c.head_dim)

        if cfg.task == "recall":
            accuracy, perturb = _run_recall(model, task, point, cache, result)
        else:
            accuracy, perturb = _run_probe(model, cfg, point, cache, result)

        return SweepRow(
            policy=point.policy,
            bits=point.bits,
            token_multiplier=point.multiplier,
            tokens_per_layer=cfg.base_tokens * point.multiplier,
            group_size=point.group_size,
            layout=point.strategy,
            override_id=point.override_spec if point.override_spec else "none",
            seed=point.seed,
            seq_len=point.seq_len,
            accuracy=accuracy,
            logit_perturb=perturb,
            bytes=measured,
            budget_ratio_raw=payload / full,
            budget_ratio_meta=measured / full,
            wall_time=time.perf_counter() - start,
        )
    except ContractViolation as exc:
        return SweepSkip(point, str(exc))


def run_sweep(cfg: SweepConfig, parallel: int = 1) -> tuple[list[SweepRow], list[SweepSkip]]:
    """Run the whole grid; returns (completed rows, skipped points) in grid order.

    A config that ``validate_config`` rejects raises ConfigError before any point runs.
    """
    _require_valid(cfg)
    points = enumerate_grid(cfg)
    if parallel > 1:
        with ProcessPoolExecutor(max_workers=parallel) as pool:
            outcomes = list(pool.map(run_point, [cfg] * len(points), points))
    else:
        outcomes = [run_point(cfg, p) for p in points]
    rows = [o for o in outcomes if isinstance(o, SweepRow)]
    skips = [o for o in outcomes if isinstance(o, SweepSkip)]
    return rows, skips


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------


def rows_to_csv(rows: list[SweepRow]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    lines.extend(",".join(row.csv_values()) for row in rows)
    return "\n".join(lines) + "\n"


def emit_csv(rows: list[SweepRow], path) -> None:
    """Write rows with the fixed 14-column schema; header-only when empty."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(rows_to_csv(rows))
    except OSError as exc:
        raise OSError(f"cannot write CSV to {path}: {exc}") from exc


def parse_csv(text: str) -> list[SweepRow]:
    """Parse emit_csv output back into rows (used by tests and scripts)."""
    lines = [ln for ln in text.splitlines() if ln]
    if not lines or lines[0] != ",".join(CSV_COLUMNS):
        raise ValueError("unexpected CSV header")
    rows = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != len(CSV_COLUMNS):
            raise ValueError(f"expected {len(CSV_COLUMNS)} columns, got {len(parts)}")
        rows.append(SweepRow(**{col: _CSV_TYPES[col](part) for col, part in zip(CSV_COLUMNS, parts)}))
    return rows


DEMO_CONFIG = """\
# Built-in demonstration sweep: paired token-precision trade-off on the
# retrieval task, two eviction policies, two seeds.
task = recall
model = recall
seq_lens = 256
seeds = 0, 1
policies = snapkv, streaming_llm
bits = 16, 8, 4
token_multipliers = 1, 2, 4
paired_budget = true
group_sizes = 64
layouts = per_token
overrides = none
base_tokens = 64
full_cache_tokens = 256
num_pairs = 8
filler_vocab = 32
"""
