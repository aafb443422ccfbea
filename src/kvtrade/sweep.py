"""Declarative sweep runner over compression configurations.

A sweep config is a flat ``key = value`` text file (lists comma-separated,
one level only, ``#`` comments). The grid crosses eviction policy, bit
width, token multiplier, group size, quantization strategy, layer override
set, sequence length and seed; every grid point compresses its prompt's
prefill cache under the point's plan, decodes task queries through it and
records retrieval accuracy, logit perturbation against the uncompressed
decode path, and exact byte accounting. The points of one prompt (one
sequence length and seed) share its prefill, score statistics and dense
reference, computed once (see ``run_point``).

Each schema is stated once: config keys and their parsers derive from the
``SweepConfig`` annotations, CSV columns and their formats from the
``SweepRow`` fields, and validation asks the types that own each rule
(``require_int``, ``PolicyConfig``, ``ModelConfig``, ``budget.PLAN_BITS``,
``STRATEGIES``, ``enumerate_grid``, ``apply_overrides``, ``RecallVocab`` and
``gen_recall_task``, which places the needles) when a ``SweepConfig`` is
built, so every config that exists, parsed or built in code, is valid.

Infeasible grid points (e.g. a budget below the policy's window) are
recorded as skips with a reason and never crash the sweep. Results are
emitted as CSV with a fixed 14-column schema in deterministic order (grid
order, then seed), so identical configs produce byte-identical files.
"""

from __future__ import annotations

import functools
import itertools
import os
import typing
from dataclasses import dataclass, fields

import numpy as np

from .budget import (
    PLAN_BITS,
    BudgetPlan,
    LayerOverride,
    apply_overrides,
    fp16_kv_bytes,
    plan_for_tokens,
    preserves_budget,
    pyramid_allocation,
)
from .cache import prefill_compress
from .errors import ContractViolation, is_number, require_int
from .model import (
    DenseKV,
    Model,
    ModelConfig,
    RecallVocab,
    build_recall_model,
    decode_step,
    decode_step_dense,
    embed_token,
    load_weights,
    prefill,
    prefill_kv0,
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
    """One sweep's settings; building one (``replace`` too) raises ConfigError naming each problem."""

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

    def __post_init__(self) -> None:
        problems = [f"{key} must be a tuple, got {getattr(self, key)!r}"
                    for key in _TUPLE_KEYS if not isinstance(getattr(self, key), tuple)]
        if problems:  # the checks below read every axis as a tuple
            raise ConfigError("; ".join(problems))

        def ints(name: str, values, minimum: int) -> list[int]:
            """The integers >= ``minimum`` in ``values``, a tuple or one value; the rest are problems."""
            kept = []
            for value in values if isinstance(values, tuple) else (values,):
                try:
                    kept.append(require_int(name, value, minimum))
                except ContractViolation as exc:
                    problems.append(str(exc))
            return kept

        if self.task not in ("recall", "random_probe"):
            problems.append(f"task must be recall or random_probe, got {self.task!r}")
        if self.model not in ("recall", "random"):
            problems.append(f"model must be recall or random, got {self.model!r}")
        weights_file = self.weights_file
        if not isinstance(weights_file, (str, os.PathLike)):
            # open() would take an integer for a file descriptor
            problems.append(f"weights_file must be a path, got {weights_file!r}")
            weights_file = ""
        if not isinstance(self.output, (str, os.PathLike)):
            problems.append(f"output must be a path, got {self.output!r}")
        if self.task == "recall" and (self.model != "recall" or weights_file):
            # the pair vocabulary cannot be reconstructed from a weights file
            problems.append("the recall task requires the built-in recall model")
        context_limit = layers = None  # unknown for an unreadable file; recall fits each seq_len
        if weights_file:
            try:
                file_config = _load_weights_file(weights_file).config
                context_limit, layers = file_config.context_limit, file_config.layers
            except OSError:
                pass  # reported when a point loads it
        elif self.model == "random":
            context_limit = self.context_limit
            try:
                layers = ModelConfig(self.layers, self.heads, self.d_model, self.vocab, context_limit).layers
            except ContractViolation as exc:
                problems.append(f"random model: {exc}")
        elif self.model == "recall":
            layers = 1  # build_recall_model's single layer
        if not enumerate_grid(self):
            problems.append("the grid is empty (an axis has no value, or no bits x multiplier is 16)")
        for p in self.policies:
            try:
                self.policy(p)
            except ContractViolation as exc:
                problems.append(f"policy {p}: {exc}")
        for b in ints("bits", self.bits, 0):  # the integer check first: 4.0 in PLAN_BITS holds
            if b not in PLAN_BITS:
                problems.append(f"bits must be one of {PLAN_BITS}, got {b}")
        seq_lens = ints("seq_lens", self.seq_lens, 4)
        for name, minimum in {"seeds": 0, "token_multipliers": 1, "group_sizes": 1,
                              "base_tokens": 1, "full_cache_tokens": 1, "probe_steps": 1}.items():
            ints(name, getattr(self, name), minimum)
        for s in self.layouts:
            if s not in STRATEGIES:
                problems.append(f"unknown layout/strategy {s!r}")
        for spec in self.overrides:
            try:
                overrides = parse_override_spec(spec)
                if layers is not None:  # apply_overrides fits the ranges to the model's layers
                    apply_overrides(plan_for_tokens([1] * layers, 16, heads=1, head_dim=1), overrides)
            except ContractViolation as exc:
                problems.append(f"bad override {spec!r}: {exc}")
        for n in seq_lens:
            if context_limit is not None and n > context_limit:
                problems.append(f"seq_len {n} exceeds context_limit {context_limit}")
        if self.task == "recall":
            # needle placement does not depend on the seed, so seed 0 stands for all
            for n in seq_lens:
                try:
                    # the vocabulary first: depths() counts num_pairs, which it checks
                    vocab = RecallVocab(self.num_pairs, self.filler_vocab)
                    gen_recall_task(n, self.num_pairs, self.depths(), 0, vocab)
                except ContractViolation as exc:
                    problems.append(f"recall task at seq_len {n}: {exc}")
        if not (is_number(self.pyramid_min_fraction) and 0 < self.pyramid_min_fraction <= 1):
            problems.append("pyramid_min_fraction must be a number in (0, 1], "
                            f"got {self.pyramid_min_fraction!r}")
        if not isinstance(self.paired_budget, (bool, np.bool_)):
            problems.append(f"paired_budget must be True or False, got {self.paired_budget!r}")
        if problems:
            raise ConfigError("; ".join(problems))

    def policy(self, name: str) -> PolicyConfig:
        try:
            kind = PolicyKind(name)
        except ValueError:
            raise ContractViolation(f"unknown policy {name!r}") from None
        return PolicyConfig(kind, self.recent_window, self.pool_width)

    def depths(self) -> tuple[float, ...]:
        if self.needle_depths:
            return self.needle_depths
        n = self.num_pairs
        if n == 1:
            return (0.5,)
        return tuple(i / (n - 1) for i in range(n))


@dataclass(frozen=True)
class GridPoint:
    """One point of the grid; every field but ``index`` fills the CSV column of its name."""

    index: int
    policy: str
    bits: int
    token_multiplier: int
    group_size: int
    layout: str  # a STRATEGIES key
    override_id: str  # an override spec, "none" for none
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
_CSV_TYPES = {f.name: _ROW_TYPES[f.name] for f in fields(SweepRow)}
CSV_COLUMNS = tuple(_CSV_TYPES)
_POINT_COLUMNS = [f.name for f in fields(GridPoint) if f.name in _CSV_TYPES]  # filled by the point


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
_FIELD_TYPES = typing.get_type_hints(SweepConfig)
_FIELD_PARSERS = {key: _PARSERS[t] for key, t in _FIELD_TYPES.items()}
# the keys a SweepConfig must hold as tuples, however it is built
_TUPLE_KEYS = [key for key, t in _FIELD_TYPES.items() if typing.get_origin(t) is tuple]


def parse_config(text: str) -> SweepConfig:
    """Parse the flat key-value schema (see module docstring) into a config."""
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
    return SweepConfig(**values)


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
    overrides = [o or "none" for o in cfg.overrides]
    axes = itertools.product(cfg.policies, cfg.bits, cfg.token_multipliers, cfg.group_sizes,
                             cfg.layouts, overrides, cfg.seq_lens, cfg.seeds)
    kept = (a for a in axes if not cfg.paired_budget or preserves_budget(a[1], a[2]))
    return [GridPoint(index, *a) for index, a in enumerate(kept)]


@functools.lru_cache(maxsize=4)
def _weights_model(path: str, mtime_ns: int, size: int) -> Model:
    return load_weights(path)


def _load_weights_file(path: str) -> Model:
    """``load_weights(path)``, read once per process while the file is unchanged."""
    st = os.stat(path)
    return _weights_model(path, st.st_mtime_ns, st.st_size)


def _build_model(cfg: SweepConfig, point: GridPoint, prompt: "_Prompt | None") -> Model:
    if cfg.weights_file:  # the one model that can change under a kept prompt
        return _load_weights_file(cfg.weights_file)
    if prompt is not None:  # a built model is a function of the config, seq_len and seed
        return prompt.model
    if cfg.model == "recall":
        return build_recall_model(cfg.num_pairs, point.seq_len, cfg.filler_vocab)[0]
    mc = ModelConfig(cfg.layers, cfg.heads, cfg.d_model, cfg.vocab, cfg.context_limit, seed=point.seed)
    return random_model(mc)


def _build_plan(cfg: SweepConfig, point: GridPoint, model: Model, policy: PolicyConfig) -> BudgetPlan:
    layout, threshold = STRATEGIES[point.layout]
    layers = model.config.layers
    tokens = cfg.base_tokens * point.token_multiplier
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
        outlier_threshold=threshold,
    )
    return apply_overrides(plan, parse_override_spec(point.override_id))


# ---------------------------------------------------------------------------
# Prompt state: the work every grid point of one prompt shares
# ---------------------------------------------------------------------------


@dataclass
class _Prompt:
    """What the grid points of one (seq_len, seed) prompt share, built once.

    ``tokens`` is the prompt as one read-only int64 array, converted once
    from the task's list; prefill and every point's ``prefill_kv0`` check it
    without converting it again. ``contexts`` come from a prefill whose
    window is the longest any policy of the config reads; a scorer reads
    only the trailing rows it needs. The K/V stacks of layers after the
    first are kept read-only; layer 0 is re-projected at each point
    (``prefill_kv0``), because ``run_point`` called in grid order (seed
    innermost, as the benchmark does) keeps every seed's state live at
    once, and holding layer 0 in each raised the benchmark's
    ``recall_tradeoff`` peak RSS by 11%.
    Each query is the decode input ``h``, the token a correct decode emits,
    and the dense reference logits. ``recall`` decodes each query from the
    prompt's cache; a probe decodes its queries in sequence, following the
    dense argmax.
    """

    model: Model
    tokens: np.ndarray
    contexts: list[list[ScoreContext]]
    keys: list[np.ndarray]
    values: list[np.ndarray]
    queries: list[tuple[np.ndarray, int, np.ndarray]]
    recall: bool


# The prompt states of the config run_point last saw, keyed by (seq_len,
# seed), and the grid index of each prompt's last point, where it is dropped.
_PROMPTS: dict[tuple[int, int], _Prompt] = {}
_prompts_cfg: SweepConfig | None = None
_last_point: dict[tuple[int, int], int] = {}


def _track(cfg: SweepConfig) -> None:
    """Forget every prompt state when ``cfg`` is not the config they belong to."""
    global _prompts_cfg, _last_point
    if cfg != _prompts_cfg:
        _PROMPTS.clear()
        _prompts_cfg = cfg
        _last_point = {(p.seq_len, p.seed): p.index for p in enumerate_grid(cfg)}


def _build_prompt(cfg: SweepConfig, point: GridPoint, model: Model) -> _Prompt:
    if cfg.task == "recall":
        vocab = RecallVocab(cfg.num_pairs, cfg.filler_vocab)
        task = gen_recall_task(point.seq_len, cfg.num_pairs, cfg.depths(), point.seed, vocab)
        tokens = task.tokens
    else:
        tokens = gen_probe_prompt(point.seq_len, model.config.vocab, point.seed)
    tokens = np.array(tokens, dtype=np.int64)
    tokens.flags.writeable = False

    window = max(cfg.policy(p).window_rows for p in cfg.policies)
    result = prefill(model, tokens, window)
    # before the contexts take views of them: a view keeps the flag it was made with
    for m in itertools.chain(result.keys, result.values, result.column_sums, result.attn):
        m.flags.writeable = False
    n = tokens.size
    contexts = [
        [ScoreContext(sums, rows, n) for sums, rows in zip(layer_sums, layer_rows)]
        for layer_sums, layer_rows in zip(result.column_sums, result.attn)
    ]

    queries = []
    if cfg.task == "recall":
        for query in task.queries:
            h = embed_token(model, query.key_token, position=point.seq_len)
            ref = decode_step_dense(model, DenseKV.from_prefill(result), h)
            queries.append((h, query.value_token, ref))
    else:
        dense = DenseKV.from_prefill(result)
        token = int(np.argmax(result.logits))
        for step in range(cfg.probe_steps):
            h = embed_token(model, token, position=point.seq_len + step)
            ref = decode_step_dense(model, dense, h)
            token = int(np.argmax(ref))
            queries.append((h, token, ref))

    for h, _, ref in queries:
        h.flags.writeable = ref.flags.writeable = False
    return _Prompt(model, tokens, contexts, result.keys[1:], result.values[1:], queries, cfg.task == "recall")


def _decode_queries(prompt: _Prompt, cache) -> tuple[float, float]:
    """Accuracy and mean max-abs logit perturbation of the compressed decode."""
    hits = 0
    perturb = 0.0
    for h, expected, ref in prompt.queries:
        logits = decode_step(prompt.model, cache.clone() if prompt.recall else cache, h)
        hits += int(np.argmax(logits) == expected)
        perturb += float(np.abs(logits - ref).max())
    n = len(prompt.queries)
    return hits / n, perturb / n


def run_point(cfg: SweepConfig, point: GridPoint) -> SweepRow | SweepSkip:
    """Execute one grid point; contract violations become skips.

    ``cfg`` is valid, so a skip is a point it cannot run: a budget below the
    policy's window, or a weights file rewritten since ``cfg`` was built.
    The work that depends only on the point's prompt (the task, prefill,
    score statistics and the dense reference) is done at the prompt's first
    point and kept for its later ones, until the prompt's last point in
    ``enumerate_grid(cfg)`` has run, skipped or not. A call with another
    config drops every kept prompt. A prompt whose task or prefill raises
    ContractViolation keeps nothing, so each of its points skips alike.
    The kept prompts are module state: call run_point from one thread.

    An IntegrityError (corrupt stored data, such as a damaged weights file)
    is not caught: it is a storage fault, not an infeasible config, so it
    aborts the sweep, also under ``run_sweep(parallel=...)``.
    """
    _track(cfg)
    key = (point.seq_len, point.seed)
    try:
        policy = cfg.policy(point.policy)
        prompt = _PROMPTS.get(key)
        model = _build_model(cfg, point, prompt)
        plan = _build_plan(cfg, point, model, policy)
        if prompt is None or prompt.model is not model:
            prompt = _PROMPTS[key] = _build_prompt(cfg, point, model)

        keys0, values0 = prefill_kv0(model, prompt.tokens)
        cache = prefill_compress([keys0, *prompt.keys], [values0, *prompt.values],
                                 prompt.contexts, plan, policy)
        measured = cache.measured_bytes()
        payload = cache.payload_bytes()
        c = model.config
        full = c.layers * fp16_kv_bytes(cfg.full_cache_tokens, c.heads, c.head_dim)
        accuracy, perturb = _decode_queries(prompt, cache)

        return SweepRow(
            **{col: getattr(point, col) for col in _POINT_COLUMNS},
            tokens_per_layer=cfg.base_tokens * point.token_multiplier,
            accuracy=accuracy,
            logit_perturb=perturb,
            bytes=measured,
            budget_ratio_raw=payload / full,
            budget_ratio_meta=measured / full,
        )
    except ContractViolation as exc:
        return SweepSkip(point, str(exc))
    finally:
        if _last_point.get(key) == point.index:
            _PROMPTS.pop(key, None)


def _run_prompt(cfg: SweepConfig, points: list[GridPoint]) -> list[SweepRow | SweepSkip]:
    return [run_point(cfg, p) for p in points]


def run_sweep(cfg: SweepConfig, parallel: int = 1) -> tuple[list[SweepRow], list[SweepSkip]]:
    """Run the whole grid; returns (completed rows, skipped points) in grid order.

    Points run prompt by prompt, so one prompt's state is live at a time;
    with ``parallel > 1`` and more than one prompt, each of
    ``min(parallel, prompts)`` worker processes runs whole prompts. A
    ``parallel`` that is not an integer >= 1 raises ContractViolation.
    """
    parallel = require_int("parallel", parallel, 1)
    points = enumerate_grid(cfg)
    prompts: dict[tuple[int, int], list[GridPoint]] = {}
    for p in points:
        prompts.setdefault((p.seq_len, p.seed), []).append(p)
    groups = list(prompts.values())
    workers = min(parallel, len(groups))  # a pool starts all its processes at the first submit
    if workers > 1:
        # imported here: multiprocessing costs every `import kvtrade` memory
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(_run_prompt, [cfg] * len(groups), groups))
    else:
        done = [_run_prompt(cfg, g) for g in groups]
    by_index = {p.index: o for g, outcomes in zip(groups, done) for p, o in zip(g, outcomes)}
    outcomes = [by_index[p.index] for p in points]
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
    """Inverse of :func:`emit_csv`: each column typed as its ``SweepRow`` field."""
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
