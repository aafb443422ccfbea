"""The benchmark's three workloads, each a closed loop on one thread of control.

A workload has a ``setup(seed, size)`` that builds its inputs from the seed
and runs one untimed warm-up operation, and a ``run_pass(state, tracer)``
that runs one fixed pass of operations and checks their outputs. The runner
repeats whole passes, so every run measures the same mix of operations
whatever the speed of the machine.

A pass records each timed operation with its shape: the operation's place
in the work with the seed left out. Operations of one shape do the same
work on different data (grid points that differ only in seed; decode steps
of one bucket of streams that differ only in seed, see STEP_BUCKET), and
the runner times every operation at the least time seen for its shape.

Why each workload exists, and which layer metric should move which
end-to-end metric on it, is written down in README.md beside this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import sys
import time
import traceback
from dataclasses import dataclass, field, replace

import numpy as np

from kvtrade import budget as kvbudget
from kvtrade import cache as kvcache
from kvtrade import model as kvmodel
from kvtrade import prune as kvprune
from kvtrade import quant as kvquant
from kvtrade import sweep as kvsweep
from kvtrade import tasks as kvtasks


@dataclass
class PassResult:
    """Timings, quality and check outcomes of one pass."""

    ops: int = 0  # operations attempted: grid points, or decode steps on decode_stream
    points: int = 0  # grid points, or decode streams on decode_stream
    steps: int = 0  # decode_step calls through the compressed cache
    failed: int = 0  # operations that raised, were skipped or failed a check
    wall_s: float = 0.0
    # (shape, seconds) per operation, in order; see the module docstring
    point_s: list[tuple] = field(default_factory=list)
    step_s: list[tuple] = field(default_factory=list)
    snapshot_s: list[tuple] = field(default_factory=list)  # dump + load round-trips
    accuracy: list[float] = field(default_factory=list)
    perturb: list[float] = field(default_factory=list)
    csv_sha256: str = ""
    logits_sha256: str = ""
    problems: list[str] = field(default_factory=list)
    # a point is a decode stream, timed as its steps plus its snapshot round-trips
    points_are_streams: bool = False

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)


class StepTimer:
    """Times ``kvtrade.sweep.decode_step`` inside ``run_point`` and hashes its logits."""

    def __init__(self, step_s: list[tuple], logits_hash) -> None:
        self.step_s = step_s
        self.logits_hash = logits_hash
        self.point_shape = None
        self.index = 0

    def begin_point(self, shape) -> None:
        """Later steps belong to a point of this shape; their shape adds their index."""
        self.point_shape = shape
        self.index = 0

    def __enter__(self) -> "StepTimer":
        self.original = kvsweep.decode_step
        original, logits_hash = self.original, self.logits_hash

        def timed_decode_step(model, cache, h):
            start = time.perf_counter()
            logits = original(model, cache, h)
            self.step_s.append(((self.point_shape, self.index), time.perf_counter() - start))
            self.index += 1
            logits_hash.update(np.ascontiguousarray(logits, dtype="<f4").tobytes())
            return logits

        kvsweep.decode_step = timed_decode_step
        return self

    def __exit__(self, *exc) -> None:
        kvsweep.decode_step = self.original


def _run_point(cfg, point, result: PassResult):
    """One grid point through the public sweep entry; None when it raised."""
    try:
        return kvsweep.run_point(cfg, point)
    except Exception:  # noqa: BLE001 - a failed point is counted, the pass goes on
        traceback.print_exc(file=sys.stderr)
        result.fail(f"point {point.index} raised")
        return None


def _sweep_pass(state, tracer, check_row) -> tuple[PassResult, list]:
    """Run every grid point in grid order; returns the result and the rows."""
    cfg, points = state["cfg"], state["points"]
    result = PassResult(ops=len(points))
    logits_hash = hashlib.sha256()
    rows = []
    start = time.perf_counter()
    with StepTimer(result.step_s, logits_hash) as timer:
        for op, point in enumerate(points):
            if tracer is not None:
                tracer.begin_point()
                tracer.begin_op(op)
            shape = replace(point, index=0, seed=0)
            timer.begin_point(shape)
            t0 = time.perf_counter()
            outcome = _run_point(cfg, point, result)
            result.point_s.append((shape, time.perf_counter() - t0))
            result.points += 1
            if isinstance(outcome, kvsweep.SweepSkip):
                result.fail(f"point {point.index} skipped: {outcome.reason}")
            elif outcome is not None:
                rows.append(outcome)
                problem = check_row(outcome)
                if problem:
                    result.fail(f"point {point.index}: {problem}")
    result.wall_s = time.perf_counter() - start
    result.steps = len(result.step_s)
    result.accuracy = [r.accuracy for r in rows]
    result.perturb = [r.logit_perturb for r in rows]
    result.csv_sha256 = hashlib.sha256(kvsweep.rows_to_csv(rows).encode()).hexdigest()
    result.logits_sha256 = logits_hash.hexdigest()
    return result, rows


# ---------------------------------------------------------------------------
# recall_tradeoff: the acceptance criterion-5 grid
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RecallSize:
    seq_len: int = 512
    seeds: int = 20
    num_pairs: int = 16
    base_tokens: int = 128
    filler_vocab: int = 32


def recall_setup(seed: int, size: RecallSize = RecallSize()):
    kvmodel.build_recall_model(size.num_pairs, size.seq_len, size.filler_vocab)
    cfg = kvsweep.SweepConfig(
        task="recall",
        model="recall",
        seq_lens=(size.seq_len,),
        seeds=tuple(range(seed, seed + size.seeds)),
        policies=("snapkv", "pyramidkv"),
        bits=(16, 8, 4),
        token_multipliers=(1, 2, 4),
        paired_budget=True,
        group_sizes=(64,),
        layouts=("per_token",),
        base_tokens=size.base_tokens,
        full_cache_tokens=size.seq_len,
        num_pairs=size.num_pairs,
        filler_vocab=size.filler_vocab,
    )
    points = kvsweep.enumerate_grid(cfg)
    warm = next(p for p in points if p.bits == 4)
    kvsweep.run_point(cfg, warm)
    return {"cfg": cfg, "points": points}


def _recall_row_problem(row) -> str:
    if row.bits == 4 and row.accuracy != 1.0:
        return f"4x@4 accuracy {row.accuracy} is not 1.0"
    return ""


def recall_pass(state, tracer=None) -> PassResult:
    result, rows = _sweep_pass(state, tracer, _recall_row_problem)
    for policy in state["cfg"].policies:
        med = {
            bits: float(np.median([r.accuracy for r in rows if r.policy == policy and r.bits == bits]))
            for bits in (16, 8, 4)
        }
        if not med[4] > med[8] >= med[16]:
            result.fail(f"{policy}: median accuracy ordering 4 > 8 >= 16 fails: {med}")
    return result


# ---------------------------------------------------------------------------
# prefill_long: multi-layer random_probe at n = 2048, 16-bit, H2O
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PrefillSize:
    seq_len: int = 2048
    points: int = 8
    layers: int = 4
    heads: int = 4
    d_model: int = 64
    vocab: int = 128
    base_tokens: int = 256
    probe_steps: int = 4


def prefill_setup(seed: int, size: PrefillSize = PrefillSize()):
    cfg = kvsweep.SweepConfig(
        task="random_probe",
        model="random",
        seq_lens=(size.seq_len,),
        seeds=tuple(range(seed, seed + size.points)),
        policies=("h2o",),
        bits=(16,),
        token_multipliers=(1,),
        paired_budget=True,
        base_tokens=size.base_tokens,
        full_cache_tokens=size.seq_len,
        probe_steps=size.probe_steps,
        layers=size.layers,
        heads=size.heads,
        d_model=size.d_model,
        vocab=size.vocab,
        context_limit=size.seq_len,
    )
    points = kvsweep.enumerate_grid(cfg)
    kvsweep.run_point(cfg, points[0])
    head_dim = size.d_model // size.heads
    expected_bytes = 2 * size.layers * size.heads * size.base_tokens * head_dim * 2
    return {"cfg": cfg, "points": points, "expected_bytes": expected_bytes}


def prefill_pass(state, tracer=None) -> PassResult:
    expected = state["expected_bytes"]

    def problem(row) -> str:
        values = (row.accuracy, row.logit_perturb, row.budget_ratio_raw, row.budget_ratio_meta)
        if not all(math.isfinite(v) for v in values):
            return f"non-finite row values {values}"
        if row.bytes != expected:
            return f"bytes {row.bytes} != {expected}"
        return ""

    return _sweep_pass(state, tracer, problem)[0]


# ---------------------------------------------------------------------------
# decode_stream: decode with snapshot round-trips at every flush
# ---------------------------------------------------------------------------


# Decode steps within one bucket of this many steps differ only by a few rows
# of dense residual, so they share a shape; a flush step, which quantizes the
# residual, is a shape of its own. Six streams then give each shape about 96
# runs a pass instead of 6: host interference lasts seconds, and the least of
# six runs of step i, one per stream, still moved by a third between steps.
STEP_BUCKET = 16


@dataclass(frozen=True)
class DecodeSize:
    seq_len: int = 512
    layers: int = 2
    heads: int = 4
    d_model: int = 128
    vocab: int = 128
    tokens: int = 256
    bits: int = 4
    group_size: int = 32
    steps: int = 64
    streams: int = 6


def _decode_stream_setup(seed: int, size: DecodeSize) -> dict:
    config = kvmodel.ModelConfig(
        layers=size.layers,
        heads=size.heads,
        d_model=size.d_model,
        vocab=size.vocab,
        context_limit=size.seq_len,
        seed=seed,
    )
    model = kvmodel.random_model(config)
    prompt = kvtasks.gen_probe_prompt(size.seq_len, size.vocab, seed)
    prefilled = kvmodel.prefill(model, prompt)
    plan = kvbudget.plan_for_tokens(
        [size.tokens] * size.layers,
        size.bits,
        heads=size.heads,
        head_dim=config.head_dim,
        group_size=size.group_size,
        layout=kvquant.Layout.PER_CHANNEL,
    )
    policy = kvprune.PolicyConfig(kvprune.PolicyKind.STREAMING_LLM)
    no_scores = [[None] * size.heads for _ in range(size.layers)]
    cache = kvcache.prefill_compress(prefilled.keys, prefilled.values, no_scores, plan, policy)
    return {"seed": seed, "model": model, "prefilled": prefilled, "cache": cache}


def decode_setup(seed: int, size: DecodeSize = DecodeSize()):
    streams = [_decode_stream_setup(seed + i, size) for i in range(size.streams)]
    first = streams[0]
    warm = first["cache"].clone()
    h = kvmodel.embed_token(first["model"], int(np.argmax(first["prefilled"].logits)), size.seq_len)
    kvmodel.decode_step(first["model"], warm, h)
    kvcache.load_snapshot(kvcache.dump_snapshot(warm))
    return {"size": size, "streams": streams}


def _sample(logits, rng) -> int:
    p = np.exp(logits.astype(np.float64) - logits.max())
    return int(rng.choice(p.size, p=p / p.sum()))


def _materialized(cache, layers: int, heads: int) -> list[bytes]:
    return [
        b"".join(m.tobytes() for m in cache.materialize(layer, head))
        for layer in range(layers)
        for head in range(heads)
    ]


def decode_pass(state, tracer=None) -> PassResult:
    size = state["size"]
    result = PassResult(ops=size.steps * len(state["streams"]), points_are_streams=True)
    logits_hash = hashlib.sha256()
    lines = ["stream,step,next_token,token,perturb"]
    start = time.perf_counter()
    for stream in state["streams"]:
        _decode_stream(stream, size, result, logits_hash, lines, tracer)
        result.points += 1
    result.wall_s = time.perf_counter() - start
    result.steps = len(result.step_s)
    result.csv_sha256 = hashlib.sha256(("\n".join(lines) + "\n").encode()).hexdigest()
    result.logits_sha256 = logits_hash.hexdigest()
    return result


def _decode_stream(stream, size: DecodeSize, result: PassResult, logits_hash, lines, tracer) -> None:
    """Decode ``size.steps`` tokens through a clone of the stream's compressed cache."""
    model, prefilled = stream["model"], stream["prefilled"]
    cache = stream["cache"].clone()
    dense = kvmodel.DenseKV.from_prefill(prefilled)
    # Next tokens are sampled from the dense reference's distribution. Greedy
    # decoding on a random model settles on one repeated token for some
    # seeds, which makes the quality metrics swing with the seed.
    rng = np.random.default_rng([stream["seed"], size.seq_len])
    token = _sample(prefilled.logits, rng)
    if tracer is not None:
        tracer.begin_point()
    for step in range(1, size.steps + 1):
        if tracer is not None:
            tracer.begin_op(result.points * size.steps + step - 1)
        h = kvmodel.embed_token(model, token, size.seq_len + step - 1)
        ref = kvmodel.decode_step_dense(model, dense, h)
        t0 = time.perf_counter()
        try:
            logits = kvmodel.decode_step(model, cache, h)
        except Exception:  # noqa: BLE001 - a failed step is counted, the stream ends
            traceback.print_exc(file=sys.stderr)
            result.fail(f"stream {stream['seed']} step {step} raised")
            result.failed += size.steps - step  # the steps never run
            return
        elapsed = time.perf_counter() - t0
        result.step_s.append(((step // STEP_BUCKET, step % size.group_size == 0), elapsed))
        logits_hash.update(np.ascontiguousarray(logits, dtype="<f4").tobytes())
        if not np.all(np.isfinite(logits)):
            result.fail(f"stream {stream['seed']} step {step}: non-finite logits")
        perturb = float(np.abs(logits - ref).max())
        result.accuracy.append(int(np.argmax(logits) == np.argmax(ref)))
        result.perturb.append(perturb)
        token = _sample(ref, rng)
        lines.append(f"{stream['seed']},{step},{token},{int(np.argmax(logits))},{perturb:.6g}")
        if step % size.group_size == 0:
            cache = _snapshot_round_trip(cache, step, result, tracer)


def _snapshot_round_trip(cache, step: int, result: PassResult, tracer):
    """Dump and reload the cache (timed), then check the reload is exact (untimed)."""
    group_size = cache.plan.group_size
    layers, heads = cache.plan.layers, cache.heads
    untraced = tracer.paused if tracer is not None else contextlib.nullcontext
    with untraced():
        before = _materialized(cache, layers, heads)
    t0 = time.perf_counter()
    loaded = kvcache.load_snapshot(kvcache.dump_snapshot(cache))
    result.snapshot_s.append((step, time.perf_counter() - t0))
    with untraced():
        after = _materialized(loaded, layers, heads)
    if after != before:
        result.fail(f"step {step}: snapshot reload does not materialize bit-identically")
    for layer in range(layers):
        for head in range(heads):
            flushes = len(loaded.entry(layer, head).quant_k) - 1
            if flushes != step // group_size:
                result.fail(
                    f"step {step}: layer {layer} head {head} flushed {flushes} times, "
                    f"expected {step // group_size}"
                )
    return loaded


# name -> (setup, run_pass, least passes per run). A shape's least time is
# steadier the more runs it has, spread over a longer time: 20 seeds over two
# passes on recall_tradeoff, 6 streams of 8-step buckets in one pass on
# decode_stream. A prefill_long point is one memory-bound operation of over a
# second, so host interference rarely spares it; 8 seeds over three passes
# spread by 16% from run to run where two passes spread by 27%.
WORKLOADS = {
    "recall_tradeoff": (recall_setup, recall_pass, 2),
    "prefill_long": (prefill_setup, prefill_pass, 3),
    "decode_stream": (decode_setup, decode_pass, 1),
}
