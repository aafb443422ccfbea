"""Span tracing of kvtrade's layers, installed from outside the package.

``Tracer.install`` replaces the names each calling module imported (for
example ``kvtrade.cache.dequantize_matrix`` or ``kvtrade.model.matmul``)
with wrappers that record one span per call: name, start, end, parent span
and operation id. Spans stay in memory until ``write`` is called. Self time
is a span's duration minus the time its child spans cover; it is computed
as spans close, since a single thread of control nests them strictly.

``uninstall`` puts every original name back, so the same process can run
untraced work after traced work.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
import tracemalloc
from collections import defaultdict

from kvtrade import budget as kvbudget
from kvtrade import cache as kvcache
from kvtrade import model as kvmodel
from kvtrade import quant as kvquant
from kvtrade import sweep as kvsweep

MIB = 1024 * 1024

# (module, attribute, span name, measure allocations). Every calling module
# that imports a name gets its own entry, because rebinding the name in the
# defining module does not reach copies already imported elsewhere.
MODULE_TARGETS = [
    (kvsweep, "run_point", "sweep.run_point", False),
    (kvsweep, "prefill", "model.prefill", True),
    (kvmodel, "prefill", "model.prefill", True),
    (kvsweep, "prefill_compress", "cache.prefill_compress", True),
    (kvcache, "prefill_compress", "cache.prefill_compress", True),
    (kvsweep, "decode_step", "model.decode_step", False),
    (kvmodel, "decode_step", "model.decode_step", False),
    (kvsweep, "decode_step_dense", "model.decode_step_dense", False),
    (kvmodel, "decode_step_dense", "model.decode_step_dense", False),
    (kvsweep, "ScoreContext", "prune.ScoreContext", False),
    (kvsweep, "plan_for_tokens", "budget.plan", False),
    (kvsweep, "pyramid_allocation", "budget.plan", False),
    (kvsweep, "apply_overrides", "budget.plan", False),
    (kvsweep, "gen_recall_task", "tasks.gen", False),
    (kvsweep, "gen_probe_prompt", "tasks.gen", False),
    (kvcache, "dequantize_matrix", "quant.dequantize_matrix", False),
    (kvcache, "quantize_matrix", "quant.quantize_matrix", False),
    (kvcache, "decide", "prune.decide", False),
    (kvcache, "concat_rows", "tensor.concat_rows", False),
    (kvcache, "dump_snapshot", "cache.dump_snapshot", False),
    (kvcache, "load_snapshot", "cache.load_snapshot", False),
    (kvmodel, "matmul", "tensor.matmul", False),
    (kvmodel, "softmax_rows", "tensor.softmax_rows", False),
]
METHOD_TARGETS = [
    (kvcache.CompressedKVCache, "materialize", "cache.materialize"),
    (kvcache.CompressedKVCache, "decode_append", "cache.decode_append"),
    (kvcache.CompressedKVCache, "clone", "cache.clone"),
]


def quant_groups(q) -> int:
    """Groups in an outlier-free block, from its shape, layout and group size."""
    rows, cols = q.shape
    runs, run_len = (rows, cols) if q.layout == kvquant.Layout.PER_TOKEN else (cols, rows)
    return runs * -(-run_len // q.group_size)


class Tracer:
    """Records spans and layer counters while installed."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.events: list[dict] = []
        self.stack: list[list] = []  # [span id, time covered by children, name]
        self.op_id = -1
        self.recording = True
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.alloc_peak: dict[str, int] = defaultdict(int)
        self._point_blocks: dict[int, object] = {}  # id -> block, held so ids stay unique
        self._restore: list = []

    # -- operations -----------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        """Start a new operation (a grid point or a decode step)."""
        self.op_id = op_id

    def begin_point(self) -> None:
        """Start a new grid point or stream: the window for counting distinct blocks."""
        self.counts["distinct_blocks"] += len(self._point_blocks)
        self._point_blocks.clear()

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside run untraced: the benchmark's own output checks."""
        self.recording = False
        try:
            yield
        finally:
            self.recording = True

    # -- spans ----------------------------------------------------------------

    def _wrap(self, name: str, fn, alloc: bool):
        tracer = self
        observe = getattr(self, "_on_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            sid = len(tracer.spans)
            parent = tracer.stack[-1][0] if tracer.stack else -1
            frame = [sid, 0.0, name]
            tracer.spans.append(None)
            tracer.stack.append(frame)
            own_alloc = alloc and not tracemalloc.is_tracing()
            if own_alloc:
                tracemalloc.start()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                if own_alloc:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    tracer.alloc_peak[name] = max(tracer.alloc_peak[name], peak)
                tracer.stack.pop()
                duration = end - start
                if tracer.stack:
                    tracer.stack[-1][1] += duration
                self_time = duration - frame[1]
                tracer.spans[sid] = (sid, parent, tracer.op_id, name, start, end, self_time)
                tracer.self_s[name] += self_time
                tracer.total_s[name] += duration
                tracer.calls[name] += 1
            if observe is not None:
                observe(sid, args, result)
            return result

        return wrapper

    def install(self) -> "Tracer":
        for module, attr, name, alloc in MODULE_TARGETS:
            original = getattr(module, attr)
            self._restore.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, alloc))
        dense = kvmodel.DenseKV.__dict__["from_prefill"]
        self._restore.append((kvmodel.DenseKV, "from_prefill", dense))
        kvmodel.DenseKV.from_prefill = classmethod(
            self._wrap("model.DenseKV.from_prefill", dense.__func__, False)
        )
        for cls, attr, name in METHOD_TARGETS:
            original = cls.__dict__[attr]
            self._restore.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original, False))
        return self

    def uninstall(self) -> None:
        self.begin_point()
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- counters observed at layer boundaries --------------------------------

    def _on_quant_dequantize_matrix(self, sid, args, result) -> None:
        q = args[0]
        self.counts["groups_decoded"] += quant_groups(q)
        self.counts["bytes_decoded"] += kvquant.quantized_bytes(q)
        self._point_blocks.setdefault(id(q), q)

    def _on_quant_quantize_matrix(self, sid, args, result) -> None:
        if self.stack and self.stack[-1][2] == "cache.decode_append":
            self.counts["flush_blocks"] += 1

    def _on_prune_decide(self, sid, args, result) -> None:
        self.counts["retained_tokens"] += len(result.retained)
        self.counts["scored_tokens"] += args[2]

    def _on_model_prefill(self, sid, args, result) -> None:
        attn = sum(a.nbytes for row in result.attn for a in row)
        self.counts["attn_bytes"] = max(self.counts["attn_bytes"], attn)

    def _on_cache_prefill_compress(self, sid, args, result) -> None:
        per_layer = result.measured_bytes_per_layer()
        planned = kvbudget.plan_bytes(result.plan, result.heads, result.head_dim)
        self.counts["planned_bytes"] += planned
        self.counts["measured_bytes"] += sum(per_layer)
        self.events.append(
            {"op": self.op_id, "span": sid, "measured_bytes_per_layer": per_layer,
             "planned_bytes": planned}
        )

    def _on_cache_dump_snapshot(self, sid, args, result) -> None:
        self.counts["snapshot_bytes"] += len(result)
        self.counts["accounted_bytes"] += args[0].measured_bytes()

    def _on_sweep_run_point(self, sid, args, result) -> None:
        if isinstance(result, kvsweep.SweepSkip):
            self.counts["skips"] += 1

    # -- results --------------------------------------------------------------

    def layer_metrics(self, traced_s: float, untraced_s: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit)."""
        ms = lambda name: (self.self_s[name] * 1e3, "ms")  # noqa: E731
        calls = lambda name: (self.calls[name], "count")  # noqa: E731
        c = self.counts
        deq = "quant.dequantize_matrix"
        dense_s = self.total_s["model.decode_step_dense"]
        return {
            deq + ".calls": calls(deq),
            deq + ".self_ms": ms(deq),
            deq + ".groups": (c["groups_decoded"], "count"),
            "quant.bytes_decoded": (c["bytes_decoded"], "bytes"),
            deq + ".distinct_ratio": (_ratio(c["distinct_blocks"], self.calls[deq]), "ratio"),
            "quant.quantize_matrix.calls": calls("quant.quantize_matrix"),
            "quant.quantize_matrix.self_ms": ms("quant.quantize_matrix"),
            "cache.materialize.calls": calls("cache.materialize"),
            "cache.materialize.self_ms": ms("cache.materialize"),
            "cache.decode_append.self_ms": ms("cache.decode_append"),
            # one flush quantizes a K block and a V block
            "cache.flushes": (c["flush_blocks"] / 2, "count"),
            "cache.clone.self_ms": ms("cache.clone"),
            "cache.dump_snapshot.self_ms": ms("cache.dump_snapshot"),
            "cache.load_snapshot.self_ms": ms("cache.load_snapshot"),
            "cache.snapshot_bytes": (c["snapshot_bytes"], "bytes"),
            "cache.accounted_bytes": (c["accounted_bytes"], "bytes"),
            "cache.serialized_to_accounted": (
                _ratio(c["snapshot_bytes"], c["accounted_bytes"]), "ratio"),
            "cache.prefill_compress.self_ms": ms("cache.prefill_compress"),
            "cache.prefill_compress.alloc_peak_mib": (
                self.alloc_peak["cache.prefill_compress"] / MIB, "MiB"),
            "prune.ScoreContext.self_ms": ms("prune.ScoreContext"),
            "prune.decide.calls": calls("prune.decide"),
            "prune.decide.self_ms": ms("prune.decide"),
            "prune.retained_ratio": (_ratio(c["retained_tokens"], c["scored_tokens"]), "ratio"),
            "prune.attn_bytes": (c["attn_bytes"], "bytes"),
            "model.prefill.self_ms": ms("model.prefill"),
            "model.prefill.alloc_peak_mib": (self.alloc_peak["model.prefill"] / MIB, "MiB"),
            "tensor.matmul.calls": calls("tensor.matmul"),
            "tensor.matmul.self_ms": ms("tensor.matmul"),
            "tensor.softmax_rows.calls": calls("tensor.softmax_rows"),
            "tensor.softmax_rows.self_ms": ms("tensor.softmax_rows"),
            "model.decode_step.self_ms": ms("model.decode_step"),
            "model.decode_step_dense.self_ms": ms("model.decode_step_dense"),
            "model.decode_to_dense_ratio": (
                _ratio(self.total_s["model.decode_step"], dense_s), "ratio"),
            "model.DenseKV.from_prefill.self_ms": ms("model.DenseKV.from_prefill"),
            "tensor.concat_rows.self_ms": ms("tensor.concat_rows"),
            "budget.plan.self_ms": ms("budget.plan"),
            "budget.plan_to_measured_ratio": (
                _ratio(c["planned_bytes"], c["measured_bytes"]), "ratio"),
            "tasks.gen.self_ms": ms("tasks.gen"),
            "sweep.run_point.self_ms": ms("sweep.run_point"),
            "sweep.skips": (c["skips"], "count"),
            "trace.overhead_ratio": (_ratio(traced_s, untraced_s), "ratio"),
        }

    def write(self, path) -> None:
        """Write every span and event as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, op, name, start, end, self_time in self.spans:
                fh.write(json.dumps(
                    {"span": sid, "parent": parent, "op": op, "name": name,
                     "start": start, "end": end, "self": self_time}) + "\n")
            for event in self.events:
                fh.write(json.dumps(event) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
