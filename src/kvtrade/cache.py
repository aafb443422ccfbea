"""Compressed KV cache: prune at prefill, quantize the survivors, decode on top.

Per (layer, head) the cache keeps:

* a stored section holding the pruned prompt tokens, either as quantized
  blocks or as a raw float32 matrix on 16-bit layers;
* a full-precision residual buffer for decode-time tokens, flushed into a
  new quantized block whenever it reaches ``group_size`` rows (group-wise
  quantization needs complete groups);
* the original token positions of everything stored, in storage order.

Pruning decisions are made once, from full-precision prefill attention;
decode-time tokens are appended and never evicted. Attention at decode uses
freshly dequantized K/V each step; this is a correctness-first reference
path with no fused kernels.

A cache instance is single-writer per sequence: ``decode_append`` mutates
state. Distinct (layer, head) sub-caches are independent; ``materialize``
is safe concurrently with no writer.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .budget import BYTES_PER_FP16, FULL_PRECISION_BITS, BudgetPlan
from .errors import ContractViolation, IntegrityError
from .prune import PolicyConfig, PolicyKind, PruneDecision, ScoreContext, decide
from .quant import (
    SUPPORTED_BITS,
    Layout,
    QuantConfig,
    QuantizedTensor,
    dequantize_matrix,
    quantize_matrix,
    quantized_bytes,
    payload_bytes as tensor_payload_bytes,
)
from .tensor import Matrix, concat_rows, zeros


@dataclass
class LayerHeadCache:
    """Stored K/V for one (layer, head): quantized blocks or a full section, plus residual."""

    bits: int
    head_dim: int
    k_cfg: QuantConfig | None
    v_cfg: QuantConfig | None
    retained: PruneDecision
    quant_k: list[QuantizedTensor] = field(default_factory=list)
    quant_v: list[QuantizedTensor] = field(default_factory=list)
    full_k: Matrix | None = None
    full_v: Matrix | None = None
    residual_k: Matrix = None  # type: ignore[assignment]
    residual_v: Matrix = None  # type: ignore[assignment]
    stored_positions: list[int] = field(default_factory=list)
    residual_positions: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.residual_k is None:
            self.residual_k = zeros(0, self.head_dim)
        if self.residual_v is None:
            self.residual_v = zeros(0, self.head_dim)

    @property
    def token_count(self) -> int:
        return len(self.stored_positions) + len(self.residual_positions)

    def positions(self) -> list[int]:
        return self.stored_positions + self.residual_positions

    def clone(self) -> "LayerHeadCache":
        # QuantizedTensor blocks are immutable and can be shared
        return LayerHeadCache(
            bits=self.bits,
            head_dim=self.head_dim,
            k_cfg=self.k_cfg,
            v_cfg=self.v_cfg,
            retained=self.retained,
            quant_k=list(self.quant_k),
            quant_v=list(self.quant_v),
            full_k=None if self.full_k is None else self.full_k.copy(),
            full_v=None if self.full_v is None else self.full_v.copy(),
            residual_k=self.residual_k.copy(),
            residual_v=self.residual_v.copy(),
            stored_positions=list(self.stored_positions),
            residual_positions=list(self.residual_positions),
        )


@dataclass
class CompressedKVCache:
    """All (layer, head) sub-caches under one plan and eviction policy."""

    plan: BudgetPlan
    policy: PolicyConfig
    heads: int
    head_dim: int
    prefill_len: int
    outlier_threshold: float | None
    entries: list[list[LayerHeadCache]]

    def entry(self, layer: int, head: int) -> LayerHeadCache:
        return self.entries[layer][head]

    def clone(self) -> "CompressedKVCache":
        return CompressedKVCache(
            plan=self.plan,
            policy=self.policy,
            heads=self.heads,
            head_dim=self.head_dim,
            prefill_len=self.prefill_len,
            outlier_threshold=self.outlier_threshold,
            entries=[[e.clone() for e in row] for row in self.entries],
        )

    def decode_append(self, layer: int, head: int, h_k, h_v) -> None:
        """Append one decode token's K/V rows at full precision.

        Quantized layers buffer the rows and flush a complete group-size
        block; 16-bit layers extend their full-precision section directly.
        """
        e = self.entries[layer][head]
        k_row = np.asarray(h_k, dtype=np.float32).reshape(1, -1)
        v_row = np.asarray(h_v, dtype=np.float32).reshape(1, -1)
        if k_row.shape[1] != self.head_dim or v_row.shape[1] != self.head_dim:
            raise ContractViolation(
                f"append rows must have width {self.head_dim}"
            )
        appended_so_far = e.token_count - len(e.retained.retained)
        pos = self.prefill_len + appended_so_far
        if e.bits == FULL_PRECISION_BITS:
            e.full_k = concat_rows(e.full_k, k_row)
            e.full_v = concat_rows(e.full_v, v_row)
            e.stored_positions.append(pos)
            return
        e.residual_k = concat_rows(e.residual_k, k_row)
        e.residual_v = concat_rows(e.residual_v, v_row)
        e.residual_positions.append(pos)
        if e.residual_k.shape[0] == self.plan.group_size:
            e.quant_k.append(quantize_matrix(e.residual_k, e.k_cfg))
            e.quant_v.append(quantize_matrix(e.residual_v, e.v_cfg))
            e.stored_positions.extend(e.residual_positions)
            e.residual_positions = []
            e.residual_k = zeros(0, self.head_dim)
            e.residual_v = zeros(0, self.head_dim)

    def materialize(self, layer: int, head: int) -> tuple[Matrix, Matrix]:
        """Dequantized stored section concatenated with the residual, in position order."""
        e = self.entries[layer][head]
        if e.bits == FULL_PRECISION_BITS:
            k, v = e.full_k, e.full_v
        else:
            k_parts = [dequantize_matrix(q) for q in e.quant_k]
            v_parts = [dequantize_matrix(q) for q in e.quant_v]
            k = np.concatenate(k_parts, axis=0) if k_parts else zeros(0, self.head_dim)
            v = np.concatenate(v_parts, axis=0) if v_parts else zeros(0, self.head_dim)
        if e.residual_k.shape[0]:
            k = concat_rows(k, e.residual_k)
            v = concat_rows(v, e.residual_v)
        return k, v

    def _entry_bytes(self, e: LayerHeadCache, block_bytes) -> int:
        """One entry's bytes: fp16 K/V rows, plus ``block_bytes`` of each quantized block."""
        fp16_rows = e.full_k.shape[0] if e.bits == FULL_PRECISION_BITS else e.residual_k.shape[0]
        blocks = sum(block_bytes(q) for q in e.quant_k + e.quant_v)
        return blocks + 2 * fp16_rows * self.head_dim * BYTES_PER_FP16

    def measured_bytes_per_layer(self) -> list[int]:
        return [sum(self._entry_bytes(e, quantized_bytes) for e in row) for row in self.entries]

    def measured_bytes(self) -> int:
        return sum(self.measured_bytes_per_layer())

    def payload_bytes(self) -> int:
        """Bytes with group metadata and outlier positions waived (codes + values only)."""
        return sum(self._entry_bytes(e, tensor_payload_bytes) for row in self.entries for e in row)

    def token_count(self, layer: int, head: int) -> int:
        return self.entries[layer][head].token_count


def prefill_compress(
    keys: list[list[Matrix]],
    values: list[list[Matrix]],
    ctxs: list[list[ScoreContext | None]],
    plan: BudgetPlan,
    policy: PolicyConfig,
    outlier_threshold: float | None = None,
) -> CompressedKVCache:
    """Prune every (layer, head) to its plan budget, then quantize the survivors.

    Scoring sees the full-precision prefill attention in ``ctxs``; gathered
    rows keep their temporal order. 16-bit layers skip quantization and
    store the gathered matrices as-is. Residual buffers start empty.
    """
    if len(keys) != plan.layers:
        raise ContractViolation(
            f"plan has {plan.layers} layers, got {len(keys)} key layers"
        )
    heads = len(keys[0])
    n = keys[0][0].shape[0]
    head_dim = keys[0][0].shape[1]

    entries: list[list[LayerHeadCache]] = []
    for layer in range(plan.layers):
        tokens, bits = plan.per_layer[layer]
        if tokens < policy.window:
            raise ContractViolation(
                f"layer {layer} budget {tokens} below policy minimum {policy.window}"
            )
        cfgs = plan.quant_config(layer, outlier_threshold)
        row: list[LayerHeadCache] = []
        for head in range(heads):
            k, v = keys[layer][head], values[layer][head]
            if k.shape != (n, head_dim) or v.shape != (n, head_dim):
                raise ContractViolation(
                    f"inconsistent K/V shape at layer {layer} head {head}"
                )
            decision = decide(policy, ctxs[layer][head], n, tokens)
            idx = list(decision.retained)
            k_sel = np.ascontiguousarray(k[idx, :])
            v_sel = np.ascontiguousarray(v[idx, :])
            if bits == FULL_PRECISION_BITS:
                entry = LayerHeadCache(
                    bits=bits,
                    head_dim=head_dim,
                    k_cfg=None,
                    v_cfg=None,
                    retained=decision,
                    full_k=k_sel,
                    full_v=v_sel,
                    stored_positions=idx,
                )
            else:
                k_cfg, v_cfg = cfgs
                entry = LayerHeadCache(
                    bits=bits,
                    head_dim=head_dim,
                    k_cfg=k_cfg,
                    v_cfg=v_cfg,
                    retained=decision,
                    quant_k=[quantize_matrix(k_sel, k_cfg)],
                    quant_v=[quantize_matrix(v_sel, v_cfg)],
                    stored_positions=idx,
                )
            row.append(entry)
        entries.append(row)

    return CompressedKVCache(
        plan=plan,
        policy=policy,
        heads=heads,
        head_dim=head_dim,
        prefill_len=n,
        outlier_threshold=outlier_threshold,
        entries=entries,
    )


# Snapshot binary layout (all little-endian):
#   magic "KVSN", u16 version, u16 layers, u16 heads, u32 head_dim,
#   u32 group_size, u8 layout, u8 policy kind, u32 recent window,
#   u32 pool width, f64 outlier threshold (NaN = unset), u32 prefill_len,
#   then per (layer, head):
#     u8 bits, u32 plan tokens, positions, K/V sections, residual K/V.
# Quantized sections are block lists: per block shape, group table
# (u32 length, f64 zero, f64 scale), packed code bytes, outlier triples
# (u32 row, u32 col, f32 value).
SNAPSHOT_MAGIC = b"KVSN"
SNAPSHOT_VERSION = 1

_LAYOUTS = list(Layout)
_POLICIES = list(PolicyKind)
_GROUP_TABLE = np.dtype([("length", "<u4"), ("zero", "<f8"), ("scale", "<f8")])
_OUTLIER_TABLE = np.dtype([("row", "<u4"), ("col", "<u4"), ("value", "<f4")])


def _dump_matrix(out: list[bytes], m: Matrix) -> None:
    out.append(struct.pack("<II", m.shape[0], m.shape[1]))
    out.append(np.ascontiguousarray(m, dtype="<f4").tobytes())


def _dump_blocks(out: list[bytes], blocks: list[QuantizedTensor]) -> None:
    out.append(struct.pack("<I", len(blocks)))
    for q in blocks:
        out.append(
            struct.pack(
                "<IIIII",
                q.shape[0],
                q.shape[1],
                len(q.lengths),
                len(q.outliers),
                len(q.packed_codes),
            )
        )
        table = np.rec.fromarrays([q.lengths, q.zero_points, q.scales], dtype=_GROUP_TABLE)
        out.append(table.tobytes())
        out.append(q.packed_codes)
        out.append(np.array(list(q.outliers), dtype=_OUTLIER_TABLE).tobytes())


def dump_snapshot(cache: CompressedKVCache) -> bytes:
    out: list[bytes] = [
        SNAPSHOT_MAGIC,
        struct.pack(
            "<HHHIIBBIIdI",
            SNAPSHOT_VERSION,
            cache.plan.layers,
            cache.heads,
            cache.head_dim,
            cache.plan.group_size,
            _LAYOUTS.index(cache.plan.layout),
            _POLICIES.index(cache.policy.kind),
            cache.policy.window,
            cache.policy.pool_width,
            float("nan") if cache.outlier_threshold is None else cache.outlier_threshold,
            cache.prefill_len,
        ),
    ]
    for layer in range(cache.plan.layers):
        tokens, bits = cache.plan.per_layer[layer]
        for head in range(cache.heads):
            e = cache.entry(layer, head)
            out.append(struct.pack("<BI", bits, tokens))
            out.append(struct.pack("<I", len(e.stored_positions)))
            out.append(np.asarray(e.stored_positions, dtype="<u4").tobytes())
            if bits == FULL_PRECISION_BITS:
                _dump_matrix(out, e.full_k)
                _dump_matrix(out, e.full_v)
            else:
                _dump_blocks(out, e.quant_k)
                _dump_blocks(out, e.quant_v)
            out.append(struct.pack("<I", len(e.residual_positions)))
            out.append(np.asarray(e.residual_positions, dtype="<u4").tobytes())
            _dump_matrix(out, e.residual_k)
            _dump_matrix(out, e.residual_v)
    return b"".join(out)


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise IntegrityError("snapshot truncated")
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def _load_matrix(r: _Reader) -> Matrix:
    rows, cols = r.unpack("<II")
    buf = r.take(rows * cols * 4)
    return np.frombuffer(buf, dtype="<f4").reshape(rows, cols).astype(np.float32)


def _load_blocks(r: _Reader, bits: int, group_size: int, layout: Layout) -> list[QuantizedTensor]:
    """Read a block list; QuantizedTensor rejects tables that disagree with the codes."""
    (count,) = r.unpack("<I")
    blocks = []
    for _ in range(count):
        rows, cols, n_groups, n_out, packed_len = r.unpack("<IIIII")
        table = np.frombuffer(r.take(_GROUP_TABLE.itemsize * n_groups), dtype=_GROUP_TABLE)
        packed = r.take(packed_len)
        out = np.frombuffer(r.take(_OUTLIER_TABLE.itemsize * n_out), dtype=_OUTLIER_TABLE)
        blocks.append(
            QuantizedTensor(
                shape=(rows, cols),
                bits=bits,
                group_size=group_size,
                layout=layout,
                lengths=table["length"],
                zero_points=table["zero"],
                scales=table["scale"],
                packed_codes=packed,
                outliers=tuple(zip(out["row"].tolist(), out["col"].tolist(), out["value"].tolist())),
            )
        )
    return blocks


def load_snapshot(data: bytes) -> CompressedKVCache:
    """Rebuild a cache from :func:`dump_snapshot` output."""
    r = _Reader(data)
    if r.take(4) != SNAPSHOT_MAGIC:
        raise IntegrityError("bad snapshot magic")
    (
        version,
        layers,
        heads,
        head_dim,
        group_size,
        layout_code,
        policy_code,
        recent,
        pool,
        threshold,
        prefill_len,
    ) = r.unpack("<HHHIIBBIIdI")
    if version != SNAPSHOT_VERSION:
        raise IntegrityError(f"unsupported snapshot version {version}")
    if layout_code >= len(_LAYOUTS) or policy_code >= len(_POLICIES):
        raise IntegrityError(f"unknown layout code {layout_code} or policy code {policy_code}")
    layout = _LAYOUTS[layout_code]
    policy = PolicyConfig(_POLICIES[policy_code], recent, pool)
    outlier = None if np.isnan(threshold) else float(threshold)

    per_layer = []
    entries: list[list[LayerHeadCache]] = []
    for _ in range(layers):
        row = []
        layer_tokens_bits = None
        for _ in range(heads):
            bits, tokens = r.unpack("<BI")
            if bits not in SUPPORTED_BITS + (FULL_PRECISION_BITS,):
                raise IntegrityError(f"unsupported bit width {bits}")
            layer_tokens_bits = (tokens, bits)
            (n_pos,) = r.unpack("<I")
            stored = np.frombuffer(r.take(4 * n_pos), dtype="<u4").tolist()
            if bits == FULL_PRECISION_BITS:
                full_k = _load_matrix(r)
                full_v = _load_matrix(r)
                quant_k: list[QuantizedTensor] = []
                quant_v: list[QuantizedTensor] = []
                k_cfg = v_cfg = None
            else:
                quant_k = _load_blocks(r, bits, group_size, layout)
                quant_v = _load_blocks(r, bits, group_size, Layout.PER_TOKEN)
                full_k = full_v = None
                k_cfg = QuantConfig(bits, group_size, layout, outlier)
                v_cfg = QuantConfig(bits, group_size, Layout.PER_TOKEN, outlier)
            (n_res,) = r.unpack("<I")
            res_pos = np.frombuffer(r.take(4 * n_res), dtype="<u4").tolist()
            res_k = _load_matrix(r)
            res_v = _load_matrix(r)
            prompt_positions = [p for p in stored if p < prefill_len]
            row.append(
                LayerHeadCache(
                    bits=bits,
                    head_dim=head_dim,
                    k_cfg=k_cfg,
                    v_cfg=v_cfg,
                    retained=PruneDecision(tuple(prompt_positions), layer_tokens_bits[0]),
                    quant_k=quant_k,
                    quant_v=quant_v,
                    full_k=full_k,
                    full_v=full_v,
                    residual_k=res_k,
                    residual_v=res_v,
                    stored_positions=stored,
                    residual_positions=res_pos,
                )
            )
        per_layer.append(layer_tokens_bits)
        entries.append(row)
    if r.pos != len(data):
        raise IntegrityError(f"{len(data) - r.pos} trailing bytes after the snapshot")

    plan = BudgetPlan(
        per_layer=tuple(per_layer),
        group_size=group_size,
        layout=layout,
        total_budget_bytes=0,
    )
    return CompressedKVCache(
        plan=plan,
        policy=policy,
        heads=heads,
        head_dim=head_dim,
        prefill_len=prefill_len,
        outlier_threshold=outlier,
        entries=entries,
    )
