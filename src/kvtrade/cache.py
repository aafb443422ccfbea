"""Compressed KV cache: prune at prefill, quantize the survivors, decode on top.

Per (layer, head) the cache keeps one layout (KIVI's):

* quantized blocks: one for the pruned prompt tokens, then one per flush;
* a full-precision residual buffer after the blocks. Decode-time tokens
  land here, and the residual is flushed into a new quantized block
  whenever it reaches ``group_size`` rows (group-wise quantization needs
  complete groups);
* the original token positions of everything stored, in storage order.

A 16-bit layer is the case where the residual is never flushed: it has no
blocks and keeps every row, prompt and decode alike, in the residual.

Pruning decisions are made once, from full-precision prefill attention
statistics (``ScoreContext``); decode-time tokens are appended and never evicted. Attention at decode runs
over ``materialize_layer``'s output: every head of one layer, each
head's rows as ``materialize`` gives them, stacked ``(heads, rows,
head_dim)``. Each immutable block is decoded once, on first use, and kept
on the block (``dequantize_matrix``), so a decode step decodes only blocks
it has not seen and joins them with the residual. This is a
correctness-first reference path with no fused kernels.

A cache instance is single-writer per sequence: ``decode_append`` mutates
state. Distinct (layer, head) sub-caches are independent; ``materialize``
and ``materialize_layer`` are safe concurrently with no writer.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .budget import BudgetPlan, fp16_kv_bytes
from .errors import ContractViolation, IntegrityError, require_index
from .prune import PolicyConfig, ScoreContext, decide
from .quant import (
    OUTLIER_DTYPE,
    Layout,
    QuantConfig,
    QuantizedTensor,
    dequantize_matrix,
    group_split,
    quantize_matrix,
    quantized_bytes,
    payload_bytes as tensor_payload_bytes,
)
from .tensor import Matrix, as_matrix, concat_rows


@dataclass
class LayerHeadCache:
    """Stored K/V for one (layer, head): quantized blocks, then the full-precision residual.

    ``positions`` lists the token position of every stored row, blocks
    first, in storage order (strictly increasing).
    """

    positions: list[int]
    quant_k: list[QuantizedTensor]
    quant_v: list[QuantizedTensor]
    residual_k: Matrix
    residual_v: Matrix

    def flush(self, cfgs: tuple[QuantConfig, QuantConfig] | None) -> None:
        """Quantize the residual into one new K and V block if the layer quantizes.

        ``cfgs`` is the layer's ``BudgetPlan.quant_config``; None (16-bit)
        keeps the rows in the residual.
        """
        if cfgs is None:
            return
        k_cfg, v_cfg = cfgs
        self.quant_k.append(quantize_matrix(self.residual_k, k_cfg))
        self.quant_v.append(quantize_matrix(self.residual_v, v_cfg))
        self.residual_k = np.zeros((0, self.residual_k.shape[1]), dtype=np.float32)
        self.residual_v = np.zeros((0, self.residual_v.shape[1]), dtype=np.float32)

    def parts(self) -> tuple[list[Matrix], list[Matrix]]:
        """The stored K and V rows in position order: each block decoded, then the residual."""
        return (
            [dequantize_matrix(q) for q in self.quant_k] + [self.residual_k],
            [dequantize_matrix(q) for q in self.quant_v] + [self.residual_v],
        )

    def clone(self) -> "LayerHeadCache":
        # QuantizedTensor blocks are immutable and can be shared
        return LayerHeadCache(
            positions=list(self.positions),
            quant_k=list(self.quant_k),
            quant_v=list(self.quant_v),
            residual_k=self.residual_k.copy(),
            residual_v=self.residual_v.copy(),
        )


def append_rows(h_k, h_v, width: int) -> tuple[Matrix, Matrix]:
    """One decode token's K and V, each shaped ``(width,)`` or ``(1, width)``, as float32 rows.

    Any other shape, values that are not numbers, or a value that is not finite
    in float32 (one past its range becomes inf, not a warning), raises ContractViolation.
    """
    rows = []
    for h in (h_k, h_v):
        row = np.asarray(h)
        if row.shape != (width,) and row.shape != (1, width):
            raise ContractViolation(
                f"append rows must be shaped ({width},) or (1, {width}), got {row.shape}"
            )
        rows.append(as_matrix(row.reshape(1, width), "append rows"))
    k_row, v_row = rows
    # count_nonzero, not .all(): on one short row per head and step it
    # costs about half as much
    if np.count_nonzero(np.isfinite(k_row)) + np.count_nonzero(np.isfinite(v_row)) < 2 * width:
        raise ContractViolation("append rows must be finite")
    return k_row, v_row


@dataclass
class CompressedKVCache:
    """All (layer, head) sub-caches under one plan."""

    plan: BudgetPlan
    heads: int
    head_dim: int
    prefill_len: int
    entries: list[list[LayerHeadCache]]

    @property
    def shape(self) -> tuple[int, int, int]:
        """(layers, heads, head_dim)."""
        return len(self.entries), self.heads, self.head_dim

    def entry(self, layer: int, head: int) -> LayerHeadCache:
        """The sub-cache of (layer, head); an index that is not an integer inside
        the cache (:func:`require_index`) raises ContractViolation."""
        return self.entries[require_index("layer", layer, len(self.entries))][
            require_index("head", head, self.heads)
        ]

    def clone(self) -> "CompressedKVCache":
        return CompressedKVCache(
            plan=self.plan,
            heads=self.heads,
            head_dim=self.head_dim,
            prefill_len=self.prefill_len,
            entries=[[e.clone() for e in row] for row in self.entries],
        )

    def decode_append(self, layer: int, head: int, h_k, h_v) -> None:
        """Append one decode token's K/V rows to the residual at full precision.

        A residual of ``group_size`` rows is flushed into a quantized block,
        except on 16-bit layers, which keep every row in the residual. An
        index that is not an integer inside the cache, a row not shaped
        ``(head_dim,)`` or ``(1, head_dim)``, or a non-finite value raises
        ContractViolation and leaves the cache unchanged.
        """
        e = self.entry(layer, head)
        k_row, v_row = append_rows(h_k, h_v, self.head_dim)
        # decode positions continue from the prompt length, one per append
        after_last = e.positions[-1] + 1 if e.positions else 0
        e.positions.append(max(self.prefill_len, after_last))
        e.residual_k = concat_rows(e.residual_k, k_row)
        e.residual_v = concat_rows(e.residual_v, v_row)
        if e.residual_k.shape[0] == self.plan.group_size:
            e.flush(self.plan.quant_config(layer))

    def materialize(self, layer: int, head: int) -> tuple[Matrix, Matrix]:
        """Dequantized blocks followed by the residual, in position order.

        A layer with blocks returns new arrays, which callers may write to.
        A layer without blocks (16-bit) returns its residual matrices
        themselves, uncopied; callers must not write to them. An index that
        is not an integer inside the cache raises ContractViolation.
        """
        e = self.entry(layer, head)
        if not e.quant_k:
            return e.residual_k, e.residual_v
        k_parts, v_parts = e.parts()
        return np.concatenate(k_parts, axis=0), np.concatenate(v_parts, axis=0)

    def materialize_layer(self, layer: int) -> tuple[np.ndarray, np.ndarray]:
        """Every head's :meth:`materialize` output for ``layer``, stacked ``(heads, rows, head_dim)``.

        A one-head layer returns a view of ``materialize(layer, 0)``, so on a
        16-bit layer callers must not write to it; otherwise the stacks are
        new arrays. An index that is not an integer inside the cache, or heads
        that hold different row counts, raise ContractViolation.
        """
        if self.heads == 1:
            k, v = self.materialize(layer, 0)
            return k[None], v[None]
        row = self.entries[require_index("layer", layer, len(self.entries))]
        rows = {len(e.positions) for e in row}
        if len(rows) != 1:
            raise ContractViolation(f"layer {layer}'s heads hold different row counts {sorted(rows)}")
        k = np.empty((self.heads, rows.pop(), self.head_dim), dtype=np.float32)
        v = np.empty_like(k)
        for head, e in enumerate(row):
            k_parts, v_parts = e.parts()
            np.concatenate(k_parts, axis=0, out=k[head])
            np.concatenate(v_parts, axis=0, out=v[head])
        return k, v

    def _entry_bytes(self, e: LayerHeadCache, block_bytes) -> int:
        """One entry's bytes: fp16 residual K/V rows, plus ``block_bytes`` of each block."""
        blocks = sum(block_bytes(q) for q in e.quant_k + e.quant_v)
        return blocks + fp16_kv_bytes(e.residual_k.shape[0], 1, self.head_dim)

    def measured_bytes_per_layer(self) -> list[int]:
        return [sum(self._entry_bytes(e, quantized_bytes) for e in row) for row in self.entries]

    def measured_bytes(self) -> int:
        return sum(self.measured_bytes_per_layer())

    def payload_bytes(self) -> int:
        """Bytes with group metadata and outlier positions waived (codes + values only)."""
        return sum(self._entry_bytes(e, tensor_payload_bytes) for row in self.entries for e in row)


def prefill_compress(
    keys: list[list[Matrix]],
    values: list[list[Matrix]],
    ctxs: list[list[ScoreContext | None]],
    plan: BudgetPlan,
    policy: PolicyConfig,
) -> CompressedKVCache:
    """Prune every (layer, head) to its plan budget, then quantize the survivors.

    Scoring sees the full-precision prefill attention statistics in ``ctxs``;
    gathered rows keep their temporal order. The gathered rows go to the residual,
    which is flushed into the prompt block; 16-bit layers keep them there.
    ``keys``, ``values`` and ``ctxs`` must each hold the plan's layers, every
    layer the same number of heads (at least one), and every head a finite
    nonempty n x head_dim K and V array; anything else raises ContractViolation.
    """
    heads = len(keys[0]) if keys else 0
    for name, arg in (("keys", keys), ("values", values), ("ctxs", ctxs)):
        if len(arg) != plan.layers or any(len(row) != heads for row in arg):
            raise ContractViolation(f"{name} must hold {plan.layers} layers of {heads} heads")
    shape = np.shape(keys[0][0]) if heads else ()
    if len(shape) != 2 or 0 in shape:
        raise ContractViolation(f"K/V must be nonempty n x head_dim matrices, got {shape}")
    n, head_dim = shape

    entries: list[list[LayerHeadCache]] = []
    for layer in range(plan.layers):
        tokens, _ = plan.per_layer[layer]
        if tokens < policy.window:
            raise ContractViolation(
                f"layer {layer} budget {tokens} below policy minimum {policy.window}"
            )
        cfgs = plan.quant_config(layer)
        row: list[LayerHeadCache] = []
        for head in range(heads):
            k, v = (as_matrix(kv[layer][head], f"K/V at layer {layer} head {head}") for kv in (keys, values))
            if k.shape != (n, head_dim) or v.shape != (n, head_dim):
                raise ContractViolation(
                    f"inconsistent K/V shape at layer {layer} head {head}"
                )
            if not (np.isfinite(k).all() and np.isfinite(v).all()):
                raise ContractViolation(f"K/V at layer {layer} head {head} must be finite")
            idx = list(decide(policy, ctxs[layer][head], n, tokens).retained)
            entry = LayerHeadCache(
                positions=idx,
                quant_k=[],
                quant_v=[],
                residual_k=np.ascontiguousarray(k[idx, :]),
                residual_v=np.ascontiguousarray(v[idx, :]),
            )
            entry.flush(cfgs)
            row.append(entry)
        entries.append(row)

    return CompressedKVCache(
        plan=plan,
        heads=heads,
        head_dim=head_dim,
        prefill_len=n,
        entries=entries,
    )


# Snapshot binary layout, version 4 (all little-endian):
#   magic "KVSN", u16 version, u16 layers, u16 heads, u32 head_dim,
#   u32 group_size, u8 layout, f64 outlier threshold (NaN = unset),
#   u32 prefill_len, i64 total_budget_bytes;
#   the plan table: per layer u32 tokens, u8 bits;
#   per (layer, head): u32 position count, u32 positions, K blocks,
#   V blocks, residual K and residual V as f32 values;
#   u32 CRC-32 (zlib) of every byte before it.
# A block is u32 outlier count, outliers (u32 row, u32 col, f32 value), the
# group table (f64 zero, f64 scale) and the packed codes. No shape or count
# the flush rule fixes is stored: a quantized layer's first block holds the
# positions below prefill_len, each later one group_size rows, the residual
# the rest; a 16-bit layer has no blocks. quant.group_split sizes a block.
SNAPSHOT_MAGIC = b"KVSN"
SNAPSHOT_VERSION = 4

_HEADER = "<HHHIIBdIq"
_LAYOUTS = list(Layout)
_PLAN_TABLE = np.dtype([("tokens", "<u4"), ("bits", "u1")])
_GROUP_TABLE = np.dtype([("zero", "<f8"), ("scale", "<f8")])


def dump_snapshot(cache: CompressedKVCache) -> bytes:
    out: list[bytes] = [
        SNAPSHOT_MAGIC,
        struct.pack(
            _HEADER,
            SNAPSHOT_VERSION,
            cache.plan.layers,
            cache.heads,
            cache.head_dim,
            cache.plan.group_size,
            _LAYOUTS.index(cache.plan.layout),
            float("nan") if cache.plan.outlier_threshold is None else cache.plan.outlier_threshold,
            cache.prefill_len,
            cache.plan.total_budget_bytes,
        ),
        np.array(list(cache.plan.per_layer), dtype=_PLAN_TABLE).tobytes(),
    ]
    for row in cache.entries:
        for e in row:
            out.append(struct.pack("<I", len(e.positions)))
            out.append(np.asarray(e.positions, dtype="<u4").tobytes())
            for q in e.quant_k + e.quant_v:
                table = np.rec.fromarrays([q.zero_points, q.scales], dtype=_GROUP_TABLE)
                out += [struct.pack("<I", len(q.outliers)), q.outliers.tobytes()]
                out += [table.tobytes(), q.packed_codes]
            out.append(np.array([e.residual_k, e.residual_v], dtype="<f4").tobytes())
    body = b"".join(out)
    return body + struct.pack("<I", zlib.crc32(body))


class Reader:
    """Reads a binary format front to back; ``name`` names it in IntegrityError messages."""

    def __init__(self, data: bytes, name: str):
        self.data = data
        self.name = name
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise IntegrityError(f"{self.name} truncated")
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def array(self, dtype, count: int) -> np.ndarray:
        """The next ``count`` items of ``dtype``, read-only."""
        dtype = np.dtype(dtype)
        return np.frombuffer(self.take(dtype.itemsize * count), dtype=dtype)

    def end(self) -> None:
        """Raise IntegrityError unless every byte has been read."""
        if self.pos != len(self.data):
            raise IntegrityError(f"{len(self.data) - self.pos} trailing bytes after the {self.name}")


def _load_block(r: Reader, shape: tuple[int, int], cfg: QuantConfig) -> QuantizedTensor:
    """Read one block of ``shape``: group_split frames it, QuantizedTensor checks it."""
    (n_out,) = r.unpack("<I")
    outliers = r.array(OUTLIER_DTYPE, n_out)
    groups, nbytes = group_split(shape, cfg.layout, cfg.group_size, cfg.bits, outliers)
    table = r.array(_GROUP_TABLE, groups)
    return QuantizedTensor(
        shape=shape,
        bits=cfg.bits,
        group_size=cfg.group_size,
        layout=cfg.layout,
        zero_points=table["zero"],
        scales=table["scale"],
        packed_codes=r.take(nbytes),
        outliers=outliers,
    )


def _load_entry(r: Reader, cfgs, head_dim: int, prefill_len: int) -> LayerHeadCache:
    (n_pos,) = r.unpack("<I")
    positions = r.array("<u4", n_pos).astype(np.int64)
    if np.any(np.diff(positions) <= 0):
        raise IntegrityError("entry positions are not strictly increasing")
    k_cfg, v_cfg = cfgs or (None, None)
    blocks = []  # rows per block: the prompt block, then one per flush
    if cfgs is not None:
        prompt = int(np.searchsorted(positions, prefill_len))
        if prompt == 0:
            raise IntegrityError("a quantized entry holds no prompt rows")
        blocks = [prompt] + [k_cfg.group_size] * ((n_pos - prompt) // k_cfg.group_size)
    quant_k = [_load_block(r, (rows, head_dim), k_cfg) for rows in blocks]
    quant_v = [_load_block(r, (rows, head_dim), v_cfg) for rows in blocks]
    rest = n_pos - sum(blocks)
    residual = r.array("<f4", 2 * rest * head_dim).reshape(2, rest, head_dim)
    if not np.isfinite(residual).all():
        raise IntegrityError("residual values must be finite")
    residual_k, residual_v = residual.astype(np.float32)
    return LayerHeadCache(positions.tolist(), quant_k, quant_v, residual_k, residual_v)


def load_snapshot(data: bytes) -> CompressedKVCache:
    """Rebuild a cache from :func:`dump_snapshot` output.

    Any input that is not a valid snapshot raises :class:`IntegrityError`.
    """
    try:
        return _load_snapshot(data)
    except ContractViolation as exc:
        raise IntegrityError(f"snapshot holds an invalid setting: {exc}") from exc


def _load_snapshot(data: bytes) -> CompressedKVCache:
    r = Reader(data, "snapshot")
    if r.take(4) != SNAPSHOT_MAGIC:
        raise IntegrityError("bad snapshot magic")
    (
        version,
        layers,
        heads,
        head_dim,
        group_size,
        layout_code,
        threshold,
        prefill_len,
        total_budget_bytes,
    ) = r.unpack(_HEADER)
    if version != SNAPSHOT_VERSION:
        raise IntegrityError(f"unsupported snapshot version {version}")
    if len(data) < r.pos + 4 or zlib.crc32(data[:-4]) != struct.unpack("<I", data[-4:])[0]:
        raise IntegrityError("snapshot checksum mismatch")
    r.data = data[:-4]
    if layout_code >= len(_LAYOUTS):
        raise IntegrityError(f"unknown layout code {layout_code}")
    table = r.array(_PLAN_TABLE, layers)
    plan = BudgetPlan(
        per_layer=tuple(zip(table["tokens"].tolist(), table["bits"].tolist())),
        group_size=group_size,
        layout=_LAYOUTS[layout_code],
        total_budget_bytes=total_budget_bytes,
        outlier_threshold=None if np.isnan(threshold) else threshold,
    )
    entries = []
    for layer in range(layers):
        cfgs = plan.quant_config(layer)
        entries.append([_load_entry(r, cfgs, head_dim, prefill_len) for _ in range(heads)])
    r.end()

    return CompressedKVCache(
        plan=plan,
        heads=heads,
        head_dim=head_dim,
        prefill_len=prefill_len,
        entries=entries,
    )
