"""Compressed KV cache: prune at prefill, quantize the survivors, decode on top.

The cache keeps one layout (KIVI's):

* per (layer, head), quantized blocks: one for the pruned prompt tokens,
  then one per flush;
* per layer, the prompt positions eviction kept, one read-only
  ``(heads, kept)`` array;
* per layer, a full-precision residual after the blocks: one float32
  ``(heads, rows, head_dim)`` stack for K and one for V, the form decode
  attends over. Decode-time tokens land here, and when a quantized layer's
  residual reaches ``group_size`` rows, each head's slice is flushed into
  a new block of that head (group-wise quantization needs complete groups).

A 16-bit layer is the case where the residual is never flushed: it has no
blocks and keeps every row, prompt and decode alike, in the residual.
Every row after the kept prompt rows is a decode row, and its position is
implied: the i-th decode row of a layer sits at ``prefill_len + i``.
The uncompressed reference, ``model.DenseKV``, is this cache under the
full-budget 16-bit plan, every prompt row of every layer in its residual:
the reference and the compressed path decode through one store.

Pruning decisions are made once, from full-precision prefill attention
statistics (``ScoreContext``); decode-time tokens are appended and never
evicted. Decode writes a layer at a time: ``decode_append`` takes the
layer's K and V rows as its projection gives them, every head side by side
``(heads * head_dim,)``, checks them once and joins them to the residual
stacks with one :func:`concat_rows` each. Eviction keeps as many prompt
rows in every head and each append reaches every head, so every head of a
layer holds as many rows. A residual stack is never written in place: an
append or a flush replaces it, so clones share stacks as they share blocks.
Attention at decode runs over ``materialize_layer``'s output: every head of
one layer, stacked ``(heads, rows, head_dim)`` and read-only;
``materialize`` is a view of one head of it. Each immutable block is
decoded once and keeps its decoded form (``dequantize_matrix``): a block
that a flush makes carries it from ``quantize_matrix`` on, and a block that
``load_snapshot`` reads decodes on first use. So a decode step decodes only
loaded blocks that no step has read yet. A quantized layer's joined stacks
(each head's decoded blocks, then its residual rows) are kept between
reads, outside the cache's value: a read whose decoded blocks are (by
identity) those the stacks were joined from returns views of them, and an
append writes its row in place, past the rows of every earlier read,
growing the stacks when full to the layer's next flush. A flush drops
them; a clone or a loaded cache starts without them, and a read that finds
a block it was not joined from joins them anew, K and V in one
concatenation. This is a correctness-first reference path with no fused
kernels.

The cache owns its kept positions and residual stacks: callers read them
as tuples (``positions``, ``residual_k``, ``residual_v``), and only the
paths that keep them valid write them (``prefill_compress``,
``load_snapshot``, ``clone`` and ``decode_append``), so nothing checks them
again. A block is checked once, where its fields enter the program. A
flush's blocks come from ``quantize_matrix``, which makes them valid by
construction, so no check repeats its work. ``load_snapshot`` copies a
``bytearray`` or ``memoryview`` input once and never copies the body whole
(its checksum is taken through a view), frames each block it reads with
``quant.group_split`` and checks each layer's group tables in one pass;
``dump_snapshot`` writes the blocks as they are. The lists that hold a
head's blocks are public (``entry``), so a read that joins a layer anew and
``dump_snapshot`` check that each head holds the blocks its plan and kept
positions give; a join skips the check for blocks (by identity) that last
passed it in the cache, its source or a clone of either.

A cache instance is single-writer per sequence: ``decode_append`` mutates
every head of one layer and writes its joined stacks. Distinct layers are
independent; ``materialize`` and ``materialize_layer`` are safe
concurrently with no writer (a read that joins a layer anew replaces its
kept stacks and the record of its checked blocks, and every reader gets
the same rows).
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field
from itertools import chain, repeat
from operator import attrgetter, is_

import numpy as np

from .budget import FULL_PRECISION_BITS, BudgetPlan, fp16_kv_bytes
from .errors import ContractViolation, IntegrityError, require_index, require_type
from .prune import PolicyConfig, ScoreContext, decide
from .quant import (
    OUTLIER_DTYPE,
    Layout,
    QuantConfig,
    QuantizedTensor,
    _block,
    check_group_tables,
    dequantize_matrix,
    group_split,
    quantize_matrix,
    quantized_bytes,
    payload_bytes as tensor_payload_bytes,
)
from .tensor import Matrix, as_matrix, as_row, concat_rows


@dataclass
class LayerHeadCache:
    """The quantized rows of one (layer, head); its full-precision rows are its
    slice of the layer's residual stacks."""

    quant_k: list[QuantizedTensor]
    quant_v: list[QuantizedTensor]


# kept prompt positions, fresh or loaded: the snapshot's u32
POSITION_DTYPE = np.dtype("<u4")


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)  # a third cheaper than setting a.flags.writeable
    return a


def _empty_stack(heads: int, head_dim: int) -> np.ndarray:
    return _read_only(np.zeros((heads, 0, head_dim), dtype=np.float32))


class _Joined:
    """A quantized layer's rows as decode reads them, kept between reads.

    ``kv`` is a read-only ``(2, heads, capacity, head_dim)`` array, K then V,
    and ``k`` and ``v`` are its halves: the first ``rows`` rows of each head
    are its decoded blocks, then its residual rows. ``blocks`` (each head's
    decoded K blocks, then its V blocks) are what it was joined from; the
    residual rows are the layer's, which only ``decode_append`` adds to. A
    join fills ``kv`` exactly; an append writes its row past ``rows`` into
    ``buf``, the writable array under ``kv``, made when an append finds
    ``kv`` full.
    """

    __slots__ = ("kv", "k", "v", "rows", "blocks", "buf")

    def __init__(self, kv: np.ndarray, blocks: list):
        self.kv, self.k, self.v, self.rows = kv, kv[0], kv[1], kv.shape[2]
        self.blocks = blocks

    def append(self, k_row: np.ndarray, v_row: np.ndarray, capacity: int) -> None:
        """Write one ``(heads, 1, head_dim)`` row per side after ``rows``; when ``kv``
        is full, first move to a buffer of ``capacity`` rows."""
        rows = self.rows
        if rows == self.kv.shape[2]:
            two, heads, _, head_dim = self.kv.shape
            self.buf = np.empty((two, heads, capacity, head_dim), dtype=np.float32)
            self.buf[:, :, :rows] = self.kv
            self.kv = _read_only(self.buf.view())
            self.k, self.v = self.kv[0], self.kv[1]
        self.buf[0, :, rows : rows + 1] = k_row
        self.buf[1, :, rows : rows + 1] = v_row
        self.rows = rows + 1


# what _check_blocks compares of each block, read in one call
_BLOCK_FIELDS = attrgetter("__class__", "shape", "bits", "group_size", "layout")


def _said(blocks: list) -> list:
    """Blocks as ``_check_blocks`` names them: (shape, bits, group size, layout), or the type of
    an item that is not a block."""
    return [(q.shape, q.bits, q.group_size, q.layout.value) if type(q) is QuantizedTensor else type(q).__name__
            for q in blocks]


def _same(blocks: list, others: list) -> bool:
    """Whether two lists hold the same arrays, by identity."""
    return len(blocks) == len(others) and all(map(is_, blocks, others))


def _flush(row: list[LayerHeadCache], k, v, cfgs: tuple[QuantConfig, QuantConfig]) -> None:
    """Quantize each head's rows of the layer stacks ``k`` and ``v`` into one new block of that head."""
    k_cfg, v_cfg = cfgs
    for e, k_h, v_h in zip(row, k, v):
        e.quant_k.append(quantize_matrix(k_h, k_cfg))
        e.quant_v.append(quantize_matrix(v_h, v_cfg))


@dataclass(eq=False)
class CompressedKVCache:
    """All (layer, head) sub-caches under one plan, and each layer's kept positions and residual stacks.

    The cache owns the last two (see the module docstring) and shows them as tuples.
    ``positions[layer]`` is a read-only ``(heads, kept)`` u32 array, each
    head's kept prompt positions, strictly increasing: the positions of its
    first stored rows. ``residual_k[layer]`` and ``residual_v[layer]`` are
    read-only float32 ``(heads, rows, head_dim)`` arrays of one shape, never
    written in place; on a quantized layer ``rows`` is below ``group_size``.
    """

    plan: BudgetPlan
    heads: int
    head_dim: int
    prefill_len: int
    entries: list[list[LayerHeadCache]]
    _positions: list[np.ndarray]
    _residual_k: list[np.ndarray]
    _residual_v: list[np.ndarray]
    # each quantized layer's joined stacks by layer index (_Joined): not part
    # of the cache's value, and a new cache, a clone among them, starts with none
    _joined: dict = field(default_factory=dict, init=False, repr=False)
    # each quantized layer's decoded blocks that last passed _check_blocks, shared
    # by a cache and its clones: they hold one plan, kept positions and width
    _checked: dict = field(default_factory=dict, repr=False)

    positions = property(lambda self: tuple(self._positions))
    residual_k = property(lambda self: tuple(self._residual_k))
    residual_v = property(lambda self: tuple(self._residual_v))

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
        # blocks are immutable and positions read-only, and residual stacks,
        # like blocks, are replaced rather than written: shared
        entries = [[LayerHeadCache(list(e.quant_k), list(e.quant_v)) for e in row] for row in self.entries]
        return CompressedKVCache(plan=self.plan, heads=self.heads, head_dim=self.head_dim,
                                 prefill_len=self.prefill_len, entries=entries, _positions=list(self._positions),
                                 _residual_k=list(self._residual_k), _residual_v=list(self._residual_v),
                                 _checked=self._checked)

    def decode_append(self, layer: int, h_k, h_v) -> None:
        """Append one decode token's K/V rows to every head of ``layer``, at full precision.

        ``h_k`` and ``h_v`` are the layer's K and V rows as the projection
        gives them: every head side by side, shaped ``(heads * head_dim,)``
        or ``(1, heads * head_dim)``. They join the layer's residual stacks,
        one :func:`concat_rows` for K and one for V, each head's slice
        becoming a row of that head. When a quantized layer's residual
        reaches ``group_size`` rows, each head's slice is flushed into a new
        block of that head and the residual starts empty; a 16-bit layer
        keeps every row in the residual. A layer index that is not an
        integer inside the cache, a row of any other shape, values that are
        not numbers or not finite raise ContractViolation before any head
        changes. The block lists :meth:`entry` hands out are checked where a
        read joins them (:meth:`materialize_layer`), not here: a decode step
        over a cache whose blocks a caller replaced raises at that layer's
        read, after that layer and every earlier one of the step appended.
        """
        layer = require_index("layer", layer, len(self.entries))
        heads, head_dim = self.heads, self.head_dim
        width = heads * head_dim
        k_row, v_row = as_row(h_k, width, "append rows"), as_row(h_v, width, "append rows")
        # count_nonzero, not .all(): on one short row per layer and step it
        # costs about half as much
        if np.count_nonzero(np.isfinite(k_row)) + np.count_nonzero(np.isfinite(v_row)) < 2 * width:
            raise ContractViolation("append rows must be finite")
        k_row, v_row = k_row.reshape(heads, 1, head_dim), v_row.reshape(heads, 1, head_dim)
        k, v = concat_rows(self._residual_k[layer], k_row), concat_rows(self._residual_v[layer], v_row)
        rest, group_size = k.shape[1], self.plan.group_size
        if rest == group_size and (cfgs := self.plan.quant_config(layer)) is not None:
            _flush(self.entries[layer], k, v, cfgs)
            k = v = _empty_stack(heads, head_dim)
            self._joined.pop(layer, None)
        elif (joined := self._joined.get(layer)) is not None:
            # room up to the layer's next flush, which drops the record
            joined.append(k_row, v_row, joined.rows + group_size - rest)
        self._residual_k[layer], self._residual_v[layer] = _read_only(k), _read_only(v)

    def materialize(self, layer: int, head: int) -> tuple[Matrix, Matrix]:
        """(layer, head)'s rows, read-only views of :meth:`materialize_layer`'s stacks; an
        index that is not an integer inside the cache raises ContractViolation."""
        k, v = self.materialize_layer(layer)
        head = require_index("head", head, self.heads)
        return k[head], v[head]

    def materialize_layer(self, layer: int) -> tuple[np.ndarray, np.ndarray]:
        """Every head's rows of ``layer`` in position order, stacked ``(heads, rows, head_dim)``, read-only.

        A 16-bit layer returns its residual stacks themselves, uncopied. A
        quantized layer decodes every block (:func:`dequantize_matrix`, a
        lookup once a block is decoded) and returns its joined stacks: each
        head's decoded blocks, then its residual rows. When the decoded
        blocks are (by identity) those the layer's stacks were joined from,
        with the rows ``decode_append`` wrote since, they are views of those
        stacks; otherwise, as at a clone's or a loaded cache's first read,
        after a flush or after a caller replaced a block, the layer's block
        lists are checked (each head's blocks as its plan and kept positions
        give them, a ContractViolation naming the layer and head if not),
        unless these very blocks passed the check in this cache, its source
        or a clone of either, and joined anew in one concatenation of K's
        parts and V's. Every result
        keeps its rows: an append writes past them, and a flush or a new
        join leaves them where they are. An index that is not an integer
        inside the cache raises ContractViolation.
        """
        layer = require_index("layer", layer, len(self.entries))
        k, v = self._residual_k[layer], self._residual_v[layer]
        if self.plan.per_layer[layer][1] == FULL_PRECISION_BITS:  # every row in the residual
            return k, v
        row = self.entries[layer]
        blocks = []
        for e in row:
            blocks += map(dequantize_matrix, e.quant_k)
            blocks += map(dequantize_matrix, e.quant_v)
        joined = self._joined.get(layer)
        if joined is not None and _same(joined.blocks, blocks):
            rows = joined.rows
            return joined.k[:, :rows], joined.v[:, :rows]
        if not _same(self._checked.get(layer, ()), blocks):
            self._check_blocks(layer)
            self._checked[layer] = blocks
        k_parts, v_parts, start = [], [], 0
        for head, e in enumerate(row):
            mid = start + len(e.quant_k)
            end = mid + len(e.quant_v)
            k_parts += blocks[start:mid]
            k_parts.append(k[head])  # indexing makes a head's view at a fraction of iteration's cost
            v_parts += blocks[mid:end]
            v_parts.append(v[head])
            start = end
        # both sides in one array: one concatenation, one flag and one reshape for K and V
        k_parts += v_parts
        joined = _Joined(_read_only(np.concatenate(k_parts)).reshape(2, self.heads, -1, self.head_dim), blocks)
        self._joined[layer] = joined
        return joined.k, joined.v

    def _check_blocks(self, layer: int) -> None:
        """Raise ContractViolation, naming the layer and head, unless ``layer``'s block lists
        (which :meth:`entry` hands out) are those its plan and kept positions give.

        A 16-bit layer holds no blocks. In every head of a quantized layer,
        K and V each hold a ``(kept, head_dim)`` block, then as many
        ``(group_size, head_dim)`` ones as head 0's K does, each with the bits,
        group size and layout of its side's ``plan.quant_config(layer)``.
        """
        row, plan, width = self.entries[layer], self.plan, self.head_dim
        bits, group_size = plan.per_layer[layer][1], plan.group_size
        want_k = want_v = []
        if bits != FULL_PRECISION_BITS:
            kept, flushes = self._positions[layer].shape[1], len(row[0].quant_k) - 1
            # quant_config's layouts, read without building its two QuantConfigs at every join
            k_layout = plan.layout
            want_k = [(QuantizedTensor, (kept, width), bits, group_size, k_layout)]
            want_k += [(QuantizedTensor, (group_size, width), bits, group_size, k_layout)] * flushes
            want_v = want_k if k_layout is Layout.PER_TOKEN else [(*f[:4], Layout.PER_TOKEN) for f in want_k]
        for head, e in enumerate(row):
            for side, blocks, want in (("K", e.quant_k, want_k), ("V", e.quant_v, want_v)):
                try:
                    got = list(map(_BLOCK_FIELDS, blocks))
                except AttributeError:  # an item that is not a block
                    got = None
                if got != want:
                    said = [(*f[1:4], f[4].value) for f in want]
                    raise ContractViolation(f"layer {layer} head {head} must hold {side} blocks as its plan and kept "
                                            f"positions give them, (shape, bits, group size, layout) {said}: "
                                            f"got {_said(blocks)}")

    def _layer_bytes(self, layer: int, block_bytes) -> int:
        """One layer's bytes: its fp16 residual K/V rows, plus ``block_bytes`` of each block."""
        blocks = sum(block_bytes(q) for e in self.entries[layer] for q in e.quant_k + e.quant_v)
        return blocks + fp16_kv_bytes(self._residual_k[layer].shape[1], self.heads, self.head_dim)

    def measured_bytes_per_layer(self) -> list[int]:
        return [self._layer_bytes(layer, quantized_bytes) for layer in range(len(self.entries))]

    def measured_bytes(self) -> int:
        return sum(self.measured_bytes_per_layer())

    def payload_bytes(self) -> int:
        """Bytes with group metadata and outlier positions waived (codes + values only)."""
        return sum(self._layer_bytes(layer, tensor_payload_bytes) for layer in range(len(self.entries)))


def _length(seq) -> int | None:
    """``len(seq)``, or None for an object without a length."""
    try:
        return len(seq)
    except TypeError:
        return None


def prefill_compress(
    keys: list[np.ndarray],
    values: list[np.ndarray],
    ctxs: list[list[ScoreContext | None]],
    plan: BudgetPlan,
    policy: PolicyConfig,
) -> CompressedKVCache:
    """Prune every (layer, head) to its plan budget, then quantize the survivors.

    ``keys[layer]`` and ``values[layer]`` are a layer's K and V stacks as
    ``model.prefill`` gives them, ``(heads, n, head_dim)``; ``ctxs[layer]``
    holds each head's prefill attention statistics (or None). A layer's kept
    positions are one ``(heads, kept)`` array; one index per side gathers
    the kept rows, in temporal order, into the layer's residual stacks, which
    a quantized layer flushes into each head's prompt block. ``keys``,
    ``values`` and ``ctxs`` must each hold the plan's layers, every K and V
    one finite, nonempty stack of numbers of one shape, and every ctx row a
    sequence of one item per head; anything else raises ContractViolation.
    """
    require_type("plan", plan, BudgetPlan)
    require_type("policy", policy, PolicyConfig)
    if not _length(keys) == _length(values) == _length(ctxs) == plan.layers:
        raise ContractViolation(f"keys, values and ctxs must each hold {plan.layers} layers")
    shape = None
    entries, positions, residual_k, residual_v = [], [], [], []
    for layer in range(plan.layers):
        tokens, _ = plan.per_layer[layer]
        if tokens < policy.window:
            raise ContractViolation(
                f"layer {layer} budget {tokens} below policy minimum {policy.window}"
            )
        # a value past float32's range becomes inf, rejected below
        k, v = (as_matrix(m, f"K/V at layer {layer}", ndim=3) for m in (keys[layer], values[layer]))
        shape = shape or k.shape
        if 0 in shape or k.shape != shape or v.shape != shape:
            raise ContractViolation(f"K/V at layer {layer} must be nonempty, shaped {shape}: "
                                    f"got {k.shape}, {v.shape}")
        if not (np.isfinite(k).all() and np.isfinite(v).all()):
            raise ContractViolation(f"K/V at layer {layer} must be finite")
        heads, n, head_dim = shape
        if (got := _length(ctxs[layer])) != heads:
            raise ContractViolation(f"ctxs must hold {heads} heads at layer {layer}, got {got}")
        kept = _read_only(np.array([decide(policy, c, n, tokens).retained for c in ctxs[layer]], POSITION_DTYPE))
        gather = (np.arange(heads)[:, None], kept)
        k, v = _read_only(k[gather]), _read_only(v[gather])
        row = [LayerHeadCache([], []) for _ in range(heads)]
        if (cfgs := plan.quant_config(layer)) is not None:  # the prompt blocks
            _flush(row, k, v, cfgs)
            k = v = _empty_stack(heads, head_dim)
        entries.append(row)
        positions.append(kept)
        residual_k.append(k)
        residual_v.append(v)
    return CompressedKVCache(plan=plan, heads=heads, head_dim=head_dim, prefill_len=n, entries=entries,
                             _positions=positions, _residual_k=residual_k, _residual_v=residual_v)


# Snapshot binary layout, version 5 (all little-endian):
#   magic "KVSN", u16 version, u16 layers, u16 heads, u32 head_dim,
#   u32 group_size, u8 layout, f64 outlier threshold (NaN = unset),
#   u32 prefill_len, i64 total_budget_bytes;
#   the plan table: per layer u32 tokens, u8 bits;
#   per layer: u32 kept prompt rows, u32 decode rows, every head's kept
#   positions as one (heads, kept) u32 array, each head's K blocks then its
#   V blocks, and the residual K and V stacks as one (2, heads, rows,
#   head_dim) f32 array;
#   u32 CRC-32 (zlib) of every byte before it.
# A block is u32 outlier count, outliers (u32 row, u32 col, f32 value), the
# group table (f64 zero, f64 scale) and the packed codes. No shape or count
# the flush rule fixes is stored: a quantized layer's first block holds the
# kept prompt rows, each later one group_size decode rows, the residual the
# rest; a 16-bit layer has no blocks. quant.group_split sizes a block.
# Decode positions are implied (prefill_len, prefill_len + 1, ...), and
# every head of a layer holds as many rows, so neither is written.
SNAPSHOT_MAGIC = b"KVSN"
SNAPSHOT_VERSION = 5

_HEADER = "<HHHIIBdIq"
_LAYOUTS = list(Layout)
_PLAN_TABLE = np.dtype([("tokens", "<u4"), ("bits", "u1")])
_GROUP_TABLE = np.dtype([("zero", "<f8"), ("scale", "<f8")])


def dump_snapshot(cache: CompressedKVCache) -> bytes:
    """The cache as snapshot bytes (the layout above); :func:`load_snapshot` reads them back.

    The cache's blocks were checked where their fields entered the program,
    but the lists that hold them are public (:meth:`~CompressedKVCache.entry`),
    so each layer's must hold the blocks its plan and kept positions give,
    as :meth:`~CompressedKVCache.materialize_layer` checks at a join. Its
    residual stacks are the cache's own, but a prefill result's values
    (:meth:`model.DenseKV.from_prefill`) can bring a NaN in, so they must be
    finite, as :func:`load_snapshot` requires. A layer that fails raises
    ContractViolation before anything is written.
    """
    require_type("cache", cache, CompressedKVCache)
    for layer, (k, v) in enumerate(zip(cache._residual_k, cache._residual_v)):
        cache._check_blocks(layer)
        if not (np.isfinite(k).all() and np.isfinite(v).all()):
            raise ContractViolation(f"store layer {layer}'s residual values must be finite")
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
    for row, kept, k, v in zip(cache.entries, cache._positions, cache._residual_k, cache._residual_v):
        rows = sum(q.shape[0] for q in row[0].quant_k) + k.shape[1]
        out.append(struct.pack("<II", kept.shape[1], rows - kept.shape[1]))
        out.append(kept.tobytes())
        for e in row:
            for q in e.quant_k + e.quant_v:
                table = np.empty(len(q.scales), _GROUP_TABLE)
                table["zero"], table["scale"] = q.zero_points, q.scales
                out += [struct.pack("<I", len(q.outliers)), q.outliers.tobytes()]
                out += [table.tobytes(), q.packed_codes]
        out.append(np.array([k, v], dtype="<f4").tobytes())
    body = b"".join(out)
    return body + struct.pack("<I", zlib.crc32(body))


class Reader:
    """Reads a binary format front to back, up to ``stop`` (the end of ``data``
    unless a caller sets it sooner); ``name`` names it in IntegrityError messages."""

    def __init__(self, data: bytes, name: str):
        self.data = data
        self.name = name
        self.pos = 0
        self.stop = len(data)

    def take(self, n: int) -> bytes:
        if self.pos + n > self.stop:
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
        """Raise IntegrityError unless every byte up to ``stop`` has been read."""
        if self.pos != self.stop:
            raise IntegrityError(f"{self.stop - self.pos} trailing bytes after the {self.name}")


def _load_blocks(r: Reader, cfgs: tuple[QuantConfig, QuantConfig] | None, kept: int, flushes: int, heads: int,
                 head_dim: int) -> list[LayerHeadCache]:
    """One layer's blocks: none on a 16-bit layer (``cfgs`` None), else each head's
    K blocks then its V blocks, each side a prompt block of ``kept`` rows and
    ``flushes`` blocks of group_size rows.

    group_split frames each block and checks its outliers; the layer's group
    tables are then checked in one pass (:func:`check_group_tables`) and
    joined into one owned copy, whose read-only views the blocks hold.
    """
    if cfgs is None:
        return [LayerHeadCache([], []) for _ in range(heads)]
    fields, tables = [], []
    for _ in range(heads):
        for cfg in cfgs:
            # lazy: a forged count meets the end of the data
            for shape in chain(((kept, head_dim),), repeat((cfg.group_size, head_dim), flushes)):
                (n_out,) = r.unpack("<I")
                outliers = r.array(OUTLIER_DTYPE, n_out)
                groups, nbytes = group_split(shape, cfg.layout, cfg.group_size, cfg.bits, outliers)
                tables.append(r.take(_GROUP_TABLE.itemsize * groups))
                fields.append((shape, cfg, groups, r.take(nbytes), outliers))
    table = np.frombuffer(b"".join(tables), _GROUP_TABLE)
    zeros, scales = table["zero"], table["scale"]
    check_group_tables(zeros, scales, cfgs[0].bits)  # K and V share the layer's bit width
    blocks, start = [], 0
    for shape, cfg, groups, codes, outliers in fields:
        end = start + groups
        blocks.append(_block(shape, cfg.bits, cfg.group_size, cfg.layout, zeros[start:end], scales[start:end],
                             codes, outliers))
        start = end
    side = 1 + flushes
    return [LayerHeadCache(blocks[i : i + side], blocks[i + side : i + 2 * side])
            for i in range(0, len(blocks), 2 * side)]


def load_snapshot(data: bytes) -> CompressedKVCache:
    """Rebuild a cache from :func:`dump_snapshot` output.

    Any input that is not a valid snapshot raises :class:`IntegrityError`,
    among them a layer keeping no prompt rows or more than ``prefill_len``,
    and kept positions that do not strictly increase below ``prefill_len``,
    and ``data`` that is not ``bytes``, ``bytearray`` or ``memoryview``.
    A ``bytearray`` or ``memoryview`` is copied once, before anything is
    read, so the cache shares no buffer its caller can still write.

    This is where a loaded block's fields enter the program, so they are
    checked here, once: each block is framed by ``quant.group_split``, which
    checks its outliers, and each layer's group tables are checked together
    by ``quant.check_group_tables``, the rule ``QuantizedTensor`` applies to
    one block; the blocks are then built without a second check.
    """
    try:
        require_type("a snapshot", data, (bytes, bytearray, memoryview), "bytes")
    except ContractViolation as exc:
        raise IntegrityError(str(exc)) from None
    try:
        return _load_snapshot(data if type(data) is bytes else bytes(data))
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
    # the body is checksummed through a view and read up to the checksum in
    # place: neither copies it whole
    if len(data) < r.pos + 4 or zlib.crc32(memoryview(data)[:-4]) != struct.unpack("<I", data[-4:])[0]:
        raise IntegrityError("snapshot checksum mismatch")
    r.stop -= 4
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
    if heads == 0 or head_dim == 0:
        raise IntegrityError(f"a snapshot must hold heads of at least one dimension, got {heads} x {head_dim}")
    entries, positions, residual_k, residual_v = [], [], [], []
    for layer in range(layers):
        kept, decode = r.unpack("<II")
        if not 1 <= kept <= prefill_len:
            raise IntegrityError(f"layer {layer} keeps {kept} prompt rows, outside [1, {prefill_len}]")
        p = r.array(POSITION_DTYPE, heads * kept).reshape(heads, kept)
        if (p[:, 1:] <= p[:, :-1]).any() or p[:, -1].max() >= prefill_len:
            raise IntegrityError(f"layer {layer}'s kept positions do not strictly increase below {prefill_len}")
        positions.append(_read_only(p))  # shared by clones, whatever buffer the snapshot came in
        cfgs = plan.quant_config(layer)
        flushes, rest = (0, kept + decode) if cfgs is None else divmod(decode, group_size)
        entries.append(_load_blocks(r, cfgs, kept, flushes, heads, head_dim))
        residual = r.array("<f4", 2 * heads * rest * head_dim).reshape(2, heads, rest, head_dim)
        if not np.isfinite(residual).all():
            raise IntegrityError("residual values must be finite")
        residual_k.append(residual[0])
        residual_v.append(residual[1])
    r.end()
    return CompressedKVCache(plan=plan, heads=heads, head_dim=head_dim, prefill_len=prefill_len, entries=entries,
                             _positions=positions, _residual_k=residual_k, _residual_v=residual_v)
