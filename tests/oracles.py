"""Reference implementations the tests compare the engine against.

None of these runs on an engine path; each restates, in its plainest form,
something the package computes another way:

* ``matrix``: a validated 2-D float32 matrix from nested sequences, the
  tests' shorthand for the engine's ``Matrix``;
* ``QuantGroup``, ``quantize_group``, ``dequantize_group``: min-max
  quantization of one group at a time, the per-group form of the block
  operations in :mod:`kvtrade.quant`;
* ``pack_group``: one group's codes packed bit by bit, little-endian, the
  oracle for :func:`kvtrade.quant.pack_codes`;
* ``reference_dequantize``: a block decoded group by group from its packed
  bytes and placed element by element, the oracle for
  :func:`kvtrade.quant.dequantize_matrix`;
* ``uniform_plan``: a plan that keeps the same token count at one bit
  width on every layer, built through :func:`kvtrade.budget.plan_for_tokens`;
* ``context_from_probs``: the score statistics of a full n x n probability
  matrix, the oracle for prefill's streamed statistics;
* ``max_pool``: centered max pooling as one ``max`` per truncated window,
  the oracle for snapkv's pooled scores (:func:`kvtrade.prune._max_pool_1d`);
* ``error_bound_matrix``: each element's worst-case dequantization error,
  its group's scale / 2 (0 at an outlier);
* ``stored_blocks``: one head's quantized blocks of a cache layer, the one place
  the tests read the cache's block storage;
* ``quantization_logit_bound``: a worst-case bound on the logit change that
  quantization causes in one decode step of a single-layer model;
* ``recall_margin``: the recall model's worst-case logit margin, measured by
  running the model at full precision;
* ``per_head_decode``: one decode step that appends, materializes and
  attends head by head with 2-D products, the oracle for the decode step
  that attends over a whole layer's stacked heads at once;
* ``DenseStore``: an uncompressed store of plain K/V stacks, built apart
  from the engine's cache, the oracle for :class:`kvtrade.model.DenseKV`
  (the full-budget 16-bit cache) under ``per_head_decode``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from kvtrade.budget import FULL_PRECISION_BITS, PLAN_BITS, BudgetPlan, plan_for_tokens
from kvtrade.cache import CompressedKVCache
from kvtrade.errors import ContractViolation, require_index
from kvtrade.model import DenseKV, Model, PrefillResult, RecallVocab, decode_step_dense, embed_token, prefill
from kvtrade.prune import ScoreContext
from kvtrade.quant import SUPPORTED_BITS, Layout, QuantizedTensor, unpack_codes
from kvtrade.tensor import Matrix, matmul, softmax_rows


def matrix(data) -> Matrix:
    """Build a validated 2-D float32 matrix from nested sequences or an array."""
    m = np.asarray(data, dtype=np.float32)
    if m.ndim == 1:
        m = m.reshape(1, -1)
    if m.ndim != 2:
        raise ContractViolation(f"matrix must be 2-D, got ndim={m.ndim}")
    if m.size and not np.all(np.isfinite(m)):
        raise ContractViolation("matrix contains non-finite elements")
    return np.ascontiguousarray(m)


@dataclass(frozen=True)
class QuantGroup:
    """One quantized group: integer codes plus its (scale, zero_point) pair."""

    codes: np.ndarray  # uint8, values in [0, 2**bits - 1]
    zero_point: float
    scale: float
    length: int


def quantize_group(values, bits: int) -> QuantGroup:
    """Min-max quantize one group of finite values to ``bits``-bit codes.

    Rounding is half-to-even. A constant group degenerates to scale 0 with
    all codes 0 (the formula would otherwise divide by zero).
    """
    if bits not in SUPPORTED_BITS:
        raise ContractViolation(f"bits must be one of {SUPPORTED_BITS}, got {bits}")
    v = np.asarray(values, dtype=np.float64).reshape(-1)
    if v.size == 0:
        raise ContractViolation("quantize_group requires a nonempty group")
    if not np.all(np.isfinite(v)):
        raise ContractViolation("quantize_group requires finite values")
    z = float(v.min())
    m = float(v.max())
    levels = (1 << bits) - 1
    if m == z:
        return QuantGroup(np.zeros(v.size, dtype=np.uint8), z, 0.0, v.size)
    s = (m - z) / levels
    codes = np.clip(np.rint((v - z) / s), 0, levels).astype(np.uint8)
    return QuantGroup(codes, z, s, v.size)


def dequantize_group(g: QuantGroup) -> np.ndarray:
    """Invert :func:`quantize_group`: ``code * scale + zero_point`` (float64)."""
    if g.scale == 0.0:
        return np.full(g.length, g.zero_point, dtype=np.float64)
    return g.codes.astype(np.float64) * g.scale + g.zero_point


def pack_group(codes, bits: int) -> bytes:
    """Pack one group's codes little-endian, bit by bit, zero-padded to whole bytes.

    Bit ``b`` of code ``i`` is bit ``i * bits + b`` of the stream, counted
    from the least significant bit of the first byte.
    """
    out = bytearray((len(codes) * bits + 7) // 8)
    for i, code in enumerate(codes):
        for b in range(bits):
            if int(code) >> b & 1:
                pos = i * bits + b
                out[pos // 8] |= 1 << pos % 8
    return bytes(out)


def reference_dequantize(q):
    """Decode group by group with unpack_codes and dequantize_group, then scatter."""
    values, offset = [], 0
    for length, zero, scale in zip(q.lengths.tolist(), q.zero_points, q.scales):
        nbytes = (length * q.bits + 7) // 8
        codes = unpack_codes(q.packed_codes[offset : offset + nbytes], q.bits, length)
        values.extend(dequantize_group(QuantGroup(codes, float(zero), float(scale), length)))
        offset += nbytes
    out = np.zeros(q.shape, dtype=np.float64)
    outlier_pos = {(r, c) for r, c, _ in q.outliers}
    if q.layout == Layout.PER_TOKEN:
        order = [(r, c) for r in range(q.shape[0]) for c in range(q.shape[1])]
    else:
        order = [(r, c) for c in range(q.shape[1]) for r in range(q.shape[0])]
    survivors = [p for p in order if p not in outlier_pos]
    for p, v in zip(survivors, values, strict=True):
        out[p] = v
    out = out.astype(np.float32)
    for r, c, v in q.outliers:
        out[r, c] = np.float32(v)
    return out


def error_bound_matrix(q: QuantizedTensor) -> np.ndarray:
    """Per-element worst-case |dequantization error| of block ``q``: its group's scale / 2, and 0 at an
    outlier, which is stored exactly. Float64, shaped like the block; groups fill each run (a row per
    token, a column per channel) in order, skipping outliers."""
    out = np.zeros(q.shape)
    grouped = np.ones(q.shape, dtype=bool)
    grouped[q.outliers["row"], q.outliers["col"]] = False
    runs, grouped = (out, grouped) if q.layout == Layout.PER_TOKEN else (out.T, grouped.T)
    runs[grouped] = np.repeat(q.scales / 2.0, q.lengths)
    return out


def stored_blocks(cache: CompressedKVCache, layer: int, head: int) -> tuple[list, list]:
    """(K blocks, V blocks) of one head of a cache layer, in row order: the prompt block, then one per flush.

    Every test that reads the cache's block storage reads it here, so a change of how the cache
    holds its blocks changes only this function.
    """
    e = cache.entry(layer, head)
    return e.quant_k, e.quant_v


def uniform_plan(
    layers: int,
    base_tokens: int,
    bits: int,
    heads: int,
    head_dim: int,
    group_size: int = 64,
    layout: Layout = Layout.PER_TOKEN,
) -> BudgetPlan:
    """Every layer keeps ``base_tokens * (16 / bits)`` tokens at ``bits``.

    ``base_tokens`` @ 16-bit is the reference configuration whose byte cost
    becomes ``total_budget_bytes``.
    """
    if bits not in PLAN_BITS:
        raise ContractViolation(f"bits must be one of {PLAN_BITS}, got {bits}")
    if base_tokens < 1:
        raise ContractViolation("base_tokens must be >= 1")
    tokens = base_tokens * (FULL_PRECISION_BITS // bits)
    return plan_for_tokens([tokens] * layers, bits, heads, head_dim, group_size, layout)


def context_from_probs(attn_probs: Matrix, seq_len: int) -> ScoreContext:
    """Statistics of a full n x n probability matrix, all n rows kept as the window."""
    if attn_probs.shape != (seq_len, seq_len):
        raise ContractViolation(f"attn_probs must be {seq_len}x{seq_len}, got {attn_probs.shape}")
    return ScoreContext(attn_probs.astype(np.float64).sum(axis=0), attn_probs, seq_len)


def max_pool(values, width: int) -> list:
    """Each position's max over the ``width``-wide window centered on it, cut at the edges."""
    half = width // 2
    return [max(values[max(0, j - half) : j + half + 1]) for j in range(len(values))]


def quantization_logit_bound(model: Model, cache: CompressedKVCache, h) -> float:
    """Worst-case |logit perturbation| from quantization, single-layer models.

    Per-group dequantization error is bounded by scale/2; the bound is
    propagated numerically through the attention step for the given query
    state: score shifts bound the softmax weight drift multiplicatively,
    value errors add directly, and the result is pushed through |W_O| and
    the |output head|.
    """
    cfg = model.config
    if cfg.layers != 1 or cfg.heads != 1:
        raise ContractViolation("bound is computed for 1-layer, 1-head models")
    lw = model.weights.layers[0]
    x = np.asarray(h, dtype=np.float64).reshape(1, cfg.d_model)
    q = x @ lw.w_q.astype(np.float64)

    k_blocks, v_blocks = stored_blocks(cache, 0, 0)
    k_mat, v_mat = (m[0] for m in cache.materialize_layer(0))
    e_k_parts = [error_bound_matrix(qt) for qt in k_blocks]
    e_v_parts = [error_bound_matrix(qt) for qt in v_blocks]
    res_rows = cache.residual_k[0].shape[1] + 1  # residual + the appended query row
    zeros_tail = np.zeros((res_rows, cfg.d_model), dtype=np.float64)
    e_k = np.concatenate(e_k_parts + [zeros_tail], axis=0)[: k_mat.shape[0] + 1]
    e_v = np.concatenate(e_v_parts + [zeros_tail], axis=0)[: v_mat.shape[0] + 1]

    # the appended query row is stored at full precision in the residual
    k_full = np.concatenate([k_mat.astype(np.float64), x @ lw.w_k.astype(np.float64)])
    v_full = np.concatenate([v_mat.astype(np.float64), x @ lw.w_v.astype(np.float64)])
    e_k = e_k[: k_full.shape[0]]
    e_v = e_v[: v_full.shape[0]]

    scale = 1.0 / math.sqrt(cfg.head_dim)
    scores = (q @ k_full.T)[0] * scale
    score_err = (np.abs(q) @ e_k.T)[0] * scale
    w = np.exp(scores - scores.max())
    w /= w.sum()
    blow = math.exp(2.0 * float(score_err.max()))
    weight_drift = w * (blow - 1.0)

    out_err = weight_drift @ np.abs(v_full) + blow * (w @ e_v)
    logit_err = out_err @ np.abs(lw.w_o.astype(np.float64)) @ np.abs(
        model.weights.head.astype(np.float64)
    )
    return float(logit_err.max())


def recall_margin(model: Model, vocab: RecallVocab, seq_len: int) -> float:
    """Worst-case logit margin of a :func:`kvtrade.model.build_recall_model` model.

    The margin is measured by running the model itself: a reference prompt of
    ``seq_len`` tokens with every pair present is prefilled at full precision
    and each key queried; the returned margin is the minimum over queries of
    (logit of the correct value) - (best competing logit).
    """
    m = vocab.num_pairs
    # reference prompt: pairs evenly spread through filler, all retained
    tokens = [vocab.filler(j) for j in range(seq_len)]
    span = max(seq_len - 2, 1)
    for i in range(m):
        pos = min(int(i * span / max(m - 1, 1)), seq_len - 2)
        tokens[pos] = vocab.key(i)
        tokens[pos + 1] = vocab.value(i)
    result = prefill(model, tokens)
    margin = math.inf
    for i in range(m):
        kv = DenseKV.from_prefill(result)
        logits = decode_step_dense(model, kv, embed_token(model, vocab.key(i)))
        expected = vocab.value(i)
        best_other = max(v for t, v in enumerate(logits) if t != expected)
        margin = min(margin, float(logits[expected] - best_other))
    return margin


def per_head_decode(model: Model, store, h) -> np.ndarray:
    """One decode step over ``store`` (a cache or a :class:`DenseStore`), one head at a time.

    The token's Q, K and V come from three separate products; its K/V rows
    are appended to every head first (so each attends to itself), then each
    head attends over the store's ``materialize`` output. A store not shaped
    like the model, or an ``h`` not shaped ``(d_model,)`` or ``(1, d_model)``,
    raises ContractViolation before the first append.
    """
    cfg = model.config
    want = (cfg.layers, cfg.heads, cfg.head_dim)
    if store.shape != want:
        raise ContractViolation(f"store (layers, heads, head_dim) {store.shape} is not the model's {want}")
    x = np.asarray(h, dtype=np.float32)
    if x.shape not in ((cfg.d_model,), (1, cfg.d_model)):
        raise ContractViolation(f"h must be shaped ({cfg.d_model},) or (1, {cfg.d_model}), got {x.shape}")
    x = x.reshape(1, cfg.d_model)
    scale = np.float32(1.0 / math.sqrt(cfg.head_dim))
    for layer, lw in enumerate(model.weights.layers):
        q = matmul(x, lw.w_q)
        k = matmul(x, lw.w_k)
        v = matmul(x, lw.w_v)
        store.decode_append(layer, k, v)
        outs = []
        for head in range(cfg.heads):
            sl = slice(head * cfg.head_dim, (head + 1) * cfg.head_dim)
            k_mat, v_mat = store.materialize(layer, head)
            outs.append(matmul(softmax_rows(matmul(q[:, sl], k_mat.T) * scale), v_mat))
        x = x + matmul(np.concatenate(outs, axis=1), lw.w_o)
    return matmul(x, model.weights.head)[0]


def _stack_dims(k, v) -> tuple[int, int] | None:
    """(heads, head_dim) of a layer's K and V, or None unless both are 3-D float32 arrays of one shape."""
    stacks = isinstance(k, np.ndarray) and isinstance(v, np.ndarray) and k.ndim == 3 and k.shape == v.shape
    return (k.shape[0], k.shape[2]) if stacks and k.dtype == v.dtype == np.float32 else None


@dataclass
class DenseStore:
    """An uncompressed decode store: per layer, one float32 ``(heads, rows, head_dim)`` stack for K
    and one for V. A stored stack is never written in place; an append replaces the layer's arrays,
    so stacks read before it keep their rows. It shares no code with the engine's cache."""

    keys: list[np.ndarray]
    values: list[np.ndarray]

    @property
    def shape(self) -> tuple[int, int, int] | None:
        """(layers, heads, head_dim), or None unless every layer's K and V share it (:func:`_stack_dims`)."""
        dims = {_stack_dims(k, v) for k, v in zip(self.keys, self.values)}
        uniform = len(self.keys) == len(self.values) and len(dims) == 1 and None not in dims
        return (len(self.keys), *dims.pop()) if uniform else None

    @classmethod
    def from_prefill(cls, result: PrefillResult) -> "DenseStore":
        """A store sharing ``result``'s stacks: an append replaces them rather than writing them."""
        return cls(list(result.keys), list(result.values))

    def decode_append(self, layer: int, h_k, h_v) -> None:
        """Join one token's K and V rows, every head side by side, to ``layer``'s stacks.
        Rows that are not finite numbers of the layer's width, or a layer not holding
        K and V stacks of one shape, raise ContractViolation and change nothing."""
        k, v = self.materialize_layer(layer)
        dims = _stack_dims(k, v)
        if dims is None:
            raise ContractViolation(f"layer {layer} must hold K and V as 3-D float32 stacks of one shape")
        heads, head_dim = dims
        rows = [np.asarray(row, dtype=np.float32) for row in (h_k, h_v)]
        if any(row.size != heads * head_dim or not np.isfinite(row).all() for row in rows):
            raise ContractViolation(f"append rows must be {heads * head_dim} finite numbers")
        k_row, v_row = (row.reshape(heads, 1, head_dim) for row in rows)
        self.keys[layer] = np.concatenate((k, k_row), axis=1)
        self.values[layer] = np.concatenate((v, v_row), axis=1)

    def materialize(self, layer: int, head: int) -> tuple[Matrix, Matrix]:
        """The stored K/V of (layer, head), views of the layer's stacks."""
        k, v = self.materialize_layer(layer)
        head = require_index("head", head, len(k))
        return k[head], v[head]

    def materialize_layer(self, layer: int) -> tuple[np.ndarray, np.ndarray]:
        """The stored K/V stacks of ``layer``, uncopied; an index outside the store raises ContractViolation."""
        layer = require_index("layer", layer, len(self.keys))
        return self.keys[layer], self.values[layer]
