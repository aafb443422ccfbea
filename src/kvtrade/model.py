"""Attention-only toy decoder that runs prefill and decode through a cache.

The model is deliberately minimal: causal multi-head attention with residual
connections, no feed-forward blocks and no normalization layers. That keeps
the hand-built retrieval model analytic and makes compression effects easy
to attribute; real LLMs differ, loudly so. Attention scores are scaled by
1/sqrt(head_dim) (at toy widths the softmax saturates without it).

Positional encodings are off by default (retrieval here is content
addressed); sinusoidal absolute positions can be enabled per config for
causality-sensitive experiments. All randomness is seeded.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .cache import CompressedKVCache
from .errors import ContractViolation, IntegrityError
from .prune import check_causal_rows
from .quant import error_bound_matrix
from .tensor import Matrix, matmul, softmax_rows

NEG_MASK = np.float32(-1e30)


@dataclass(frozen=True)
class ModelConfig:
    layers: int
    heads: int
    d_model: int
    vocab: int
    context_limit: int
    seed: int = 0
    use_positions: bool = False

    def __post_init__(self) -> None:
        if min(self.layers, self.heads, self.d_model, self.vocab, self.context_limit) < 1:
            raise ContractViolation("all model dimensions must be >= 1")
        if self.d_model % self.heads:
            raise ContractViolation(
                f"d_model {self.d_model} must divide evenly into {self.heads} heads"
            )

    @property
    def head_dim(self) -> int:
        return self.d_model // self.heads


@dataclass(frozen=True)
class LayerWeights:
    w_q: Matrix
    w_k: Matrix
    w_v: Matrix
    w_o: Matrix


@dataclass(frozen=True)
class Weights:
    embedding: Matrix  # vocab x d_model
    layers: tuple[LayerWeights, ...]
    head: Matrix  # d_model x vocab


@dataclass(frozen=True)
class Model:
    config: ModelConfig
    weights: Weights


@dataclass
class PrefillResult:
    logits: np.ndarray  # next-token logits, shape (vocab,)
    keys: list[list[Matrix]]  # [layer][head] -> n x head_dim
    values: list[list[Matrix]]
    # [layer][head] -> the last min(window, n) rows of the n x n causal
    # probabilities, window rows x n
    attn: list[list[Matrix]]
    column_sums: list[list[np.ndarray]]  # [layer][head] -> float64 (n,), over all rows
    hidden: Matrix  # final-layer hidden states, n x d_model


@dataclass
class DenseKV:
    """Uncompressed per-layer/head K/V lists; the reference decode store."""

    keys: list[list[Matrix]]
    values: list[list[Matrix]]

    @classmethod
    def from_prefill(cls, result: PrefillResult) -> "DenseKV":
        return cls(
            keys=[[k.copy() for k in row] for row in result.keys],
            values=[[v.copy() for v in row] for row in result.values],
        )

    def decode_append(self, layer: int, head: int, k_row, v_row) -> None:
        """Append one decode token's K/V rows, uncompressed."""
        self.keys[layer][head] = np.concatenate([self.keys[layer][head], k_row.reshape(1, -1)])
        self.values[layer][head] = np.concatenate([self.values[layer][head], v_row.reshape(1, -1)])

    def materialize(self, layer: int, head: int) -> tuple[Matrix, Matrix]:
        return self.keys[layer][head], self.values[layer][head]


def positional_encoding(length: int, d_model: int, offset: int = 0) -> Matrix:
    """Sinusoidal absolute positions for rows offset..offset+length-1."""
    pos = np.arange(offset, offset + length, dtype=np.float64)[:, None]
    dims = np.arange(d_model, dtype=np.float64)[None, :]
    angles = pos / np.power(10000.0, (2 * (dims // 2)) / d_model)
    pe = np.where(dims % 2 == 0, np.sin(angles), np.cos(angles))
    return pe.astype(np.float32)


def random_model(cfg: ModelConfig) -> Model:
    """Seeded random weights, uniform in (-0.1, 0.1)."""
    rng = np.random.default_rng(cfg.seed)

    def draw(rows: int, cols: int) -> Matrix:
        return rng.uniform(-0.1, 0.1, size=(rows, cols)).astype(np.float32)

    d = cfg.d_model
    layers = tuple(
        LayerWeights(draw(d, d), draw(d, d), draw(d, d), draw(d, d))
        for _ in range(cfg.layers)
    )
    return Model(cfg, Weights(draw(cfg.vocab, d), layers, draw(d, cfg.vocab)))


def _head_slices(x: Matrix, heads: int, head_dim: int) -> list[Matrix]:
    return [x[:, h * head_dim : (h + 1) * head_dim] for h in range(heads)]


def _row_blocks(n: int) -> list[tuple[int, int, int]]:
    """``(r0, new, r1)`` for each block of query rows in :func:`prefill`'s attention.

    A block holds ``max(1, 2**18 // n)`` rows (every row up to n = 512); its
    rows ``new..r1`` are the ones no earlier block computed. The last block
    ends at row n and overlaps the one before it rather than running short:
    BLAS may sum a short block's ``probs @ v`` products in another order (a
    small-matrix kernel or gemv) than the full product, and a full-height
    block keeps each output row bit-identical to the full n x n computation.
    That holds for head_dim >= 4 with the bundled OpenBLAS; at head_dim 1-3
    and n > 512 a row block of ``probs @ v`` may round differently.
    """
    rows = min(max(1, 2**18 // n), n)
    return [(min(new, n - rows), new, min(new + rows, n)) for new in range(0, n, rows)]


def prefill(model: Model, tokens, window: int = 0) -> PrefillResult:
    """Run the prompt once, returning next-token logits plus the full-precision
    K/V and the attention statistics every compression decision starts from.

    Each head's attention is computed one block of query rows at a time
    (:func:`_row_blocks`), so no n x n matrix is ever held. Per head the
    result keeps the float64 column sums of the probabilities and the last
    ``window`` probability rows (see :class:`PrefillResult`). Each block is
    checked as :class:`ScoreContext` checks its rows: a row that does not
    sum to 1, or that puts weight past its diagonal (a real score below
    ``NEG_MASK``), raises ContractViolation.
    """
    cfg = model.config
    ids = np.asarray(tokens, dtype=np.int64).reshape(-1)
    n = ids.size
    if n == 0 or n > cfg.context_limit:
        raise ContractViolation(f"prompt length {n} outside (0, {cfg.context_limit}]")
    if ids.min() < 0 or ids.max() >= cfg.vocab:
        raise ContractViolation("token id outside vocabulary")
    if window < 0:
        raise ContractViolation(f"window must be >= 0, got {window}")

    x = model.weights.embedding[ids, :].copy()
    if cfg.use_positions:
        x = x + positional_encoding(n, cfg.d_model)

    scale = np.float32(1.0 / math.sqrt(cfg.head_dim))
    blocks = _row_blocks(n)
    first_kept = n - min(window, n)
    cols = np.arange(n)

    keys: list[list[Matrix]] = []
    values: list[list[Matrix]] = []
    attn: list[list[Matrix]] = []
    column_sums: list[list[np.ndarray]] = []
    for lw in model.weights.layers:
        q = matmul(x, lw.w_q)
        k = matmul(x, lw.w_k)
        v = matmul(x, lw.w_v)
        k_heads = _head_slices(k, cfg.heads, cfg.head_dim)
        v_heads = _head_slices(v, cfg.heads, cfg.head_dim)
        q_heads = _head_slices(q, cfg.heads, cfg.head_dim)
        sums = [np.zeros(n) for _ in range(cfg.heads)]
        kept = [np.empty((n - first_kept, n), dtype=np.float32) for _ in range(cfg.heads)]
        out = np.empty((n, cfg.d_model), dtype=np.float32)
        for r0, new, r1 in blocks:
            mask = cols > np.arange(r0, r1)[:, None]
            for head, (qh, kh, vh) in enumerate(zip(q_heads, k_heads, v_heads)):
                scores = matmul(qh[r0:r1], kh.T) * scale
                scores[mask] = NEG_MASK
                probs = softmax_rows(scores)
                check_causal_rows(probs, r0, masked=True)
                cols_h = slice(head * cfg.head_dim, (head + 1) * cfg.head_dim)
                out[new:r1, cols_h] = matmul(probs, vh)[new - r0 :]
                # the new rows, reduced in float64 with the running sums as
                # their first row: bit for bit a full-matrix sum(axis=0)
                sums[head] = np.add.reduce(np.vstack([sums[head], probs[new - r0 :]]), axis=0)
                if r1 > first_kept:
                    lo = max(new, first_kept)
                    kept[head][lo - first_kept : r1 - first_kept] = probs[lo - r0 :]
        keys.append([np.ascontiguousarray(kh) for kh in k_heads])
        values.append([np.ascontiguousarray(vh) for vh in v_heads])
        attn.append(kept)
        column_sums.append(sums)
        x = x + matmul(out, lw.w_o)

    logits = matmul(x[-1:, :], model.weights.head)[0]
    return PrefillResult(logits, keys, values, attn, column_sums, x)


def _decode(model: Model, store, h) -> np.ndarray:
    """One decode step over ``store``, a :class:`CompressedKVCache` or :class:`DenseKV`.

    Each head appends the token's K/V rows first (so it attends to itself),
    then attends over the store's ``materialize`` output.
    """
    cfg = model.config
    scale = np.float32(1.0 / math.sqrt(cfg.head_dim))
    x = np.asarray(h, dtype=np.float32).reshape(1, cfg.d_model)
    for layer, lw in enumerate(model.weights.layers):
        q = matmul(x, lw.w_q)
        k = matmul(x, lw.w_k)
        v = matmul(x, lw.w_v)
        outs = []
        for head in range(cfg.heads):
            sl = slice(head * cfg.head_dim, (head + 1) * cfg.head_dim)
            store.decode_append(layer, head, k[0, sl], v[0, sl])
            k_mat, v_mat = store.materialize(layer, head)
            outs.append(matmul(softmax_rows(matmul(q[:, sl], k_mat.T) * scale), v_mat))
        x = x + matmul(np.concatenate(outs, axis=1), lw.w_o)
    return matmul(x, model.weights.head)[0]


def decode_step(model: Model, cache: CompressedKVCache, h) -> np.ndarray:
    """One decode step through the compressed cache, mutated in place; returns the logits."""
    return _decode(model, cache, h)


def decode_step_dense(model: Model, kv: DenseKV, h) -> np.ndarray:
    """Reference decode: :func:`decode_step`'s loop over the uncompressed store ``kv``."""
    return _decode(model, kv, h)


def embed_token(model: Model, token: int, position: int = 0) -> np.ndarray:
    """Embedding row for one token (plus positional term when enabled)."""
    h = model.weights.embedding[token, :].copy()
    if model.config.use_positions:
        h = h + positional_encoding(1, model.config.d_model, offset=position)[0]
    return h


# ---------------------------------------------------------------------------
# Hand-built associative-recall model
# ---------------------------------------------------------------------------
#
# Desk-scale stand-in for long-context retrieval probes: the prompt carries
# key-value token pairs buried in filler, the query is a key, and the model
# must emit the paired value. One layer, one head, orthogonal one-hot blocks:
#
#   dims [0, m)    match:   value token i carries the pair identity here;
#                           W_K reads it, W_Q writes the query here.
#   dims [m, 2m)   probe:   key token i's embedding lives here.
#   dims [2m, 3m)  payload: value token i's own identity; W_V/W_O copy it
#                           into the residual stream, the output head reads
#                           it back as the logit of value token i.
#   dims [3m, d)   filler:  filler-token embeddings, inert under attention.
#
# A query key attends (sharply, gain c) to its pair's stored position and
# copies the payload; every other stored row projects to zero. Retrieval
# therefore succeeds exactly when the pair survives in the cache.


@dataclass(frozen=True)
class RecallVocab:
    num_pairs: int
    filler_vocab: int

    def key(self, i: int) -> int:
        return i

    def value(self, i: int) -> int:
        return self.num_pairs + i

    def filler(self, j: int) -> int:
        return 2 * self.num_pairs + (j % self.filler_vocab)

    @property
    def size(self) -> int:
        return 2 * self.num_pairs + self.filler_vocab


def build_recall_model(
    num_pairs: int,
    seq_len: int,
    filler_vocab: int = 32,
    d_model: int | None = None,
    attend_gain: float | None = None,
    payload_gain: float = 8.0,
) -> tuple[Model, RecallVocab, float]:
    """Construct the retrieval model and report its worst-case logit margin.

    The margin is measured by running the model itself: a reference prompt of
    ``seq_len`` tokens with every pair present is prefilled at full precision
    and each key queried; the returned margin is the minimum over queries of
    (logit of the correct value) - (best competing logit).
    """
    m = num_pairs
    if m < 1:
        raise ContractViolation("need at least one pair")
    if filler_vocab < 1:
        raise ContractViolation("vocabulary too small: no filler alphabet")
    if d_model is None:
        d_model = 4 * m
    if d_model < 3 * m + 1:
        raise ContractViolation(f"d_model {d_model} too small for {m} pairs")
    vocab = RecallVocab(m, filler_vocab)

    if attend_gain is None:
        # post-softmax weight on the matched position ~ 1 - n/(99n)
        attend_gain = math.sqrt(math.sqrt(d_model) * math.log(99.0 * (seq_len + 2)))
    c = np.float32(attend_gain)

    emb = np.zeros((vocab.size, d_model), dtype=np.float32)
    for i in range(m):
        emb[vocab.key(i), m + i] = 1.0
        emb[vocab.value(i), i] = 1.0
        emb[vocab.value(i), 2 * m + i] = 1.0
    for j in range(filler_vocab):
        emb[vocab.filler(j), 3 * m + j % (d_model - 3 * m)] = 1.0

    w_q = np.zeros((d_model, d_model), dtype=np.float32)
    w_k = np.zeros((d_model, d_model), dtype=np.float32)
    w_v = np.zeros((d_model, d_model), dtype=np.float32)
    w_o = np.zeros((d_model, d_model), dtype=np.float32)
    head = np.zeros((d_model, vocab.size), dtype=np.float32)
    for i in range(m):
        w_q[m + i, i] = c
        w_k[i, i] = c
        w_v[2 * m + i, 2 * m + i] = np.float32(payload_gain)
        w_o[2 * m + i, 2 * m + i] = 1.0
        head[2 * m + i, vocab.value(i)] = 1.0

    cfg = ModelConfig(
        layers=1,
        heads=1,
        d_model=d_model,
        vocab=vocab.size,
        context_limit=seq_len + 2,
    )
    model = Model(cfg, Weights(emb, (LayerWeights(w_q, w_k, w_v, w_o),), head))

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
    return model, vocab, margin


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

    entry = cache.entry(0, 0)
    k_mat, v_mat = cache.materialize(0, 0)
    e_k_parts = [error_bound_matrix(qt) for qt in entry.quant_k]
    e_v_parts = [error_bound_matrix(qt) for qt in entry.quant_v]
    res_rows = entry.residual_k.shape[0] + 1  # residual + the appended query row
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


# Weights file: magic "KVTW", u16 version, u16 layers, u16 heads, u32 d_model,
# u32 vocab, u32 context_limit, i64 seed, u8 use_positions, then raw f32 LE
# matrices: embedding, per layer (W_Q, W_K, W_V, W_O), output head.
WEIGHTS_MAGIC = b"KVTW"
WEIGHTS_VERSION = 1

_WEIGHTS_HEADER = "<HHHIIIqB"
# headroom below float32 max for rounding in float32 sums of products
_ACTIVATION_LIMIT = float(np.finfo(np.float32).max) / 256


def _activations_fit(cfg: ModelConfig, weights: Weights) -> bool:
    """Whether every value :func:`prefill` computes stays below the limit, for any prompt.

    ``a`` bounds the l2 norm of every residual-stream row; a row times a
    matrix is bounded by ``a`` times the matrix's spectral norm. A head's
    scores are dot products of its query and key rows, its output rows are
    convex combinations of its value rows, and each layer adds its output
    projection to the stream. Entries are bounded by their row's norm.
    Weights must be finite (SVD needs it). Returning at the first layer
    past the limit keeps every bound finite.
    """

    def norm(w: Matrix) -> float:
        return float(np.linalg.norm(w.astype(np.float64), 2))

    heads = [slice(h * cfg.head_dim, (h + 1) * cfg.head_dim) for h in range(cfg.heads)]
    a = float(np.linalg.norm(weights.embedding.astype(np.float64), axis=1).max())
    a += math.sqrt(cfg.d_model) if cfg.use_positions else 0.0  # entries in [-1, 1]
    for lw in weights.layers:
        q = [a * norm(lw.w_q[:, h]) for h in heads]
        k = [a * norm(lw.w_k[:, h]) for h in heads]
        v = [a * norm(lw.w_v[:, h]) for h in heads]
        out = math.sqrt(sum(x * x for x in v)) * norm(lw.w_o)
        if max(a, *q, *k, *v, max(x * y for x, y in zip(q, k)), out) > _ACTIVATION_LIMIT:
            return False
        a += out
    return max(a, a * norm(weights.head)) <= _ACTIVATION_LIMIT


def save_weights(model: Model, path) -> None:
    cfg = model.config
    parts = [
        WEIGHTS_MAGIC,
        struct.pack(
            _WEIGHTS_HEADER,
            WEIGHTS_VERSION,
            cfg.layers,
            cfg.heads,
            cfg.d_model,
            cfg.vocab,
            cfg.context_limit,
            cfg.seed,
            int(cfg.use_positions),
        ),
    ]

    def emit(mat: Matrix) -> None:
        parts.append(np.ascontiguousarray(mat, dtype="<f4").tobytes())

    emit(model.weights.embedding)
    for lw in model.weights.layers:
        emit(lw.w_q)
        emit(lw.w_k)
        emit(lw.w_v)
        emit(lw.w_o)
    emit(model.weights.head)
    with open(path, "wb") as fh:
        fh.write(b"".join(parts))


def load_weights(path) -> Model:
    """Read a :func:`save_weights` file.

    Raises :class:`IntegrityError`, and no other exception, for content that
    is not a valid weights file: a wrong magic or version, a short or
    overlong file, a header :class:`ModelConfig` rejects, a use_positions
    byte other than 0 or 1, weights that are not finite, and weights whose
    prefill activations could overflow float32 (:func:`_activations_fit`).
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != WEIGHTS_MAGIC:
        raise IntegrityError("bad weights magic")
    offset = 4 + struct.calcsize(_WEIGHTS_HEADER)
    if len(data) < offset:
        raise IntegrityError("weights file truncated")
    version, layers, heads, d_model, vocab, ctx, seed, use_pos = struct.unpack(
        _WEIGHTS_HEADER, data[4:offset]
    )
    if version != WEIGHTS_VERSION:
        raise IntegrityError(f"unsupported weights version {version}")
    if use_pos > 1:
        raise IntegrityError(f"use_positions byte must be 0 or 1, got {use_pos}")
    try:
        cfg = ModelConfig(layers, heads, d_model, vocab, ctx, seed, bool(use_pos))
    except ContractViolation as exc:
        raise IntegrityError(f"weights header holds an invalid setting: {exc}") from exc

    def take(rows: int, cols: int) -> Matrix:
        nonlocal offset
        nbytes = rows * cols * 4
        if offset + nbytes > len(data):
            raise IntegrityError("weights file truncated")
        mat = np.frombuffer(data[offset : offset + nbytes], dtype="<f4")
        offset += nbytes
        return mat.reshape(rows, cols).astype(np.float32)

    emb = take(vocab, d_model)
    lws = tuple(
        LayerWeights(
            take(d_model, d_model),
            take(d_model, d_model),
            take(d_model, d_model),
            take(d_model, d_model),
        )
        for _ in range(layers)
    )
    head = take(d_model, vocab)
    if offset != len(data):
        raise IntegrityError("trailing bytes in weights file")
    weights = Weights(emb, lws, head)
    mats = [emb, head] + [w for lw in lws for w in (lw.w_q, lw.w_k, lw.w_v, lw.w_o)]
    if not all(np.isfinite(m).all() for m in mats):
        raise IntegrityError("weights must be finite")
    if not _activations_fit(cfg, weights):
        raise IntegrityError("weights could overflow float32 activations in prefill")
    return Model(cfg, weights)
