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
from dataclasses import dataclass, field

import numpy as np

from .cache import CompressedKVCache, Reader, append_rows
from .errors import ContractViolation, IntegrityError, require_index, require_int
from .tensor import Matrix, as_matrix, concat_rows, matmul, softmax_rows

# prefill's score for a future key: softmax gives it exactly 0 weight
NEG_MASK = np.float32(-np.inf)


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
        for name in ("layers", "heads", "d_model", "vocab", "context_limit"):
            require_int(name, getattr(self, name), 1)
        require_int("seed", self.seed, 0)
        if self.d_model % self.heads:
            raise ContractViolation(
                f"d_model {self.d_model} must divide evenly into {self.heads} heads"
            )

    @property
    def head_dim(self) -> int:
        return self.d_model // self.heads


@dataclass(frozen=True)
class LayerWeights:
    """One layer's projections, each ``(d_model, d_model)``.

    Construction joins W_Q, W_K and W_V into one stored copy, ``w_qkv``
    ``(d_model, 3 * d_model)``, of which ``w_q``, ``w_k`` and ``w_v`` become
    column views. Decode projects through ``w_qkv`` in one product; with the
    bundled OpenBLAS that gives the three separate products' bits.
    """

    w_q: Matrix
    w_k: Matrix
    w_v: Matrix
    w_o: Matrix
    w_qkv: Matrix = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        w_qkv = np.concatenate((self.w_q, self.w_k, self.w_v), axis=1)
        for name, view in zip(("w_q", "w_k", "w_v"), np.split(w_qkv, 3, axis=1)):
            object.__setattr__(self, name, view)
        object.__setattr__(self, "w_qkv", w_qkv)


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
    """A prefill's outputs, every per-head array one stack per layer; callers must
    not write to the stacks (:meth:`DenseKV.from_prefill` shares them)."""

    logits: np.ndarray  # next-token logits, shape (vocab,)
    keys: list[np.ndarray]  # [layer] -> C-contiguous float32 (heads, n, head_dim)
    values: list[np.ndarray]
    # [layer] -> each head's last w = min(window, n) rows of the n x n causal
    # probabilities, float32 (heads, w, n)
    attn: list[np.ndarray]
    column_sums: list[np.ndarray]  # [layer] -> float64 (heads, n), over all rows
    hidden: Matrix  # final-layer hidden states, n x d_model


def _stack_dims(k, v) -> tuple[int, int] | None:
    """(heads, head_dim) of a layer's K and V, or None unless both are 3-D float32 arrays of one shape."""
    stacks = isinstance(k, np.ndarray) and isinstance(v, np.ndarray) and k.ndim == 3 and k.shape == v.shape
    return (k.shape[0], k.shape[2]) if stacks and k.dtype == v.dtype == np.float32 else None


@dataclass
class DenseKV:
    """The uncompressed reference decode store: per layer, one float32 ``(heads, rows, head_dim)``
    stack for K and one for V, the form decode attends over. A stored stack is never written
    in place; an append replaces the layer's arrays, so stacks read before it keep their rows."""

    keys: list[np.ndarray]
    values: list[np.ndarray]

    @property
    def shape(self) -> tuple[int, int, int] | None:
        """(layers, heads, head_dim), or None unless every layer's K and V share it (:func:`_stack_dims`)."""
        dims = {_stack_dims(k, v) for k, v in zip(self.keys, self.values)}
        uniform = len(self.keys) == len(self.values) and len(dims) == 1 and None not in dims
        return (len(self.keys), *dims.pop()) if uniform else None

    @classmethod
    def from_prefill(cls, result: PrefillResult) -> "DenseKV":
        """A store sharing ``result``'s stacks: an append replaces them rather than writing them."""
        return cls(list(result.keys), list(result.values))

    def decode_append(self, layer: int, h_k, h_v) -> None:
        """:meth:`CompressedKVCache.decode_append`'s contract, uncompressed; a
        layer not holding K and V stacks of one shape also raises."""
        k, v = self.materialize_layer(layer)
        dims = _stack_dims(k, v)
        if dims is None:
            raise ContractViolation(f"layer {layer} must hold K and V as 3-D float32 stacks of one shape")
        k_row, v_row = append_rows(h_k, h_v, dims[0] * dims[1])
        self.keys[layer] = concat_rows(k, k_row.reshape(dims[0], 1, dims[1]))
        self.values[layer] = concat_rows(v, v_row.reshape(dims[0], 1, dims[1]))

    def materialize(self, layer: int, head: int) -> tuple[Matrix, Matrix]:
        """The stored K/V of (layer, head), views of the layer's stacks."""
        k, v = self.materialize_layer(layer)
        head = require_index("head", head, len(k))
        return k[head], v[head]

    def materialize_layer(self, layer: int) -> tuple[np.ndarray, np.ndarray]:
        """The stored K/V stacks of ``layer``, uncopied (callers must not write to them);
        an index that is not an integer inside the store raises ContractViolation."""
        layer = require_index("layer", layer, len(self.keys))
        return self.keys[layer], self.values[layer]


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
    rows ``new..r1`` are the ones no earlier block computed. Its rows see key
    columns ``[0, r1)`` only: every column from ``r1`` on is past each of its
    rows' diagonals. The last block ends at row n and overlaps the one before
    it rather than running short: BLAS may sum a short block's ``probs @ v``
    products in another order (a small-matrix kernel or gemv) than the full
    product, and a full-height, full-width block keeps each output row
    bit-identical to the full n x n computation. That holds for head_dim >= 4
    with the bundled OpenBLAS; at head_dim 1-3 and n > 512 a row block of
    ``probs @ v`` may round differently.
    """
    rows = min(max(1, 2**18 // n), n)
    return [(min(new, n - rows), new, min(new + rows, n)) for new in range(0, n, rows)]


# Rows per softmax call and per column-sum fold inside a prefill row block:
# bounds their float64 temporaries to 64 x r1, whatever the block height.
_SLICE_ROWS = 64


def _prompt_ids(model: Model, tokens) -> np.ndarray:
    """``tokens`` as int64 ids: a 1-D prompt that fits the context, of integer dtype, in the vocabulary."""
    cfg = model.config
    try:
        ids = np.asarray(tokens)
    except ValueError:  # a ragged prompt, such as [[1, 2], [3]]
        raise ContractViolation("a prompt must be 1-D and a token one id, got a ragged sequence") from None
    if ids.ndim != 1:
        raise ContractViolation(f"a prompt must be 1-D and a token one id, got shape {ids.shape}")
    if ids.size == 0 or ids.size > cfg.context_limit:
        raise ContractViolation(f"prompt length {ids.size} outside (0, {cfg.context_limit}]")
    if ids.dtype.kind not in "iu":
        raise ContractViolation(f"token ids must be integers, got dtype {ids.dtype}")
    if ids.min() < 0 or ids.max() >= cfg.vocab:
        raise ContractViolation("token id outside vocabulary")
    return ids.astype(np.int64, copy=False)


def _embed(model: Model, ids: np.ndarray, offset: int = 0) -> Matrix:
    """Layer 0's input: the token embeddings, plus positions from ``offset`` when enabled."""
    x = model.weights.embedding[ids, :].copy()
    if model.config.use_positions:
        x = x + positional_encoding(ids.size, model.config.d_model, offset)
    return x


def _project_kv(x: Matrix, lw: LayerWeights, cfg: ModelConfig) -> tuple[list[Matrix], list[Matrix]]:
    """One layer's per-head K and V views of its input ``x``."""
    k = matmul(x, lw.w_k)
    v = matmul(x, lw.w_v)
    return _head_slices(k, cfg.heads, cfg.head_dim), _head_slices(v, cfg.heads, cfg.head_dim)


def prefill_kv0(model: Model, tokens) -> tuple[np.ndarray, np.ndarray]:
    """Layer 0's K and V stacks for a prompt, bit for bit what :func:`prefill` stores.

    It embeds and projects through the same helpers as prefill, at the cost
    of two n x d_model x d_model products. ``sweep`` re-derives layer 0 at
    each point: called in grid order, seed innermost, ``run_point`` keeps
    every seed's prompt live, and holding layer 0 in each raised the
    benchmark's ``recall_tradeoff`` peak RSS by 11%.
    """
    ids = _prompt_ids(model, tokens)
    k, v = _project_kv(_embed(model, ids), model.weights.layers[0], model.config)
    return np.stack(k), np.stack(v)


def prefill(model: Model, tokens, window: int = 0) -> PrefillResult:
    """Run the prompt once, returning next-token logits plus the full-precision
    K/V and the attention statistics every compression decision starts from.

    Each head's attention is computed one block of query rows at a time
    (:func:`_row_blocks`), so no n x n matrix is ever held. Per head the
    result keeps the float64 column sums of the probabilities and the last
    ``window`` probability rows (see :class:`PrefillResult`); K and V are
    computed through column views and stacked once per layer. A block
    ``(r0, new, r1)`` computes its scores, softmax and column-sum fold over
    key columns ``[0, r1)`` only, since every later column is masked; the
    softmax and the fold run on 64-row slices of it, so their float64
    temporaries stay at 64 x r1. Softmax is row-wise and the fold adds one
    row at a time, so neither the truncation nor the slicing changes a bit.
    ``probs @ v`` alone runs full width, on a zero-padded buffer held once
    per call, because a product truncated to ``r1`` columns may round
    differently. Future keys score ``NEG_MASK`` (-inf). Every real score is
    finite (``matmul`` rejects a non-finite product), and the softmax
    normalises in float64, so each future key gets exactly 0 weight and each
    row sums to 1: the rows are causal by construction and need no check. A
    ``window`` that is not an integer >= 0 raises ContractViolation.
    """
    cfg = model.config
    ids = _prompt_ids(model, tokens)
    n = ids.size
    window = require_int("window", window, 0)

    scale = np.float32(1.0 / math.sqrt(cfg.head_dim))
    blocks = _row_blocks(n)
    first_kept = n - min(window, n)
    cols = np.arange(n)
    # probs @ v runs full width: a product truncated to [0, r1) may round
    # differently. Columns past r1 stay zero, since r1 only grows in a layer.
    padded = np.empty((blocks[0][2], n), dtype=np.float32)
    # the column-sum fold: row 0 the running sums, then a slice's rows
    fold = np.empty((1 + _SLICE_ROWS, n))

    keys, values, attn, column_sums = [], [], [], []
    x = _embed(model, ids)
    for lw in model.weights.layers:
        k_heads, v_heads = _project_kv(x, lw, cfg)
        q_heads = _head_slices(matmul(x, lw.w_q), cfg.heads, cfg.head_dim)
        sums = np.zeros((cfg.heads, n))
        kept = np.zeros((cfg.heads, n - first_kept, n), dtype=np.float32)
        out = np.empty((n, cfg.d_model), dtype=np.float32)
        padded.fill(0.0)
        for r0, new, r1 in blocks:
            mask = cols[:r1] > np.arange(r0, r1)[:, None]
            probs = padded[:, :r1]
            for head, (qh, kh, vh) in enumerate(zip(q_heads, k_heads, v_heads)):
                scores = matmul(qh[r0:r1], kh[:r1].T)
                scores *= scale
                scores[mask] = NEG_MASK
                for s in range(0, r1 - r0, _SLICE_ROWS):
                    probs[s : s + _SLICE_ROWS] = softmax_rows(scores[s : s + _SLICE_ROWS])
                cols_h = slice(head * cfg.head_dim, (head + 1) * cfg.head_dim)
                out[new:r1, cols_h] = matmul(padded, vh)[new - r0 :]
                # the new rows, reduced in float64 with the running sums as
                # their first row: bit for bit a full-matrix sum(axis=0)
                for s in range(new - r0, r1 - r0, _SLICE_ROWS):
                    rows = probs[s : s + _SLICE_ROWS]
                    fold[0, :r1] = sums[head][:r1]
                    fold[1 : 1 + len(rows), :r1] = rows
                    np.add.reduce(fold[: 1 + len(rows), :r1], axis=0, out=sums[head][:r1])
                if r1 > first_kept:
                    lo = max(new, first_kept)
                    kept[head][lo - first_kept : r1 - first_kept, :r1] = probs[lo - r0 :]
        keys.append(np.stack(k_heads))
        values.append(np.stack(v_heads))
        attn.append(kept)
        column_sums.append(sums)
        x = x + matmul(out, lw.w_o)

    logits = matmul(x[-1:, :], model.weights.head)[0]
    return PrefillResult(logits, keys, values, attn, column_sums, x)


def _decode(model: Model, store, h) -> np.ndarray:
    """One decode step over ``store``, a :class:`CompressedKVCache` or :class:`DenseKV`.

    In each layer one product with ``w_qkv`` gives the token's Q, K and V
    rows for every head, and one ``decode_append`` stores all heads' K and V
    (so each head attends to itself). Then all heads attend at once over the
    store's ``materialize_layer`` stacks: one stacked :func:`matmul` for the
    scores, one softmax over the ``(heads, rows)`` scores and one stacked
    :func:`matmul` with V, each head's result bit for bit what its own 2-D
    products give. A store not shaped like the model, or an ``h`` not shaped
    ``(d_model,)`` or ``(1, d_model)`` or not holding numbers
    (:func:`as_matrix`), raises ContractViolation before the first append.
    """
    cfg = model.config
    want = (cfg.layers, cfg.heads, cfg.head_dim)
    if store.shape != want:
        raise ContractViolation(f"store (layers, heads, head_dim) {store.shape} is not the model's {want}")
    try:
        x = np.asarray(h)
    except ValueError:  # a ragged row, such as [1, [2], 3, 4]
        raise ContractViolation("h must hold numbers, got a ragged sequence") from None
    if x.shape not in ((cfg.d_model,), (1, cfg.d_model)):
        raise ContractViolation(f"h must be shaped ({cfg.d_model},) or (1, {cfg.d_model}), got {x.shape}")
    x = as_matrix(x.reshape(1, cfg.d_model), "h")
    d, heads, head_dim = cfg.d_model, cfg.heads, cfg.head_dim
    scale = np.float32(1.0 / math.sqrt(head_dim))
    for layer, lw in enumerate(model.weights.layers):
        qkv = matmul(x, lw.w_qkv)[0]
        store.decode_append(layer, qkv[d : 2 * d], qkv[2 * d :])
        k_stack, v_stack = store.materialize_layer(layer)
        scores = matmul(qkv[:d].reshape(heads, 1, head_dim), k_stack.transpose(0, 2, 1))
        probs = softmax_rows(scores.reshape(heads, -1) * scale)
        out = matmul(probs.reshape(heads, 1, -1), v_stack)
        x = x + matmul(out.reshape(1, cfg.d_model), lw.w_o)
    return matmul(x, model.weights.head)[0]


def decode_step(model: Model, cache: CompressedKVCache, h) -> np.ndarray:
    """One decode step through the compressed cache, mutated in place; returns the logits."""
    return _decode(model, cache, h)


def decode_step_dense(model: Model, kv: DenseKV, h) -> np.ndarray:
    """Reference decode: :func:`decode_step`'s loop over the uncompressed store ``kv``."""
    return _decode(model, kv, h)


def embed_token(model: Model, token: int, position: int = 0) -> np.ndarray:
    """Embedding row for one token (plus positional term when enabled); a
    token that is not one integer id inside the vocabulary, or a position
    that is not an integer >= 0, raises ContractViolation. A position may pass ``context_limit``: decode
    continues past the prompt."""
    ids = _prompt_ids(model, [token])
    return _embed(model, ids, require_int("position", position, 0))[0]


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


# W_V's gain on the payload dims: the retrieved value's logit
_PAYLOAD_GAIN = np.float32(8.0)


@dataclass(frozen=True)
class RecallVocab:
    num_pairs: int
    filler_vocab: int

    def __post_init__(self) -> None:
        require_int("num_pairs", self.num_pairs, 1)
        require_int("filler_vocab", self.filler_vocab, 1)

    def key(self, i: int) -> int:
        return i

    def value(self, i: int) -> int:
        return self.num_pairs + i

    def filler(self, j: int) -> int:
        return 2 * self.num_pairs + (j % self.filler_vocab)

    @property
    def size(self) -> int:
        return 2 * self.num_pairs + self.filler_vocab


def build_recall_model(num_pairs: int, seq_len: int, filler_vocab: int = 32) -> tuple[Model, RecallVocab]:
    """The retrieval model for ``seq_len``-token prompts, and its vocabulary.

    ``d_model`` is ``4 * num_pairs``: the match, probe, payload and filler blocks.
    """
    vocab, seq_len = RecallVocab(num_pairs, filler_vocab), require_int("seq_len", seq_len, 1)
    m = num_pairs
    d_model = 4 * m

    # attention gain: post-softmax weight on the matched position ~ 1 - n/(99n)
    c = np.float32(math.sqrt(math.sqrt(d_model) * math.log(99.0 * (seq_len + 2))))

    emb = np.zeros((vocab.size, d_model), dtype=np.float32)
    for i in range(m):
        emb[vocab.key(i), m + i] = 1.0
        emb[vocab.value(i), i] = 1.0
        emb[vocab.value(i), 2 * m + i] = 1.0
    for j in range(filler_vocab):
        emb[vocab.filler(j), 3 * m + j % m] = 1.0

    w_q = np.zeros((d_model, d_model), dtype=np.float32)
    w_k = np.zeros((d_model, d_model), dtype=np.float32)
    w_v = np.zeros((d_model, d_model), dtype=np.float32)
    w_o = np.zeros((d_model, d_model), dtype=np.float32)
    head = np.zeros((d_model, vocab.size), dtype=np.float32)
    for i in range(m):
        w_q[m + i, i] = c
        w_k[i, i] = c
        w_v[2 * m + i, 2 * m + i] = _PAYLOAD_GAIN
        w_o[2 * m + i, 2 * m + i] = 1.0
        head[2 * m + i, vocab.value(i)] = 1.0

    cfg = ModelConfig(
        layers=1,
        heads=1,
        d_model=d_model,
        vocab=vocab.size,
        context_limit=seq_len + 2,
    )
    return Model(cfg, Weights(emb, (LayerWeights(w_q, w_k, w_v, w_o),), head)), vocab


# Weights file: magic "KVTW", u16 version, u16 layers, u16 heads, u32 d_model,
# u32 vocab, u32 context_limit, i64 seed, u8 use_positions, then raw f32 LE
# matrices in the order _matrices gives.
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


def _matrices(weights: Weights) -> list[Matrix]:
    """The weights file's matrices in file order: the embedding, W_Q, W_K,
    W_V and W_O of each layer, then the output head."""
    layers = [w for lw in weights.layers for w in (lw.w_q, lw.w_k, lw.w_v, lw.w_o)]
    return [weights.embedding, *layers, weights.head]


def save_weights(model: Model, path) -> None:
    cfg = model.config
    header = struct.pack(
        _WEIGHTS_HEADER,
        WEIGHTS_VERSION,
        cfg.layers,
        cfg.heads,
        cfg.d_model,
        cfg.vocab,
        cfg.context_limit,
        cfg.seed,
        int(cfg.use_positions),
    )
    mats = [np.ascontiguousarray(m, dtype="<f4").tobytes() for m in _matrices(model.weights)]
    with open(path, "wb") as fh:
        fh.write(b"".join([WEIGHTS_MAGIC, header, *mats]))


def load_weights(path) -> Model:
    """Read a :func:`save_weights` file.

    Raises :class:`IntegrityError`, and no other exception, for content that
    is not a valid weights file: a wrong magic or version, a short or
    overlong file, a header :class:`ModelConfig` rejects, a use_positions
    byte other than 0 or 1, weights that are not finite, and weights whose
    prefill activations could overflow float32 (:func:`_activations_fit`).
    """
    with open(path, "rb") as fh:
        r = Reader(fh.read(), "weights file")
    if r.take(4) != WEIGHTS_MAGIC:
        raise IntegrityError("bad weights magic")
    version, layers, heads, d_model, vocab, ctx, seed, use_pos = r.unpack(_WEIGHTS_HEADER)
    if version != WEIGHTS_VERSION:
        raise IntegrityError(f"unsupported weights version {version}")
    if use_pos > 1:
        raise IntegrityError(f"use_positions byte must be 0 or 1, got {use_pos}")
    try:
        cfg = ModelConfig(layers, heads, d_model, vocab, ctx, seed, bool(use_pos))
    except ContractViolation as exc:
        raise IntegrityError(f"weights header holds an invalid setting: {exc}") from exc

    def take(rows: int, cols: int) -> Matrix:
        return r.array("<f4", rows * cols).reshape(rows, cols).astype(np.float32)

    emb = take(vocab, d_model)
    lws = tuple(LayerWeights(*(take(d_model, d_model) for _ in range(4))) for _ in range(layers))
    weights = Weights(emb, lws, take(d_model, vocab))
    r.end()
    if not all(np.isfinite(m).all() for m in _matrices(weights)):
        raise IntegrityError("weights must be finite")
    if not _activations_fit(cfg, weights):
        raise IntegrityError("weights could overflow float32 activations in prefill")
    return Model(cfg, weights)
