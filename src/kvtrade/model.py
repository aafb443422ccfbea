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
from .tensor import (
    Matrix, as_matrix, as_row, blas_threads, concat_rows, matmul, require_finite, softmax_rows, softmax_rows_into,
)

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


_PROJECTIONS = ("w_q", "w_k", "w_v", "w_o")


@dataclass(frozen=True)
class LayerWeights:
    """One layer's projections, each ``(d_model, d_model)``, stored as float32.

    Each must be a 2-D array of numbers (:func:`as_matrix`, which casts it
    to float32), all four square and of one shape; anything else raises
    ContractViolation. Construction stacks W_Q, W_K and W_V into one stored
    copy, ``w_qkv`` ``(3, d_model, d_model)``, of which ``w_q``, ``w_k`` and
    ``w_v`` become contiguous views. Decode projects through ``w_qkv`` in
    one stacked product, which numpy runs as three ``(d_model, d_model)``
    products: each the bits of a product with its view alone.
    """

    w_q: Matrix
    w_k: Matrix
    w_v: Matrix
    w_o: Matrix
    w_qkv: Matrix = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        w_q, w_k, w_v, w_o = (as_matrix(getattr(self, name), name) for name in _PROJECTIONS)
        if len({w_q.shape, w_k.shape, w_v.shape, w_o.shape, w_o.shape[::-1]}) != 1:
            raise ContractViolation("a layer's projections must be square matrices of one shape, got "
                                    f"{w_q.shape}, {w_k.shape}, {w_v.shape}, {w_o.shape}")
        w_qkv = np.stack((w_q, w_k, w_v))
        for name, view in zip(_PROJECTIONS, (*w_qkv, w_o)):
            object.__setattr__(self, name, view)
        object.__setattr__(self, "w_qkv", w_qkv)


@dataclass(frozen=True)
class Weights:
    """A model's matrices, stored as float32: each a 2-D array of numbers
    (:func:`as_matrix`), every layer a :class:`LayerWeights`; anything else raises ContractViolation."""

    embedding: Matrix  # vocab x d_model
    layers: tuple[LayerWeights, ...]
    head: Matrix  # d_model x vocab

    def __post_init__(self) -> None:
        if not isinstance(self.layers, (tuple, list)) or not all(isinstance(lw, LayerWeights) for lw in self.layers):
            raise ContractViolation("layers must be a sequence of LayerWeights")
        object.__setattr__(self, "embedding", as_matrix(self.embedding, "embedding"))
        object.__setattr__(self, "layers", tuple(self.layers))
        object.__setattr__(self, "head", as_matrix(self.head, "head"))


@dataclass(frozen=True)
class Model:
    """A config and weights that fit it, checked once, here: the embedding
    ``(vocab, d_model)``, ``layers`` projections of ``(d_model, d_model)``
    and the head ``(d_model, vocab)``, each float32 (:class:`Weights`);
    anything else raises ContractViolation. Decode relies on this check
    rather than checking the weights at each product."""

    config: ModelConfig
    weights: Weights

    def __post_init__(self) -> None:
        cfg, w = self.config, self.weights
        if not (isinstance(cfg, ModelConfig) and isinstance(w, Weights)):
            raise ContractViolation("a Model takes a ModelConfig and Weights")
        d = cfg.d_model
        shapes = [w.embedding.shape, *(lw.w_o.shape for lw in w.layers), w.head.shape]
        if shapes != [(cfg.vocab, d), *[(d, d)] * cfg.layers, (d, cfg.vocab)]:
            raise ContractViolation(
                f"weights (embedding, each layer's projections, head) shaped {shapes} do not fit "
                f"{cfg.layers} layers of d_model {d} and vocab {cfg.vocab}"
            )


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


def _row_blocks(n: int) -> list[tuple[int, int, int]]:
    """``(r0, new, r1)`` for each block of query rows in :func:`prefill`'s attention.

    A block holds ``max(1, 2**18 // n)`` rows (every row up to n = 512); its
    rows ``new..r1`` are the ones no earlier block computed. Its rows see key
    columns ``[0, r1)`` only: every column from ``r1`` on is past each of its
    rows' diagonals. The last block ends at row n and overlaps the one before
    it rather than running short: BLAS may sum a short block's ``probs @ v``
    products in another order (a small-matrix kernel or gemv) than the full
    product, and a full-height, full-width block keeps each output row
    bit-identical to the full n x n computation. The bundled OpenBLAS sums a
    product of M·N·K <= 10**6 with its small-matrix kernel, so for n > 512 a
    block's ``probs @ v``, of ``2**18 // n · n · head_dim`` multiply-adds,
    keeps the full product's bits while that count is past 10**6: at
    head_dim >= 5 (up to n = 2**17 // 3, :func:`_row_slices`' bound), and at
    head_dim 4 up to n = 12,483. At head_dim 1-3 a block may round differently.
    """
    rows = min(max(1, 2**18 // n), n)
    return [(min(new, n - rows), new, min(new + rows, n)) for new in range(0, n, rows)]


# Elements per slice of a prefill row block: a block's scores product, softmax
# and column-sum fold run one slice of at most 2**17 // n rows at a time (64 at
# n = 2048, at most the block; see _row_slices), which bounds a worker's
# float32 scores buffer and float64 softmax buffer to 2**17 elements. 2**18
# ran faster but put prefill_long's two-worker peak past 12 MiB.
_SLICE = 2**17


def _row_slices(rows: int, n: int) -> list[tuple[int, int]]:
    """The ``(s, e)`` slices of a row block of ``rows`` rows and at most ``n``
    columns: the fewest that hold at most ``_SLICE`` elements (at least one
    row) each, as near equal as can be, so that their heights differ by at
    most one row.

    An even split, not slices of the cap's height with a remainder last,
    because numpy runs a one-row ``q @ k.T`` as gemv, which sums head_dim in
    another order than the full product. Cut that way, a block ends in a
    one-row slice, and prefill's probabilities and column sums differ from
    the full-matrix computation's, at n = 515 and 519 (head_dim 16) and 536
    (head_dim 4) with 2**16-element slices, and also at n = 513 and 2000
    with 2**17. An even split cuts no one-row slice from a block of two or
    more rows while the cap is at least three rows, up to n = 2**17 // 3.
    Past that a block of five rows splits 2 + 2 + 1, and past n = 2**16
    the cap itself is one row.
    """
    k = -(-rows // max(1, _SLICE // n))
    return [(rows * i // k, rows * (i + 1) // k) for i in range(k)]


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
    """Layer 0's input: the token embeddings, plus positions from ``offset``
    when enabled; a new array (fancy indexing copies the rows)."""
    x = model.weights.embedding[ids, :]
    if model.config.use_positions:
        x = x + positional_encoding(ids.size, model.config.d_model, offset)
    return x


def _project_kv(x: Matrix, lw: LayerWeights, cfg: ModelConfig) -> tuple[np.ndarray, np.ndarray]:
    """One layer's K and V stacks, C-contiguous ``(heads, n, head_dim)``, of its
    input ``x``; each full product is freed once stacked."""
    shape = (len(x), cfg.heads, cfg.head_dim)
    return tuple(np.ascontiguousarray(matmul(x, w).reshape(shape).transpose(1, 0, 2)) for w in (lw.w_k, lw.w_v))


def prefill_kv0(model: Model, tokens) -> tuple[np.ndarray, np.ndarray]:
    """Layer 0's K and V stacks for a prompt, bit for bit what :func:`prefill` stores.

    It embeds and projects through the same helpers as prefill, at the cost
    of two n x d_model x d_model products. ``tokens`` is checked as prefill
    checks it; an int64 array passes through that check without a copy, so
    ``sweep`` keeps its prompts as one and hands the same array to prefill
    and to every point's ``prefill_kv0``. ``sweep`` re-derives layer 0 at
    each point: called in grid order, seed innermost, ``run_point`` keeps
    every seed's prompt live, and holding layer 0 in each raised the
    benchmark's ``recall_tradeoff`` peak RSS by 11%.
    """
    ids = _prompt_ids(model, tokens)
    return _project_kv(_embed(model, ids), model.weights.layers[0], model.config)


def prefill(model: Model, tokens, window: int = 0) -> PrefillResult:
    """Run the prompt once, returning next-token logits plus the full-precision
    K/V and the attention statistics every compression decision starts from.

    Each head's attention is computed one block of query rows at a time
    (:func:`_row_blocks`), so no n x n matrix is ever held. Per head the
    result keeps the float64 column sums of the probabilities and the last
    ``window`` probability rows (see :class:`PrefillResult`); a layer's K
    and V are stacked before its attention, which reads them from the
    stacks. A block ``(r0, new, r1)`` computes its scores, softmax and
    column-sum fold over key columns ``[0, r1)`` only, since every later
    column is masked. The scores product, the softmax and the fold run one
    slice of rows at a time, a block cut into near-equal slices of at most
    ``_SLICE`` elements (:func:`_row_slices`). A score is one dot product
    over head_dim, the softmax is row-wise and the fold adds one row at a
    time, so neither the truncation nor the slicing changes a bit, as long
    as no slice is one row: numpy runs a one-row scores product as gemv,
    which sums head_dim in another order. ``probs @ v``
    alone runs full width, on a zero-padded buffer, because a product
    truncated to ``r1`` columns may round differently. Future keys score
    ``NEG_MASK`` (-inf). Every real score is finite (each product goes
    through :func:`require_finite`), and the softmax normalises in float64,
    so each future key gets exactly 0 weight and each row sums to 1: the
    rows are causal by construction and need no check. A ``window`` that
    is not an integer >= 0 raises ContractViolation.

    A layer's heads are attended by :func:`_prefill_workers` workers, at
    most two (each adds its buffers: about 2.5 MiB at n = 2048): the
    calling thread, and for each other worker a thread of one
    ``ThreadPoolExecutor`` that the call holds for all its layers; every
    worker takes the layer's heads from one shared iterator, and the layer
    ends when all have finished. More than one runs only when numpy's
    BLAS runs one thread (with two, head workers and BLAS threads contend
    for the same cores: 1.4x to 1.8x slower at n = 1024-2048) and the
    prompt spans more than one row block (below that, the threads cost more
    than they save). Each worker owns its buffers: the scores, the float64
    softmax work that the fold reuses, and the zero-padded ``probs @ v``
    buffer. A head writes only its own slices of the layer's outputs with
    the same operations in the same order, so every array is bit for bit
    the same whatever the worker count. Workers make their products as bare
    ``@`` through :func:`require_finite`, each in an error state it enters
    itself, and never call ``matmul`` or ``softmax_rows``, the names a
    profiler may rebind. The first exception a worker raises (the calling
    thread's before a pool thread's) is re-raised here once every worker
    has finished, and the pool's threads are joined before prefill returns
    or raises.
    """
    cfg = model.config
    ids = _prompt_ids(model, tokens)
    window = require_int("window", window, 0)
    attention = _Attention(cfg, ids.size, window)

    pool = None
    if len(attention.workers) > 1:  # imported here: importing kvtrade loads no more modules
        from concurrent.futures import ThreadPoolExecutor

        pool = ThreadPoolExecutor(len(attention.workers) - 1)
    keys, values, attn, column_sums = [], [], [], []
    x = _embed(model, ids)
    try:
        for lw in model.weights.layers:
            k, v, sums, kept = attention.layer(x, lw, pool)
            keys.append(k)
            values.append(v)
            attn.append(kept)
            column_sums.append(sums)
    finally:
        if pool is not None:
            pool.shutdown()

    logits = matmul(x[-1:, :], model.weights.head)[0]
    return PrefillResult(logits, keys, values, attn, column_sums, x)


# Each worker holds about 2.5 MiB of buffers at the prefill_long shape (n =
# 2048): prefill's tracemalloc peak there is 8.9 MiB with one worker, 11.4
# with two and 16.5 with four, past the 12 MiB test_model.py holds it to.
# Two is also the count whose speed was measured.
_MAX_WORKERS = 2


def _prefill_workers(heads: int, n: int, blas: int | None) -> int:
    """How many workers attend each layer's heads in a prefill of ``n`` rows:
    ``min(heads, usable CPUs, _MAX_WORKERS)`` when numpy's BLAS runs exactly
    one thread (``blas``, from :func:`blas_threads`) and the prompt spans
    more than one row block (n > 512); otherwise 1, the calling thread alone."""
    if len(_row_blocks(n)) == 1 or blas != 1:
        return 1
    return min(heads, _usable_cpus(), _MAX_WORKERS)


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    import os  # here, as concurrent.futures is in prefill: importing kvtrade loads no more modules

    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _Worker:
    """One prefill worker's buffers, reused across heads, blocks and layers:
    about 2.5 MiB at n = 2048 (1 MiB padded, 0.5 MiB scores, 1 MiB work)."""

    def __init__(self, rows: int, n: int, slice_rows: int) -> None:
        # probs @ v runs full width: a product truncated to [0, r1) may round
        # differently. Each head zeroes the columns past its first block's r1;
        # r1 only grows over its blocks.
        self.padded = np.empty((rows, n), dtype=np.float32)
        # flat, so that a slice's (rows, r1) scores and float64 softmax work
        # are contiguous views: products and reductions into strided ones ran
        # slower. The fold reuses the work buffer.
        self.scores = np.empty(slice_rows * n, dtype=np.float32)
        self.work = np.empty((1 + slice_rows) * n)  # 1 +: the fold's running-sum row


class _Attention:
    """One prefill call's attention: its row blocks, causal mask, score scale
    and window, and its workers' buffers, which every layer reuses."""

    def __init__(self, cfg: ModelConfig, n: int, window: int) -> None:
        self.cfg = cfg
        self.blocks = _row_blocks(n)
        rows = self.blocks[0][2]  # every block is full height (_row_blocks)
        # a block's scores[:, r0:r1] are masked above their diagonal; columns
        # below r0 never are
        self.above = np.triu(np.ones((rows, rows), dtype=bool), 1)
        self.scale = np.float32(1.0 / math.sqrt(cfg.head_dim))
        self.first_kept = n - min(window, n)
        self.slices = _row_slices(rows, n)
        self.slice_rows = max(e - s for s, e in self.slices)
        # the BLAS thread count is read at each call: a program may change it
        workers = _prefill_workers(cfg.heads, n, blas_threads())
        self.workers = [_Worker(rows, n, self.slice_rows) for _ in range(workers)]

    def layer(self, x: Matrix, lw: LayerWeights, pool) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """One layer's K and V stacks, column sums and kept rows (see
        :class:`PrefillResult`); adds the layer's output to ``x`` in place.
        The calling thread attends heads with the first worker and ``pool``,
        a thread pool or None when there is one worker, with each other one."""
        cfg, n = self.cfg, len(x)
        k, v = _project_kv(x, lw, cfg)
        q = matmul(x, lw.w_q)
        out = np.empty_like(x)
        sums = np.zeros((cfg.heads, n))
        kept = np.zeros((cfg.heads, n - self.first_kept, n), dtype=np.float32)

        heads = iter(range(cfg.heads))  # shared: each head goes to the first worker that asks

        def attend(worker: _Worker) -> None:
            with np.errstate(over="ignore", invalid="ignore"):  # numpy's error state is per thread
                for head in heads:
                    cols = slice(head * cfg.head_dim, (head + 1) * cfg.head_dim)
                    self._head(worker, q[:, cols], k[head], v[head], out[:, cols], sums[head], kept[head])

        others = [pool.submit(attend, worker) for worker in self.workers[1:]]
        attend(self.workers[0])
        for other in others:
            other.result()  # re-raises what the worker raised
        x += matmul(out, lw.w_o)
        return k, v, sums, kept

    def _head(self, worker: _Worker, qh, kh, vh, out, sums, kept) -> None:
        """One head's attention, block by block, into its views ``out`` ``(n, head_dim)``,
        ``sums`` ``(n,)`` and ``kept`` ``(w, n)``, in an error state that lets an
        overflow through silently: every product ends in :func:`require_finite`."""
        padded = worker.padded
        padded[:, self.blocks[0][2] :] = 0.0  # the first block's r1
        for r0, new, r1 in self.blocks:
            rows = r1 - r0
            probs = padded[:, :r1]
            for s, e in self.slices:
                scores = worker.scores[: (e - s) * r1].reshape(e - s, r1)
                require_finite(np.matmul(qh[r0 + s : r0 + e], kh[:r1].T, out=scores), "matmul")
                scores *= self.scale
                scores[:, r0:r1][self.above[s:e]] = NEG_MASK
                work = worker.work[: (e - s) * r1].reshape(e - s, r1)
                softmax_rows_into(scores, probs[s:e], work)
            out[new:r1] = require_finite(padded @ vh, "matmul")[new - r0 :]
            # the new rows, reduced in float64 with the running sums as their
            # first row: bit for bit a full-matrix sum(axis=0)
            for s in range(new - r0, rows, self.slice_rows):
                chunk = probs[s : s + self.slice_rows]
                fold = worker.work[: (1 + len(chunk)) * r1].reshape(1 + len(chunk), r1)
                fold[0] = sums[:r1]
                fold[1:] = chunk
                np.add.reduce(fold, axis=0, out=sums[:r1])
            if r1 > self.first_kept:
                lo = max(new, self.first_kept)
                kept[lo - self.first_kept : r1 - self.first_kept, :r1] = probs[lo - r0 :]


def _decode(model: Model, store, h) -> np.ndarray:
    """One decode step over ``store``, a :class:`CompressedKVCache` or :class:`DenseKV`.

    In each layer one stacked product with ``w_qkv`` gives the token's Q, K
    and V rows for every head, each bit for bit its product with ``w_q``,
    ``w_k`` or ``w_v`` alone (:class:`LayerWeights`), and one
    ``decode_append`` stores all heads' K and V (so each head attends to
    itself). Then all heads attend at once over the store's
    ``materialize_layer`` stacks: one stacked product for the scores, one
    softmax over the ``(heads, rows)`` scores and one stacked product with
    V, each head's result bit for bit what its own 2-D products give.

    Operands are checked at the boundary, not at each product: the model's
    weights when it was built (:class:`Model`), ``h`` and the store's shape
    here, and every stored row by the store (float32 stacks of the model's
    heads and head_dim). A store not shaped like the model, or an ``h`` not
    shaped ``(d_model,)`` or ``(1, d_model)`` or not holding numbers
    (:func:`as_row`), raises ContractViolation before the first append.
    The step then enters one error state that lets an overflow through
    silently, and makes each product a bare ``@`` through
    :func:`require_finite`, so a product that is not finite raises
    ContractViolation where it arises: a NaN in ``h``, an overflow, and a
    score at -inf, which the softmax alone would give weight 0.
    """
    cfg = model.config
    want = (cfg.layers, cfg.heads, cfg.head_dim)
    if store.shape != want:
        raise ContractViolation(f"store (layers, heads, head_dim) {store.shape} is not the model's {want}")
    x = as_row(h, cfg.d_model, "h")
    d, heads, head_dim = cfg.d_model, cfg.heads, cfg.head_dim
    scale = np.float32(1.0 / math.sqrt(head_dim))
    with np.errstate(over="ignore", invalid="ignore"):
        for layer, lw in enumerate(model.weights.layers):
            q, k, v = require_finite(x @ lw.w_qkv, "decode's Q/K/V product")
            store.decode_append(layer, k, v)
            k_stack, v_stack = store.materialize_layer(layer)
            scores = require_finite(q.reshape(heads, 1, head_dim) @ k_stack.transpose(0, 2, 1),
                                    "decode's scores product")
            probs = softmax_rows(scores.reshape(heads, -1) * scale)
            out = require_finite(probs.reshape(heads, 1, -1) @ v_stack, "decode's V product")
            x = x + require_finite(out.reshape(1, d) @ lw.w_o, "decode's W_O product")
        return require_finite(x @ model.weights.head, "decode's head product")[0]


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
