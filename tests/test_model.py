# loaded before any test runs: prefill imports concurrent.futures on its
# first call with more than one worker, and that import's allocations would
# otherwise fall inside whichever memory test's traced window comes first
import concurrent.futures  # noqa: F401
import itertools
import math
import struct
import sys
import tempfile
import threading
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kvtrade.budget import fp16_kv_bytes, plan_for_tokens
from kvtrade.cache import CompressedKVCache, dump_snapshot, load_snapshot, prefill_compress
from kvtrade.errors import ContractViolation, IntegrityError
from kvtrade import model as kvmodel
from kvtrade.model import (
    NEG_MASK,
    DenseKV,
    Model,
    ModelConfig,
    RecallVocab,
    Weights,
    build_recall_model,
    decode_step,
    decode_step_dense,
    embed_token,
    load_weights,
    positional_encoding,
    prefill,
    prefill_kv0,
    random_model,
    save_weights,
)
from kvtrade.prune import PolicyConfig, PolicyKind, ScoreContext, decide
from kvtrade.quant import Layout
from kvtrade.sweep import STRATEGIES
from kvtrade.tasks import gen_probe_prompt, gen_recall_task
from kvtrade.tensor import matmul
from oracles import (
    DenseStore,
    context_from_probs,
    per_head_decode,
    quantization_logit_bound,
    recall_margin,
    uniform_plan,
)

STREAM = PolicyConfig(PolicyKind.STREAMING_LLM, recent_window=4)


def contexts(result):
    """Score contexts from prefill's statistics, as the sweep builds them."""
    n = result.keys[0].shape[1]
    return [
        [ScoreContext(sums, rows, n) for sums, rows in zip(layer_sums, layer_rows)]
        for layer_sums, layer_rows in zip(result.column_sums, result.attn)
    ]


class TestPrefill:
    def test_single_token_attention(self):
        model = random_model(ModelConfig(2, 1, 8, 16, 32, seed=0))
        res = prefill(model, [3], window=1)
        for row in res.attn:
            for attn in row:
                assert attn.tolist() == [[1.0]]

    def test_zero_query_gives_uniform_causal_attention(self):
        model = random_model(ModelConfig(1, 2, 8, 16, 32, seed=1))
        zeroed = Model(
            model.config,
            Weights(
                model.weights.embedding,
                tuple(
                    type(lw)(np.zeros_like(lw.w_q), lw.w_k, lw.w_v, lw.w_o)
                    for lw in model.weights.layers
                ),
                model.weights.head,
            ),
        )
        res = prefill(zeroed, [1, 2, 3, 4, 5], window=5)
        expected = np.tril(np.ones((5, 5))) / np.arange(1, 6)[:, None]
        for attn in res.attn[0]:
            assert np.allclose(attn, expected, atol=1e-6)

    def test_shapes(self):
        cfg = ModelConfig(2, 1, 8, 16, 32, seed=2)
        model = random_model(cfg)
        res = prefill(model, list(range(16)), window=16)
        assert res.logits.shape == (16,)
        for k, v, a, sums in zip(res.keys, res.values, res.attn, res.column_sums, strict=True):
            assert k.shape == v.shape == (1, 16, 8) and k.dtype == v.dtype == np.float32
            assert k.flags.c_contiguous and v.flags.c_contiguous
            assert a.shape == (1, 16, 16) and a.dtype == np.float32
            assert sums.shape == (1, 16) and sums.dtype == np.float64
        assert len(res.keys) == 2

    def test_overlong_rejected(self):
        model = random_model(ModelConfig(1, 1, 8, 16, 8, seed=3))
        with pytest.raises(ContractViolation):
            prefill(model, list(range(9)))

    @pytest.mark.parametrize("seed", range(6))
    def test_shapes_randomized_configs(self, seed):
        rng = np.random.default_rng(seed + 700)
        heads = int(rng.integers(1, 4))
        head_dim = int(rng.choice([4, 8]))
        layers = int(rng.integers(1, 4))
        vocab = int(rng.integers(8, 40))
        cfg = ModelConfig(layers, heads, heads * head_dim, vocab, 64, seed=seed)
        model = random_model(cfg)
        n = int(rng.integers(2, 20))
        res = prefill(model, rng.integers(0, vocab, n).tolist(), window=n)
        assert res.logits.shape == (vocab,)
        assert all(k.shape == (heads, n, head_dim) for k in res.keys)
        assert all(v.shape == (heads, n, head_dim) for v in res.values)
        assert all(a.shape == (heads, n, n) for a in res.attn)
        assert all(s.shape == (heads, n) for s in res.column_sums)

    def test_causality_by_mutation(self):
        cfg = ModelConfig(2, 2, 16, 32, 64, seed=4)
        model = random_model(cfg)
        rng = np.random.default_rng(5)
        tokens = rng.integers(0, 32, 20).tolist()
        t = 11
        mutated = list(tokens)
        mutated[t + 1] = (mutated[t + 1] + 7) % 32
        a = prefill(model, tokens, window=20)
        b = prefill(model, mutated, window=20)
        for la, lb in zip(a.keys + a.values, b.keys + b.values):
            for ka, kb in zip(la, lb):
                assert np.array_equal(ka[: t + 1], kb[: t + 1])
        for la, lb in zip(a.attn, b.attn):
            for pa, pb in zip(la, lb):
                assert np.array_equal(pa[: t + 1, : t + 1], pb[: t + 1, : t + 1])


def _reference_softmax(m):
    x = m.astype(np.float64)
    x -= x.max(axis=1, keepdims=True)
    e = np.exp(x)
    return (e / e.sum(axis=1, keepdims=True)).astype(np.float32)


def full_matrix_prefill(model, tokens, keep=lambda probs: probs):
    """Oracle: prefill with each head's whole n x n attention matrix at once.

    Returns ``(logits, keys, values, attn)`` with ``attn[layer][head]``
    ``keep`` of the full causal probability matrix, by default the matrix.
    """
    cfg = model.config
    ids = np.asarray(tokens, dtype=np.int64).reshape(-1)
    n = ids.size
    x = model.weights.embedding[ids, :].copy()
    if cfg.use_positions:
        x = x + positional_encoding(n, cfg.d_model)
    scale = np.float32(1.0 / math.sqrt(cfg.head_dim))
    mask = np.triu(np.ones((n, n), dtype=bool), k=1)
    heads = [slice(h * cfg.head_dim, (h + 1) * cfg.head_dim) for h in range(cfg.heads)]
    keys, values, attn = [], [], []
    for lw in model.weights.layers:
        q, k, v = matmul(x, lw.w_q), matmul(x, lw.w_k), matmul(x, lw.w_v)
        layer_attn, outs = [], []
        for sl in heads:
            scores = matmul(q[:, sl], k[:, sl].T) * scale
            scores[mask] = NEG_MASK
            probs = _reference_softmax(scores)
            layer_attn.append(keep(probs))
            outs.append(matmul(probs, v[:, sl]))
        keys.append([k[:, sl] for sl in heads])
        values.append([v[:, sl] for sl in heads])
        attn.append(layer_attn)
        x = x + matmul(np.concatenate(outs, axis=1), lw.w_o)
    return matmul(x[-1:, :], model.weights.head)[0], keys, values, attn


class TestStreamedPrefill:
    """Streamed prefill equals the full-matrix oracle bit for bit.

    At n <= 512 prefill computes one block; 513 runs two overlapping blocks
    of 511 rows and 1500 runs nine of 174 rows, the last overlapping. At
    515, 519 and 536 a block cut into slices of the cap's height would end
    in a one-row slice, whose scores product numpy runs as gemv.
    """

    @pytest.mark.parametrize("use_positions", [False, True])
    @pytest.mark.parametrize(
        "n, head_dim",
        [(1, 8), (7, 8), (512, 8), (513, 8), (1500, 8), (513, 4), (1500, 4), (515, 16), (519, 16), (536, 4)],
        ids=["1", "7", "512", "513", "1500", "513-head_dim4", "1500-head_dim4", "515-head_dim16",
             "519-head_dim16", "536-head_dim4"],
    )
    def test_matches_full_matrix_oracle(self, n, head_dim, use_positions):
        # the narrowest heads the bit-for-bit match holds for (see _row_blocks)
        cfg = ModelConfig(2, 2, 2 * head_dim, 40, 2048, seed=n, use_positions=use_positions)
        model = random_model(cfg)
        tokens = np.random.default_rng(n).integers(0, 40, n).tolist()
        logits, keys, values, attn = full_matrix_prefill(model, tokens)
        for window in (0, 8, 32, n):
            res = prefill(model, tokens, window=window)
            assert np.array_equal(res.logits, logits)
            kept = min(window, n)
            for layer in range(cfg.layers):
                for head in range(cfg.heads):
                    full = attn[layer][head]
                    assert np.array_equal(res.keys[layer][head], keys[layer][head])
                    assert np.array_equal(res.values[layer][head], values[layer][head])
                    sums = res.column_sums[layer][head]
                    assert sums.dtype == np.float64
                    assert np.array_equal(sums, full.astype(np.float64).sum(axis=0))
                    rows = res.attn[layer][head]
                    assert rows.shape == (kept, n) and rows.dtype == np.float32
                    assert np.array_equal(rows, full[n - kept :])
                    self._same_decisions(res, full, layer, head, window)

    @pytest.mark.parametrize("n", [2048, 2000], ids=["2048", "2000-overlap"])
    def test_matches_full_matrix_oracle_at_the_benchmark_shape(self, n):
        # prefill_long's model: 4 layers x 4 heads of head_dim 16; at n = 2000
        # a block holds 131 rows, so the last block overlaps the one before it
        cfg = ModelConfig(4, 4, 64, 128, n, seed=n)
        model = random_model(cfg)
        tokens = np.random.default_rng(n).integers(0, 128, n)

        def statistics(probs):  # all of a head's matrix that the check reads
            return probs.astype(np.float64).sum(axis=0), probs[-32:].copy()

        logits, keys, values, attn = full_matrix_prefill(model, tokens, statistics)
        for window in (0, 32):
            res = prefill(model, tokens, window=window)
            assert np.array_equal(res.logits, logits)
            for layer in range(cfg.layers):
                for head in range(cfg.heads):
                    sums, last_rows = attn[layer][head]
                    assert np.array_equal(res.keys[layer][head], keys[layer][head])
                    assert np.array_equal(res.values[layer][head], values[layer][head])
                    assert np.array_equal(res.column_sums[layer][head], sums)
                    assert np.array_equal(res.attn[layer][head], last_rows[32 - window :])

    # The bit-for-bit claim's documented bounds (_row_blocks, _row_slices):
    # head_dim >= 4, as OpenBLAS sums a product of M·N·K <= 10**6 with its
    # small-matrix kernel, in another order, and for n > 512 a row block's
    # probs @ v is (2**18 // n) · n · head_dim, past 10**6 at head_dim >= 5
    # and at head_dim 4 up to n = 12,483 (at head_dim 1-3 it may round
    # differently); and n <= 2**17 // 3, as past it an even split may cut a
    # one-row slice, whose scores product numpy runs as gemv. n is drawn up
    # to 3,000 only, where the n x n oracle stays fast (and inside both
    # bounds), and most often in 513..700, the first lengths of two or more
    # row blocks.
    @settings(max_examples=40, deadline=None)
    @example(n=515, head_dim=16, heads=2, window=32, use_positions=False, workers=2)
    @example(n=519, head_dim=16, heads=2, window=32, use_positions=False, workers=1)
    @example(n=536, head_dim=4, heads=2, window=32, use_positions=True, workers=2)
    @given(
        n=st.one_of(st.integers(513, 700), st.integers(1, 3000)),
        head_dim=st.integers(4, 64),
        heads=st.integers(1, 5),
        window=st.integers(0, 64),
        use_positions=st.booleans(),
        workers=st.sampled_from([1, 2]),
    )
    def test_matches_full_matrix_oracle_on_drawn_shapes(self, n, head_dim, heads, window, use_positions, workers):
        cfg = ModelConfig(1, heads, heads * head_dim, 40, n, seed=n, use_positions=use_positions)
        model = random_model(cfg)
        tokens = np.random.default_rng(n).integers(0, 40, n)
        kept = min(window, n)

        def statistics(probs):  # all of a head's matrix that the check reads
            return probs.astype(np.float64).sum(axis=0), probs[n - kept :].copy()

        logits, keys, values, attn = full_matrix_prefill(model, tokens, statistics)
        with mock.patch.object(kvmodel, "_prefill_workers", lambda heads, n, blas: workers):
            res = prefill(model, tokens, window=window)
        assert np.array_equal(res.logits, logits)
        for head in range(heads):
            sums, last_rows = attn[0][head]
            assert np.array_equal(res.keys[0][head], keys[0][head])
            assert np.array_equal(res.values[0][head], values[0][head])
            assert np.array_equal(res.column_sums[0][head], sums)
            assert np.array_equal(res.attn[0][head], last_rows)

    def test_row_slices_tile_each_block_evenly_within_the_cap(self):
        for n in range(1, 8193):
            rows = kvmodel._row_blocks(n)[0][2]  # every block is full height
            cap = max(1, kvmodel._SLICE // n)
            slices = kvmodel._row_slices(rows, n)
            assert [s for s, _ in slices] == [0] + [e for _, e in slices[:-1]], n
            assert slices[-1][1] == rows, n
            heights = [e - s for s, e in slices]
            assert max(heights) <= cap and max(heights) - min(heights) <= 1, n
            assert len(slices) == -(-rows // cap), n  # the fewest the cap allows
            assert min(heights) > 1 or rows == 1 or cap == 1, n

    @staticmethod
    def _same_decisions(res, full, layer, head, window):
        """decide keeps the same tokens from prefill's statistics and from the oracle's."""
        n = full.shape[0]
        streamed = ScoreContext(res.column_sums[layer][head], res.attn[layer][head], n)
        oracle = context_from_probs(full, n)
        recent = max(window, 1)
        for kind in PolicyKind:
            policy = PolicyConfig(kind, recent_window=recent)
            if policy.window_rows > window:
                continue  # reads rows prefill did not keep
            for budget in {recent, (recent + n) // 2, n}:
                if budget >= recent:
                    got = decide(policy, streamed, n, budget)
                    assert got == decide(policy, oracle, n, budget), (kind, budget)

    def test_memory_stays_below_one_n_by_n_matrix(self):
        # guards against a refactor that brings the n x n matrix back
        n = 2048
        model = random_model(ModelConfig(1, 1, 32, 64, n, seed=0))
        tokens = np.random.default_rng(0).integers(0, 64, n)
        tracemalloc.start()
        try:
            prefill(model, tokens, window=32)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * n * 4  # 16 MiB, one float32 n x n matrix

    def test_memory_at_the_benchmark_shape(self):
        # prefill_long's prefill: the column-sum fold, the zero-padded buffer
        # for probs @ v and one block's scores and softmax, per call
        n = 2048
        model = random_model(ModelConfig(4, 4, 64, 128, n, seed=0))
        tokens = np.random.default_rng(0).integers(0, 128, n)
        tracemalloc.start()
        try:
            prefill(model, tokens)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20

    @pytest.mark.parametrize("use_positions", [False, True])
    def test_layer0_kv_reprojects_bit_for_bit(self, use_positions):
        model = random_model(ModelConfig(2, 2, 16, 40, 256, seed=3, use_positions=use_positions))
        tokens = np.random.default_rng(3).integers(0, 40, 200).tolist()
        res = prefill(model, tokens, window=8)
        keys, values = prefill_kv0(model, tokens)
        assert keys.shape == values.shape == (2, 200, 8)
        assert keys.tobytes() == res.keys[0].tobytes() and values.tobytes() == res.values[0].tobytes()
        assert keys.flags.c_contiguous and values.flags.c_contiguous
        with pytest.raises(ContractViolation, match="vocabulary"):
            prefill_kv0(model, [40])

    def test_negative_window_rejected(self):
        model = random_model(ModelConfig(1, 1, 8, 16, 32, seed=0))
        with pytest.raises(ContractViolation, match="window"):
            prefill(model, [1, 2, 3], window=-1)

    @pytest.mark.parametrize("window", [2.5, "3", None, True], ids=["float", "str", "None", "bool"])
    def test_non_integer_window_rejected(self, window):
        model = random_model(ModelConfig(1, 1, 8, 16, 32, seed=0))
        with pytest.raises(ContractViolation, match="window must be an integer"):
            prefill(model, [1, 2, 3], window)

    def test_score_below_the_old_mask_prefills_causally(self):
        # real scores near -3.5e31 sit below the old finite mask (-1e30) and
        # let masked keys take weight; under the -inf mask they cannot
        model = random_model(ModelConfig(1, 1, 8, 16, 32, seed=0))
        lw = model.weights.layers[0]
        emb = np.zeros_like(model.weights.embedding)
        emb[:, 0] = 1e16
        w_q = np.zeros_like(lw.w_q)
        w_q[0, 0] = 1.0
        w_k = np.zeros_like(lw.w_k)
        w_k[0, 0] = -1.0
        layers = (type(lw)(w_q, w_k, lw.w_v, lw.w_o),)
        broken = Model(model.config, Weights(emb, layers, model.weights.head))
        tokens = [1, 2, 3]
        res = prefill(broken, tokens, window=3)
        logits, _, _, attn = full_matrix_prefill(broken, tokens)
        assert np.array_equal(res.attn[0][0], attn[0][0])
        assert not np.triu(res.attn[0][0], k=1).any()
        assert np.array_equal(res.logits, logits)


def _prefill_arrays(res) -> list[tuple]:
    """Every array a PrefillResult holds, as bytes, with its dtype and shape."""
    arrays = [res.logits, *res.keys, *res.values, *res.attn, *res.column_sums]
    return [(a.dtype.str, a.shape, a.tobytes()) for a in arrays]


def _force_workers(monkeypatch, count: int) -> None:
    monkeypatch.setattr(kvmodel, "_prefill_workers", lambda heads, n, blas: count)


class TestPrefillWorkers:
    """A layer's heads run on one worker or several; every array keeps its bits."""

    @pytest.mark.parametrize("blas", [None, 1, 2])
    @pytest.mark.parametrize("cpus", [1, 2, 4])
    def test_workers_need_one_blas_thread_and_more_than_one_row_block(self, monkeypatch, blas, cpus):
        monkeypatch.setattr(kvmodel, "blas_threads", lambda: blas)
        monkeypatch.setattr(kvmodel, "_usable_cpus", lambda: cpus)
        threaded = blas == 1

        def workers(heads, n):
            return len(kvmodel._Attention(ModelConfig(1, heads, 8 * heads, 40, n), n, 0).workers)

        # n = 512 is one row block, 513 two; never more than two workers
        assert workers(4, 513) == (min(cpus, 2) if threaded else 1)
        assert workers(2, 513) == (min(cpus, 2) if threaded else 1)
        assert workers(1, 513) == 1
        assert workers(4, 512) == 1
        assert workers(4, 1) == 1

    def test_the_blas_thread_count_is_read_at_each_call(self, monkeypatch):
        monkeypatch.setattr(kvmodel, "_usable_cpus", lambda: 2)
        counts = iter([1, 2, 1])
        monkeypatch.setattr(kvmodel, "blas_threads", lambda: next(counts))
        cfg = ModelConfig(1, 2, 16, 40, 2048)
        assert [len(kvmodel._Attention(cfg, 2048, 0).workers) for _ in range(3)] == [2, 1, 2]

    def test_blas_threads_reads_the_bundled_library(self):
        threads = kvmodel.blas_threads()
        assert threads is None or (isinstance(threads, int) and threads >= 1)

    @pytest.mark.parametrize("use_positions", [False, True], ids=["no-positions", "positions"])
    @pytest.mark.parametrize("n", [513, 1025, 1500, 2048])
    @pytest.mark.parametrize("heads", [1, 2, 3, 4, 5])
    def test_one_worker_and_two_give_the_same_bytes(self, monkeypatch, heads, n, use_positions):
        model = random_model(ModelConfig(2, heads, 8 * heads, 40, n, seed=heads, use_positions=use_positions))
        tokens = np.random.default_rng(n).integers(0, 40, n)
        for window in (0, 32, n):
            _force_workers(monkeypatch, 1)
            serial = _prefill_arrays(prefill(model, tokens, window=window))
            _force_workers(monkeypatch, 2)
            assert _prefill_arrays(prefill(model, tokens, window=window)) == serial

    def test_memory_at_the_benchmark_shape_with_four_cpus(self, monkeypatch):
        # test_memory_at_the_benchmark_shape's prefill as the benchmark runs it,
        # one BLAS thread, on a host with a CPU for each of its four heads:
        # each worker adds its buffers, so the count is capped
        monkeypatch.setattr(kvmodel, "blas_threads", lambda: 1)
        monkeypatch.setattr(kvmodel, "_usable_cpus", lambda: 4)
        n = 2048
        model = random_model(ModelConfig(4, 4, 64, 128, n, seed=0))
        tokens = np.random.default_rng(0).integers(0, 128, n)
        tracemalloc.start()
        try:
            prefill(model, tokens)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20

    def test_more_workers_than_cores_under_fast_thread_switches(self, monkeypatch):
        # four workers on five heads, switching threads every microsecond: a
        # head taken twice, or a buffer two workers share, changes the bytes
        model = random_model(ModelConfig(2, 5, 40, 40, 1025, seed=5))
        tokens = np.random.default_rng(5).integers(0, 40, 1025)
        _force_workers(monkeypatch, 1)
        serial = _prefill_arrays(prefill(model, tokens, window=40))
        _force_workers(monkeypatch, 4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                assert _prefill_arrays(prefill(model, tokens, window=40)) == serial
        finally:
            sys.setswitchinterval(interval)

    @staticmethod
    def _overflowing(heads: int, head: int) -> Model:
        """A model whose scores overflow float32 in ``head`` of layer 0 only."""
        model = random_model(ModelConfig(1, heads, 8 * heads, 40, 1024, seed=1))
        lw = model.weights.layers[0]
        w_q, w_k = lw.w_q.copy(), lw.w_k.copy()
        w_q[:, 8 * head : 8 * head + 8] = 1e20
        w_k[:, 8 * head : 8 * head + 8] = 1e20
        layers = (type(lw)(w_q, w_k, lw.w_v, lw.w_o),)
        return Model(model.config, Weights(model.weights.embedding, layers, model.weights.head))

    def test_an_overflow_in_a_started_thread_raises_in_the_caller(self, monkeypatch):
        # The calling thread holds its first head until a started thread has
        # entered one, so each of the two takes one head, whichever pops
        # first. The run repeats, the overflow in head 0 and then in head 1,
        # until the started thread took the head that overflows.
        _force_workers(monkeypatch, 2)
        models = [self._overflowing(2, 0), self._overflowing(2, 1)]
        tokens = np.random.default_rng(0).integers(0, 40, 1024)
        head = kvmodel._Attention._head
        main = threading.get_ident()
        threads = threading.active_count()
        for attempt in range(20):
            model = models[attempt % 2]
            entered, raised = threading.Event(), []

            def spy(self, *args):
                if threading.get_ident() == main:
                    entered.wait(10)
                else:
                    entered.set()
                try:
                    head(self, *args)
                except ContractViolation:
                    raised.append(threading.get_ident())
                    raise

            monkeypatch.setattr(kvmodel._Attention, "_head", spy)
            # filterwarnings = error: an overflow warning, had a worker not
            # entered its own error state, would surface instead
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ContractViolation, match="matmul produced non-finite elements"):
                    prefill(model, tokens)
            assert threading.active_count() == threads
            if raised == [raised[0]] and raised[0] != main:
                break
        else:
            pytest.fail("the started thread never took the overflowing head")

    def test_a_call_starts_one_thread_for_all_its_layers(self, monkeypatch):
        # prefill_long's shape: two workers share one pool thread over four
        # layers, and one worker starts none
        started = []
        start = threading.Thread.start

        def counting(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting)
        model = random_model(ModelConfig(4, 4, 64, 128, 2048, seed=0))
        tokens = np.random.default_rng(0).integers(0, 128, 2048)
        for workers, threads in ((2, 1), (1, 0)):
            _force_workers(monkeypatch, workers)
            started.clear()
            prefill(model, tokens)
            assert len(started) == threads

    def test_no_thread_outlives_a_call(self, monkeypatch):
        _force_workers(monkeypatch, 3)
        model = random_model(ModelConfig(2, 3, 24, 40, 1024, seed=0))
        tokens = np.random.default_rng(0).integers(0, 40, 1024)
        threads = threading.active_count()
        prefill(model, tokens)
        assert threading.active_count() == threads
        with pytest.raises(ContractViolation):
            prefill(self._overflowing(3, 2), tokens)
        assert threading.active_count() == threads

    def test_only_the_calling_thread_enters_the_names_a_profiler_rebinds(self, monkeypatch):
        # kvbench's tracer rebinds kvtrade.model.matmul and softmax_rows with
        # one span stack shared by every thread; workers must not enter them
        _force_workers(monkeypatch, 2)
        entered = {"matmul": set(), "softmax_rows": set(), "_head": set()}

        def spy(name, fn):
            def wrapped(*args, **kwargs):
                entered[name].add(threading.get_ident())
                return fn(*args, **kwargs)
            return wrapped

        for name in ("matmul", "softmax_rows"):
            monkeypatch.setattr(kvmodel, name, spy(name, getattr(kvmodel, name)))
        monkeypatch.setattr(kvmodel._Attention, "_head", spy("_head", kvmodel._Attention._head))
        model = random_model(ModelConfig(2, 4, 32, 40, 2048, seed=0))
        tokens = np.random.default_rng(0).integers(0, 40, 2048)
        prefill(model, tokens)
        assert entered["matmul"] == {threading.get_ident()}
        # softmax_rows is not called at all, on any thread
        assert entered["softmax_rows"] <= {threading.get_ident()}
        # a pool thread attended heads too
        assert threading.get_ident() in entered["_head"] and len(entered["_head"]) > 1


class TestCompressionOffEquivalence:
    def test_matches_dense_decode(self):
        for seed in range(5):
            cfg = ModelConfig(3, 2, 24, 40, 64, seed=seed)
            model = random_model(cfg)
            rng = np.random.default_rng(seed + 100)
            tokens = rng.integers(0, 40, 18).tolist()
            res = prefill(model, tokens)
            plan = uniform_plan(3, 32, 16, heads=2, head_dim=12)
            cache = prefill_compress(res.keys, res.values, contexts(res), plan, STREAM)
            dense = DenseStore.from_prefill(res)
            token = int(np.argmax(res.logits))
            for step in range(3):
                h = embed_token(model, token)
                got = decode_step(model, cache, h)
                want = per_head_decode(model, dense, h)
                assert np.abs(got - want).max() <= 1e-6
                token = int(np.argmax(want))


class TestDecodeMatchesPrefill:
    """Decoding the last tokens after a shorter prefill gives the full prefill's logits.

    Prefill computes attention over whole matrices, decode one row at a time
    through a store, so this checks the shared decode loop against code it
    does not share.
    """

    @pytest.mark.parametrize("use_positions", [False, True], ids=["no_positions", "positions"])
    @pytest.mark.parametrize("seed", range(4))
    def test_two_steps_match_prefill(self, use_positions, seed):
        rng = np.random.default_rng(seed + 300)
        layers, heads = int(rng.integers(2, 4)), int(rng.choice([2, 4]))
        cfg = ModelConfig(layers, heads, 8 * heads, 40, 64, seed=seed, use_positions=use_positions)
        model = random_model(cfg)
        tokens = rng.integers(0, 40, int(rng.integers(8, 30))).tolist()
        n = len(tokens)
        res = prefill(model, tokens[:-2])
        plan = uniform_plan(layers, 64, 16, heads=heads, head_dim=cfg.head_dim)
        cache = prefill_compress(res.keys, res.values, contexts(res), plan, STREAM)
        dense = DenseKV.from_prefill(res)
        for position in (n - 2, n - 1):
            want = prefill(model, tokens[: position + 1]).logits
            h = embed_token(model, tokens[position], position=position)
            for got in (decode_step(model, cache, h), decode_step_dense(model, dense, h)):
                assert np.abs(got - want).max() <= 1e-5 * np.abs(want).max()


class TestExtremePruning:
    def test_last_token_only_cache_still_decodes(self):
        # recent window 1, budget 1: only the newest prompt position survives;
        # decode then attends over that key plus the appended token itself
        model = random_model(ModelConfig(1, 1, 8, 16, 32, seed=6))
        tokens = [1, 2, 3, 4, 5, 6]
        res = prefill(model, tokens)
        plan = uniform_plan(1, 1, 16, heads=1, head_dim=8)
        policy = PolicyConfig(PolicyKind.STREAMING_LLM, recent_window=1)
        cache = prefill_compress(res.keys, res.values, contexts(res), plan, policy)
        assert cache.positions[0].tolist() == [[5]]
        logits = decode_step(model, cache, embed_token(model, 7))
        assert logits.shape == (16,)
        k, _ = cache.materialize_layer(0)
        assert k.shape == (1, 2, 8)
        assert np.array_equal(k[0, 0], res.keys[0][0][5])


class TestRecallModel:
    def test_full_recall_without_compression(self):
        model, vocab = build_recall_model(4, 64)
        assert recall_margin(model, vocab, 64) > 0
        task = gen_recall_task(64, 4, [0.0, 0.3, 0.6, 1.0], 0, vocab)
        res = prefill(model, task.tokens)
        for q in task.queries:
            dense = DenseKV.from_prefill(res)
            logits = decode_step_dense(model, dense, embed_token(model, q.key_token))
            assert int(np.argmax(logits)) == q.value_token

    def test_evicted_needle_fails(self):
        model, vocab = build_recall_model(4, 64)
        task = gen_recall_task(64, 4, [0.5, 0.55, 0.6, 1.0], 0, vocab)
        res = prefill(model, task.tokens)
        # budget 8 with window 4: sinks {0..3} + recent {60..63}; the pair at
        # depth 0.5 (position 31) is evicted
        plan = uniform_plan(1, 8, 16, heads=1, head_dim=model.config.d_model)
        cache = prefill_compress(res.keys, res.values, contexts(res), plan, STREAM)
        evicted = next(q for q in task.queries if q.position == 31)
        logits = decode_step(model, cache.clone(), embed_token(model, evicted.key_token))
        assert int(np.argmax(logits)) != evicted.value_token
        # the pair at depth 1.0 sits in the recent window and still resolves
        kept = next(q for q in task.queries if q.position == 62)
        logits = decode_step(model, cache.clone(), embed_token(model, kept.key_token))
        assert int(np.argmax(logits)) == kept.value_token

    def test_8bit_margin_beats_bound_and_argmax_unchanged(self):
        model, vocab = build_recall_model(4, 48)
        margin = recall_margin(model, vocab, 48)
        task = gen_recall_task(48, 4, [0.0, 0.3, 0.6, 1.0], 1, vocab)
        res = prefill(model, task.tokens)
        plan = uniform_plan(
            1, 48, 8, heads=1, head_dim=model.config.d_model, group_size=16
        )
        cache = prefill_compress(res.keys, res.values, contexts(res), plan, STREAM)
        for q in task.queries:
            h = embed_token(model, q.key_token)
            bound = quantization_logit_bound(model, cache.clone(), h)
            assert margin > 2 * bound
            logits = decode_step(model, cache.clone(), h)
            dense = DenseKV.from_prefill(res)
            ref = decode_step_dense(model, dense, h)
            assert int(np.argmax(logits)) == int(np.argmax(ref)) == q.value_token

    @pytest.mark.parametrize("seed", range(3))
    def test_retrieval_succeeds_exactly_when_the_pair_survives(self, seed):
        n, pairs = 128, 8
        model, vocab = build_recall_model(pairs, n)
        task = gen_recall_task(n, pairs, [i / (pairs - 1) for i in range(pairs)], seed, vocab)
        res = prefill(model, task.tokens, window=8)
        ctxs = contexts(res)
        outcomes = set()
        for kind in PolicyKind:
            policy = PolicyConfig(kind, recent_window=8)
            for bits in (16, 8, 4, 2):
                for strategy in ("per_token", "per_channel", "per_token_outlier"):
                    layout, threshold = STRATEGIES[strategy]
                    plan = uniform_plan(
                        1, 12, bits, heads=1, head_dim=model.config.d_model, group_size=16,
                        layout=layout,
                    )
                    cache = prefill_compress(res.keys, res.values, ctxs, replace(plan, outlier_threshold=threshold), policy)
                    kept = set(cache.positions[0][0].tolist())
                    for q in task.queries:
                        h = embed_token(model, q.key_token, position=n)
                        hit = int(np.argmax(decode_step(model, cache.clone(), h))) == q.value_token
                        # the value row, one after the key, is the row W_K matches
                        survived = q.position + 1 in kept
                        assert hit == survived, (kind, bits, strategy, q)
                        outcomes.add(hit)
        assert outcomes == {True, False}

    def test_vocab_too_small_rejected(self):
        with pytest.raises(ContractViolation):
            build_recall_model(4, 64, filler_vocab=0)

    @pytest.mark.parametrize("pairs, filler, key", [(0, 4, "num_pairs"), (-1, 4, "num_pairs"),
                                                    (4, 0, "filler_vocab")])
    def test_vocab_names_the_setting_it_rejects(self, pairs, filler, key):
        with pytest.raises(ContractViolation, match=key):
            RecallVocab(pairs, filler)
        with pytest.raises(ContractViolation, match=key):
            build_recall_model(pairs, 64, filler)

    def test_building_runs_the_model_nowhere(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("build_recall_model ran the model")

        monkeypatch.setattr(kvmodel, "prefill", boom)
        monkeypatch.setattr(kvmodel, "_decode", boom)
        model, vocab = build_recall_model(8, 256)
        assert model.config.d_model == 32 and vocab.size == 48


class TestBitsPerturbationOrdering:
    def test_lower_bits_perturb_more(self):
        # median over seeds of ||logits_quant - logits_dense||_inf
        diffs = {2: [], 4: [], 8: []}
        for seed in range(50):
            cfg = ModelConfig(2, 2, 16, 32, 64, seed=seed)
            model = random_model(cfg)
            rng = np.random.default_rng(seed + 400)
            tokens = rng.integers(0, 32, 24).tolist()
            res = prefill(model, tokens)
            h = embed_token(model, int(np.argmax(res.logits)))
            dense = DenseKV.from_prefill(res)
            ref = decode_step_dense(model, dense, h)
            for bits in (2, 4, 8):
                plan = uniform_plan(2, 24, bits, heads=2, head_dim=8, group_size=8)
                cache = prefill_compress(res.keys, res.values, contexts(res), plan, STREAM)
                got = decode_step(model, cache, h)
                diffs[bits].append(float(np.abs(got - ref).max()))
        med = {bits: float(np.median(vals)) for bits, vals in diffs.items()}
        assert med[2] >= med[4] >= med[8]


class TestWeightsFile:
    def test_round_trip(self, tmp_path):
        cfg = ModelConfig(2, 2, 12, 20, 50, seed=9, use_positions=True)
        model = random_model(cfg)
        path = tmp_path / "weights.bin"
        save_weights(model, path)
        loaded = load_weights(path)
        assert loaded.config == cfg
        assert np.array_equal(loaded.weights.embedding, model.weights.embedding)
        assert np.array_equal(loaded.weights.head, model.weights.head)
        for a, b in zip(loaded.weights.layers, model.weights.layers):
            for name in ("w_q", "w_k", "w_v", "w_o"):
                assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_same_outputs_after_reload(self, tmp_path):
        model = random_model(ModelConfig(1, 1, 8, 16, 32, seed=10))
        path = tmp_path / "w.bin"
        save_weights(model, path)
        loaded = load_weights(path)
        tokens = [1, 2, 3, 4]
        assert np.array_equal(prefill(model, tokens).logits, prefill(loaded, tokens).logits)

    def test_deep_random_model_loads(self, tmp_path):
        # the overflow bound must admit deep random models; a bound from
        # column abs sums instead of spectral norms would reject this one
        model = random_model(ModelConfig(12, 8, 256, 32, 64, seed=13))
        path = tmp_path / "deep.bin"
        save_weights(model, path)
        loaded = load_weights(path)
        assert np.array_equal(prefill(model, [1, 2, 3]).logits, prefill(loaded, [1, 2, 3]).logits)


WEIGHTS_HEADER_END = 4 + struct.calcsize("<HHHIIIqB")
LAYERS_AT, HEADS_AT, CONTEXT_AT, SEED_AT, USE_POSITIONS_AT = 6, 8, 18, 22, 30


def _small_weights() -> bytes:
    model = random_model(ModelConfig(2, 2, 8, 16, 32, seed=12, use_positions=True))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "w.bin"
        save_weights(model, path)
        return path.read_bytes()


WEIGHTS = _small_weights()


def _load(data: bytes) -> Model:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "w.bin"
        path.write_bytes(data)
        return load_weights(path)


def _patched_weights(offset: int, fmt: str, value) -> bytes:
    out = bytearray(WEIGHTS)
    struct.pack_into(fmt, out, offset, value)
    return bytes(out)


class TestWeightsRejects:
    """Damaged weights files raise IntegrityError, never struct.error or ContractViolation."""

    @pytest.mark.parametrize(
        "data",
        [
            pytest.param(WEIGHTS[:10], id="truncated-header"),
            pytest.param(_patched_weights(LAYERS_AT, "<H", 0), id="zero-layers"),
            pytest.param(_patched_weights(HEADS_AT, "<H", 3), id="d-model-not-divisible"),
            pytest.param(_patched_weights(CONTEXT_AT, "<I", 0), id="zero-context"),
            pytest.param(_patched_weights(SEED_AT, "<q", -1), id="negative-seed"),
            pytest.param(_patched_weights(USE_POSITIONS_AT, "<B", 2), id="use-positions-2"),
            pytest.param(_patched_weights(WEIGHTS_HEADER_END, "<f", float("nan")), id="nan-weight"),
            pytest.param(_patched_weights(WEIGHTS_HEADER_END, "<f", float("inf")), id="inf-weight"),
            pytest.param(_patched_weights(WEIGHTS_HEADER_END, "<f", 3e38), id="overflowing-weight"),
            pytest.param(WEIGHTS + b"\x00", id="trailing-byte"),
        ],
    )
    def test_rejected(self, data):
        with pytest.raises(IntegrityError):
            _load(data)

    def test_unmutated_loads(self):
        assert _load(WEIGHTS).config == ModelConfig(2, 2, 8, 16, 32, seed=12, use_positions=True)


@pytest.mark.parametrize("data, message", [
    (WEIGHTS[:-1], "^weights file truncated$"),
    (WEIGHTS + b"\x00\x00", "^2 trailing bytes after the weights file$"),
], ids=["truncated", "trailing"])
def test_weights_length_errors_name_the_format(data, message):
    with pytest.raises(IntegrityError, match=message):
        _load(data)


class TestWeightsFuzz:
    """A damaged weights file is rejected with IntegrityError or gives a model with finite logits."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_single_byte_change(self, data):
        offset = data.draw(
            st.one_of(st.integers(0, WEIGHTS_HEADER_END - 1), st.integers(0, len(WEIGHTS) - 1)),
            label="offset",
        )
        out = bytearray(WEIGHTS)
        out[offset] ^= data.draw(st.integers(1, 255), label="xor")
        try:
            model = _load(bytes(out))
        except IntegrityError:
            return
        prompt = [3, 1, 4, 1, 5, 9, 2, 6][: model.config.context_limit]
        assert np.isfinite(prefill(model, prompt).logits).all()

    def test_score_below_the_old_mask_prefills(self):
        # sets a layer-1 W_K entry to 1.28e35: the file loads, and its real
        # scores fall below the old finite mask of -1e30
        out = bytearray(WEIGHTS)
        out[2046] ^= 0xC3
        model = _load(bytes(out))
        assert model.weights.layers[1].w_k.max() > 1e35
        assert np.isfinite(prefill(model, [3, 1, 4, 1, 5, 9, 2, 6]).logits).all()

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_truncation(self, data):
        length = data.draw(st.integers(0, len(WEIGHTS) - 1), label="length")
        with pytest.raises(IntegrityError):
            _load(WEIGHTS[:length])


def test_positions_change_prefill_only_when_enabled():
    base = ModelConfig(1, 1, 8, 16, 32, seed=11)
    with_pos = ModelConfig(1, 1, 8, 16, 32, seed=11, use_positions=True)
    m0 = random_model(base)
    m1 = Model(with_pos, m0.weights)
    tokens = [5, 5, 5]
    a = prefill(m0, tokens)
    b = prefill(m1, tokens)
    assert not np.array_equal(a.logits, b.logits)
    # identical tokens are indistinguishable without positions
    assert np.array_equal(a.keys[0][0][0], a.keys[0][0][1])
    assert not np.array_equal(b.keys[0][0][0], b.keys[0][0][1])


def test_embed_token_rejects_a_token_outside_the_vocabulary():
    model = random_model(ModelConfig(1, 1, 8, 16, 32, seed=2))
    for token in (-1, 16):
        with pytest.raises(ContractViolation, match="vocabulary"):
            embed_token(model, token)


@pytest.mark.parametrize("use_positions", [False, True])
def test_embed_token_rejects_a_negative_position(use_positions):
    model = random_model(ModelConfig(1, 1, 8, 16, 32, seed=2, use_positions=use_positions))
    with pytest.raises(ContractViolation, match="position must be an integer >= 0, got -1"):
        embed_token(model, 3, -1)


@pytest.mark.parametrize("position", [2.5, "3", None, True], ids=["float", "str", "None", "bool"])
def test_embed_token_rejects_a_non_integer_position(position):
    model = random_model(ModelConfig(1, 1, 8, 16, 32, seed=2, use_positions=True))
    with pytest.raises(ContractViolation, match="position must be an integer"):
        embed_token(model, 3, position)


def test_embed_token_takes_a_position_past_the_context_limit():
    # decode continues past the prompt: step t of a seq_len prompt embeds at seq_len + t
    model = random_model(ModelConfig(1, 1, 8, 16, 32, seed=2, use_positions=True))
    row = embed_token(model, 3, 40)
    assert np.array_equal(row, model.weights.embedding[3] + positional_encoding(1, 8, 40)[0])


def test_random_model_rejects_a_negative_seed():
    with pytest.raises(ContractViolation, match="seed must be an integer >= 0, got -1"):
        random_model(ModelConfig(1, 1, 8, 16, 32, seed=-1))


class TestTokenIds:
    """Token ids must be integers; numpy integer ids act as Python ints."""

    model = random_model(ModelConfig(1, 1, 4, 8, 16, seed=2))

    @pytest.mark.parametrize("tokens", [[1.5, 2.9], [3.0], [1, None], [True, False], ["1"]],
                             ids=["fractional", "integral float", "None", "bool", "str"])
    def test_non_integer_ids_rejected(self, tokens):
        with pytest.raises(ContractViolation, match="token ids must be integers"):
            prefill(self.model, tokens)
        with pytest.raises(ContractViolation, match="token ids must be integers"):
            embed_token(self.model, tokens[-1])

    @pytest.mark.parametrize("call", [lambda m: prefill(m, [[1, 2], [3, 4]]), lambda m: prefill(m, 5),
                                      lambda m: prefill_kv0(m, [[1, 2]]), lambda m: embed_token(m, [1, 2]),
                                      lambda m: embed_token(m, [3])],
                             ids=["2-D prompt", "scalar prompt", "prefill_kv0 2-D", "two tokens", "token in a list"])
    def test_prompt_is_1d_and_a_token_one_id(self, call):
        # the ids are not flattened: a 2 x 2 prompt is not a 4-token one, nor [1, 2] token 1
        with pytest.raises(ContractViolation, match="1-D"):
            call(self.model)

    @pytest.mark.parametrize("call", [lambda m: prefill(m, [[1, 2], [3]]), lambda m: prefill(m, [1, [2]]),
                                      lambda m: prefill_kv0(m, [[1, 2], [3]]), lambda m: embed_token(m, [1, [2]])],
                             ids=["prefill rows", "prefill nested id", "prefill_kv0", "embed_token"])
    def test_ragged_prompt_rejected(self, call):
        # numpy cannot build an array of it and raises a bare ValueError
        with pytest.raises(ContractViolation, match="1-D and a token one id, got a ragged sequence"):
            call(self.model)

    def test_empty_prompt_keeps_its_length_message(self):
        with pytest.raises(ContractViolation, match="prompt length 0"):
            prefill(self.model, [])

    @pytest.mark.parametrize("dtype", [np.int32, np.uint8])
    def test_numpy_integer_ids_match_python_ints(self, dtype):
        # a numpy integer window and position act as Python ints too
        tokens = [1, 7, 0, 3]
        ref = prefill(self.model, tokens, window=2)
        got = prefill(self.model, np.array(tokens, dtype=dtype), window=dtype(2))
        for a, b in [(ref.logits, got.logits), (ref.keys[0][0], got.keys[0][0]),
                     (ref.values[0][0], got.values[0][0]), (ref.column_sums[0][0], got.column_sums[0][0]),
                     (ref.attn[0][0], got.attn[0][0])]:
            assert a.tobytes() == b.tobytes()
        for t in tokens:
            assert embed_token(self.model, dtype(t), dtype(2)).tobytes() == embed_token(self.model, t, 2).tobytes()


def _model(layers, heads, d_model):
    return random_model(ModelConfig(layers, heads, d_model, 8, 16, seed=3))


class TestDecodeRejectsAMisfit:
    """A store or ``h`` that does not fit the model raises before the first append."""

    @staticmethod
    def stores(layers, heads, d_model):
        res = prefill(_model(layers, heads, d_model), [1, 2, 3])
        plan = uniform_plan(layers, 4, 16, heads=heads, head_dim=d_model // heads)
        return prefill_compress(res.keys, res.values, contexts(res), plan, STREAM), DenseKV.from_prefill(res)

    @staticmethod
    def check_rejected(model, cache, dense, h, match):
        before = dump_snapshot(cache), TestDenseKVRejects.state(dense)
        with pytest.raises(ContractViolation, match=match):
            decode_step(model, cache, h)
        with pytest.raises(ContractViolation, match=match):
            decode_step_dense(model, dense, h)
        assert (dump_snapshot(cache), TestDenseKVRejects.state(dense)) == before

    # (model, store) as (layers, heads, d_model)
    @pytest.mark.parametrize("model_dims, store_dims", [
        ((2, 1, 4), (1, 1, 4)),
        ((1, 1, 4), (2, 1, 4)),
        ((1, 2, 4), (1, 1, 4)),
        ((1, 2, 8), (1, 2, 4)),
    ], ids=["more_model_layers", "more_store_layers", "more_model_heads", "wider_model_heads"])
    def test_store_of_another_shape(self, model_dims, store_dims):
        model = _model(*model_dims)
        cache, dense = self.stores(*store_dims)
        self.check_rejected(model, cache, dense, np.ones(model.config.d_model), "store")

    @pytest.mark.parametrize("h", [np.ones((2, 2)), np.ones(3), np.ones((4, 1))], ids=["2x2", "three", "column"])
    def test_misshapen_h(self, h):
        cache, dense = self.stores(1, 1, 4)
        self.check_rejected(_model(1, 1, 4), cache, dense, h, "shaped")

    def test_ragged_dense_store(self):
        # a layer whose K and V are not 3-D float32 stacks of one shape
        for layer_v in (np.ones((2, 3, 4), dtype=np.float32), np.ones((2, 4, 2), dtype=np.float32),
                        np.ones((2, 3, 2)), np.ones((3, 2), dtype=np.float32), [[[1.0] * 2] * 3] * 2):
            _, dense = self.stores(1, 2, 4)
            dense.residual_v[0] = layer_v
            before = TestDenseKVRejects.state(dense)
            with pytest.raises(ContractViolation, match="store"):
                decode_step_dense(_model(1, 2, 4), dense, np.ones(4))
            with pytest.raises(ContractViolation, match="stacks of one shape"):
                dense.decode_append(0, np.ones(4), np.ones(4))
            assert TestDenseKVRejects.state(dense) == before

    def test_ragged_later_layer_leaves_every_layer_unchanged(self):
        # decode checks every layer before its first append
        cache, dense = self.stores(2, 2, 4)
        for store in (cache, dense):
            store.residual_k[1] = store.residual_k[1][:, :-1]
            before = TestDenseKVRejects.state(store)
            with pytest.raises(ContractViolation, match="store layer 1"):
                decode_step(_model(2, 2, 4), store, np.ones(4))
            assert TestDenseKVRejects.state(store) == before

    def test_prefill_of_ragged_stacks_is_rejected(self):
        res = prefill(_model(1, 2, 4), [1, 2, 3])
        res.values[0] = res.values[0][:, :-1]
        with pytest.raises(ContractViolation, match="stacks of one shape"):
            DenseKV.from_prefill(res)

    @pytest.mark.parametrize("h", [np.ones(4), np.ones((1, 4))], ids=["row", "one_by_four"])
    def test_fitting_store_and_h_decode(self, h):
        cache, dense = self.stores(1, 1, 4)
        model = _model(1, 1, 4)
        assert cache.shape == dense.shape == (1, 1, 4)
        assert np.array_equal(decode_step(model, cache, h), decode_step_dense(model, dense, h))


class TestDenseKVRejects:
    """The reference store, a 16-bit cache, rejects a bad index or row and is unchanged after."""

    def make(self):
        model = random_model(ModelConfig(1, 1, 4, 8, 16, seed=2))
        return DenseKV.from_prefill(prefill(model, [1, 2, 3]))

    @staticmethod
    def state(kv):
        return [(np.shape(m), np.asarray(m).tobytes()) for m in kv.residual_k + kv.residual_v]

    @pytest.mark.parametrize("layer, head", [(-1, 0), (0, -1), (1, 0), (0, 1)])
    def test_index_outside_the_store(self, layer, head):
        kv = self.make()
        before = self.state(kv)
        with pytest.raises(ContractViolation, match="outside"):
            kv.materialize(layer, head)
        if layer != 0:  # decode_append takes a layer only
            with pytest.raises(ContractViolation, match="outside"):
                kv.decode_append(layer, np.ones(4), np.ones(4))
        assert self.state(kv) == before

    @pytest.mark.parametrize("k_row, match", [
        (np.ones((2, 2)), "shaped"),
        (np.ones(5), "shaped"),
        (np.array([1.0, np.nan, 0.0, 0.0]), "finite"),
        (np.array([1e39, 0.0, 0.0, 0.0]), "finite"),
        (np.array(["a"] * 4), "numbers"),
    ], ids=["two_by_two", "too_wide", "nan", "past_float32", "strings"])
    def test_bad_row(self, k_row, match):
        kv = self.make()
        before = self.state(kv)
        with pytest.raises(ContractViolation, match=match):
            kv.decode_append(0, k_row, np.ones(4))
        with pytest.raises(ContractViolation, match=match):
            kv.decode_append(0, np.ones(4), k_row)
        assert self.state(kv) == before

    @pytest.mark.parametrize("bad, match", [
        (np.ones(7), "shaped"),
        (np.ones((2, 4)), "shaped"),
        (np.r_[np.ones(7), np.nan], "finite"),
    ], ids=["one_short", "heads_by_head_dim", "nan_in_last_head"])
    def test_bad_layer_row_leaves_every_head_unchanged(self, bad, match):
        kv = DenseKV.from_prefill(prefill(_model(1, 2, 8), [1, 2, 3]))
        before = self.state(kv)
        with pytest.raises(ContractViolation, match=match):
            kv.decode_append(0, bad, np.ones(8))
        with pytest.raises(ContractViolation, match=match):
            kv.decode_append(0, np.ones(8), bad)
        assert self.state(kv) == before


class TestDenseKVIsTheFullBudgetCache:
    """The reference store is the 16-bit cache that keeps every prompt row, so it decodes,
    clones and snapshots as any cache does (its decode against the independent oracle
    store: :class:`TestStackedDecode`)."""

    def test_holds_every_prompt_row_at_16_bits_on_the_prefill_stacks(self):
        model = _model(2, 2, 8)
        res = prefill(model, [1, 2, 3, 4, 5])
        dense = DenseKV.from_prefill(res)
        assert isinstance(dense, CompressedKVCache) and dense.shape == (2, 2, 4) and dense.prefill_len == 5
        assert set(DenseKV.__dict__) - {"__module__", "__doc__"} == {"from_prefill"}
        assert dense.plan.per_layer == ((5, 16), (5, 16))
        assert dense.measured_bytes_per_layer() == [fp16_kv_bytes(5, 2, 4)] * 2  # every row, none in a block
        for layer in range(2):
            assert dense.residual_k[layer] is res.keys[layer] and dense.residual_v[layer] is res.values[layer]
            positions = dense.positions[layer]
            assert positions.tolist() == [list(range(5))] * 2 and not positions.flags.writeable

    def test_round_trips_through_a_snapshot_and_decodes_the_same_bits(self):
        model = _model(2, 2, 8)
        tokens = [1, 2, 3, 4, 5]
        dense = DenseKV.from_prefill(prefill(model, tokens))
        decode_step_dense(model, dense, embed_token(model, 6, len(tokens)))  # a decode row beside the prompt's
        snapshot = dump_snapshot(dense)
        restored = load_snapshot(snapshot)
        assert dump_snapshot(restored) == snapshot
        for step, token in enumerate([7, 0, 3], start=len(tokens) + 1):
            h = embed_token(model, token, step)
            assert decode_step(model, restored, h).tobytes() == decode_step_dense(model, dense, h).tobytes()
        assert dump_snapshot(restored) == dump_snapshot(dense)


class TestFusedProjection:
    """Decode's one stacked Q/K/V product gives the bits of three separate ones."""

    def test_q_k_v_are_views_of_one_stored_matrix(self):
        model = random_model(ModelConfig(2, 2, 8, 16, 32, seed=5))
        for lw in model.weights.layers:
            assert lw.w_qkv.shape == (3, 8, 8) and lw.w_qkv.flags.c_contiguous
            for i, w in enumerate((lw.w_q, lw.w_k, lw.w_v)):
                assert w.base is lw.w_qkv and w.flags.c_contiguous and np.array_equal(w, lw.w_qkv[i])

    @pytest.mark.parametrize("rows", [1, 5, 64])
    @pytest.mark.parametrize("d_model", [4, 12, 32, 96])
    def test_fused_and_view_products_match_contiguous_ones(self, d_model, rows):
        lw = random_model(ModelConfig(1, 1, d_model, 8, 8, seed=d_model + rows)).weights.layers[0]
        x = np.random.default_rng(rows).normal(size=(rows, d_model)).astype(np.float32)
        self.check(x, lw)

    # d_model is drawn over 1-256, past the benchmark's 64 and 128; one row
    # is decode's product, a few rows any batch of it. With W_Q, W_K and
    # W_V side by side in one (d_model, 3 * d_model) matrix, one product lost
    # these bits at every width from 49 up that is not a multiple of 16.
    @settings(max_examples=100, deadline=None)
    @example(d_model=50, rows=1, seed=0)
    @example(d_model=100, rows=1, seed=0)
    @example(d_model=100, rows=3, seed=0)
    @given(d_model=st.integers(1, 256), rows=st.one_of(st.just(1), st.integers(2, 8)), seed=st.integers(0, 2**16))
    def test_stacked_product_matches_each_view_on_drawn_widths(self, d_model, rows, seed):
        rng = np.random.default_rng(seed)
        lw = kvmodel.LayerWeights(*rng.normal(size=(4, d_model, d_model)).astype(np.float32))
        x = rng.normal(size=(rows, d_model)).astype(np.float32)
        self.check(x, lw)

    @staticmethod
    def check(x, lw):
        stacked = x @ lw.w_qkv  # decode's product, for a row x
        assert stacked.shape == (3, *x.shape)
        for w, product in zip((lw.w_q, lw.w_k, lw.w_v), stacked, strict=True):
            assert product.tobytes() == matmul(x, w).tobytes() == matmul(x, w.copy()).tobytes()


class TestStackedDecode:
    """Decode attends over a layer's stacked heads, bit for bit as the per-head loop does."""

    PROMPT = 12
    STEPS = 9  # two flushes at group size 4

    @staticmethod
    def same(a, b):
        return a.shape == b.shape and a.tobytes() == b.tobytes()

    def decode_beside_the_per_head_loop(self, model, res, plan, token, steps):
        """Decode ``steps`` tokens on a compressed cache and on a ``DenseKV``, each beside its
        ``per_head_decode`` reference, bit for bit in logits and stacks; returns the compressed cache."""
        layers, heads, n = len(res.keys), res.keys[0].shape[0], res.keys[0].shape[1]
        cache = prefill_compress(res.keys, res.values, [[None] * heads] * layers, plan, STREAM)
        stores = [(decode_step, cache, cache.clone()),
                  (decode_step_dense, DenseKV.from_prefill(res), DenseStore.from_prefill(res))]
        for step in range(steps):
            h = embed_token(model, token, n + step)
            for decode, store, reference in stores:
                logits = decode(model, store, h)
                assert self.same(logits, per_head_decode(model, reference, h))
                for layer in range(layers):
                    assert all(self.same(a, b) for a, b in zip(store.materialize_layer(layer),
                                                                reference.materialize_layer(layer), strict=True))
            token = int(np.argmax(logits))
        return cache

    # every bit width in each (layers, heads) case; head_dim, positions and
    # layout rotate so that every value of each meets every bit width
    @pytest.mark.parametrize("heads", [1, 2, 3, 4])
    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_equals_the_per_head_loop(self, layers, heads):
        for i, bits in enumerate((16, 2, 4, 8)):
            head_dim = (4, 8, 16)[(i + heads) % 3]
            layout = list(Layout)[(i + layers + heads) % 2]
            seed = 16 * layers + 4 * heads + i
            cfg = ModelConfig(layers, heads, heads * head_dim, 16, 64, seed, (i + layers) % 2 == 0)
            model = random_model(cfg)
            prompt = gen_probe_prompt(self.PROMPT, cfg.vocab, seed)
            plan = plan_for_tokens([8] * layers, bits, heads, head_dim, group_size=4, layout=layout)
            cache = self.decode_beside_the_per_head_loop(model, prefill(model, prompt), plan, prompt[-1], self.STEPS)
            rest = 8 + self.STEPS if bits == 16 else self.STEPS % 4  # the prompt block and two flushes
            assert cache.residual_k[layers - 1].shape == (heads, rest, head_dim)

    # Strategy bounds: vocab 40 and a context of 64, so a prompt of up to 48
    # tokens leaves room for the three steps; 3 layers x 4 heads of head_dim
    # up to 64 (d_model up to 256) keeps an example to a few milliseconds.
    @settings(max_examples=100, deadline=None)
    @example(layers=1, heads=4, head_dim=25, seed=0, prompt=list(range(10)), token=11, kept=8,
             bits=16, group_size=4, layout=Layout.PER_TOKEN, use_positions=False)
    @given(
        layers=st.integers(1, 3),
        heads=st.integers(1, 4),
        head_dim=st.integers(1, 64),
        seed=st.integers(0, 2**16),
        prompt=st.lists(st.integers(0, 39), min_size=1, max_size=48),
        token=st.integers(0, 39),
        kept=st.integers(4, 48),  # at least the policy's recent window
        bits=st.sampled_from([2, 4, 8, 16]),
        group_size=st.integers(1, 16),
        layout=st.sampled_from(list(Layout)),
        use_positions=st.booleans(),
    )
    def test_equals_the_per_head_loop_on_drawn_models(self, layers, heads, head_dim, seed, prompt, token, kept,
                                                      bits, group_size, layout, use_positions):
        model = random_model(ModelConfig(layers, heads, heads * head_dim, 40, 64, seed, use_positions))
        plan = plan_for_tokens([kept] * layers, bits, heads, head_dim, group_size, layout)
        self.decode_beside_the_per_head_loop(model, prefill(model, prompt), plan, token, 3)

    def test_stores_built_from_one_prefill_share_it_safely(self):
        # from_prefill copies only the outer lists, and an append replaces a
        # layer's arrays: two stores decoding different tokens from one
        # prefill give what oracle stores built on copied stacks give, and
        # leave the prefill's arrays as they were
        model = _model(2, 2, 8)
        res = prefill(model, [1, 2, 3, 4, 5])
        arrays = [*res.keys, *res.values]
        before = [m.tobytes() for m in arrays]
        shared = [DenseKV.from_prefill(res) for _ in range(2)]
        copied = [DenseStore([k.copy() for k in res.keys], [v.copy() for v in res.values]) for _ in range(2)]
        for step in range(3):
            for side, (store, reference) in enumerate(zip(shared, copied)):
                h = embed_token(model, 2 * step + side, 5 + step)
                assert self.same(decode_step_dense(model, store, h), per_head_decode(model, reference, h))
        assert all(m is kept for m, kept in zip([*res.keys, *res.values], arrays, strict=True))
        assert [m.tobytes() for m in arrays] == before


class TestResidualStacks:
    """Decode over a cache whose full-precision rows are one K and one V stack per layer."""

    PROMPT, KEPT, HEAD_DIM = 12, 8, 4
    STEPS, RESTORE_AT = 10, 5

    @staticmethod
    def stored(arrays):
        return [m.tobytes() for pair in arrays for m in pair]

    # every bit width, layout and group size (1 flushes at every step, 8 once)
    # on each (layers, heads) case
    @pytest.mark.parametrize("heads", [1, 2, 3, 4])
    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_decode_across_flushes(self, layers, heads):
        cases = itertools.product((16, 8, 4, 2), Layout, (1, 8))
        for i, (bits, layout, group_size) in enumerate(cases):
            seed = 100 * layers + 20 * heads + i
            model = random_model(ModelConfig(layers, heads, heads * self.HEAD_DIM, 16, 64, seed))
            prompt = gen_probe_prompt(self.PROMPT, 16, seed)
            res = prefill(model, prompt)
            plan = plan_for_tokens([self.KEPT] * layers, bits, heads, self.HEAD_DIM, group_size, layout)
            cache = prefill_compress(res.keys, res.values, [[None] * heads] * layers, plan, STREAM)
            reference, restored = cache.clone(), None
            token = prompt[-1]
            for step in range(self.STEPS):
                if step == self.RESTORE_AT:
                    restored = load_snapshot(dump_snapshot(cache))
                h = embed_token(model, token, self.PROMPT + step)
                held = [cache.materialize_layer(layer) for layer in range(layers)]
                before = self.stored(held)
                decode_step(model, cache.clone(), h)
                assert self.stored(cache.materialize_layer(layer) for layer in range(layers)) == before
                logits = decode_step(model, cache, h)
                assert self.stored(held) == before  # stacks read before an append keep their rows
                assert logits.tobytes() == per_head_decode(model, reference, h).tobytes()
                if restored is not None:
                    assert decode_step(model, restored, h).tobytes() == logits.tobytes()
                token = int(np.argmax(logits))
            assert dump_snapshot(restored) == dump_snapshot(cache)
            rest = self.KEPT + self.STEPS if bits == 16 else self.STEPS % group_size
            for layer in range(layers):
                assert cache.residual_k[layer].shape == cache.residual_v[layer].shape == (heads, rest, self.HEAD_DIM)


FMAX = float(np.finfo(np.float32).max)
HEADS, HEAD_DIM = 2, 2  # the hand-built decode model: d_model 4, vocab 4
D = HEADS * HEAD_DIM


def _uniform_overflow_rows() -> int:
    """A row count n whose uniform attention over n rows of float32's max overflows:
    the float32 probabilities sum past 1, so the convex combination rounds to inf."""
    for n in range(2, 65):
        probs = kvmodel.softmax_rows(np.zeros((HEADS, n), dtype=np.float32)).reshape(HEADS, 1, n)
        with np.errstate(over="ignore"):
            if np.isinf(probs @ np.full((HEADS, n, HEAD_DIM), FMAX, dtype=np.float32)).any():
                return n
    raise AssertionError("no row count up to 64 rounds a uniform average of float32's max past it")


def _decode_model(w_q=0.0, w_k=0.0, w_v=0.0, w_o=0.0, head=0.0) -> Model:
    """One layer of 2 heads of width 2; each matrix a (4, 4) of the value given, or that array."""
    def full(w):
        return np.full((D, D), w, dtype=np.float32) if np.ndim(w) == 0 else np.asarray(w, dtype=np.float32)

    layer = kvmodel.LayerWeights(full(w_q), full(w_k), full(w_v), full(w_o))
    return Model(ModelConfig(1, HEADS, D, D, 128), Weights(full(0.0), (layer,), full(head)))


def _stores(k, v):
    """A 16-bit cache and a dense store holding the (heads, rows, head_dim) stacks ``k`` and ``v``."""
    k, v = np.asarray(k, dtype=np.float32), np.asarray(v, dtype=np.float32)
    plan = plan_for_tokens([k.shape[1]], 16, heads=HEADS, head_dim=HEAD_DIM)
    policy = PolicyConfig(PolicyKind.STREAMING_LLM, recent_window=1)
    result = kvmodel.PrefillResult(np.zeros(D, dtype=np.float32), [k], [v], [], [])
    return prefill_compress([k], [v], [[None] * HEADS], plan, policy), DenseKV.from_prefill(result)


def _row_stack(row, rows=3):
    """``rows`` copies of the head_dim-wide ``row`` in every head."""
    return np.tile(np.asarray(row, dtype=np.float32), (HEADS, rows, 1))


def _one_hot(column, value):
    w = np.zeros((D, D), dtype=np.float32)
    w[0, column] = value
    return w


class TestDecodeChecksEveryProduct:
    """A decode step's products run bare inside one error state: each is still checked for
    finiteness where it arises, and a non-finite one raises ContractViolation naming it."""

    @staticmethod
    def case(site):
        """(model, K stack, V stack, h) whose decode step first goes non-finite at ``site``."""
        small = _row_stack([0.5, 0.25])
        if site == "Q/K/V":  # a finite h whose projection overflows
            return _decode_model(w_q=1e30), small, small, np.full(D, 1e10)
        if site == "Q/K/V NaN":  # a NaN in h
            return _decode_model(w_q=1.0), small, small, np.array([np.nan, 0.0, 0.0, 0.0])
        if site == "scores":  # a stored key drives one score per head to -inf; the max stays finite
            w_q = _one_hot([0, 2], 2.0)  # q = [2, 0] in each head
            return _decode_model(w_q=w_q), _row_stack([-FMAX, 0.0], 1), _row_stack([1.0, 0.0], 1), np.eye(D)[0]
        if site == "V":  # uniform attention over rows of float32's max rounds past it
            rows = _uniform_overflow_rows() - 1  # the token's own row makes n
            w_v = _one_hot([0, 2], FMAX)  # the token's V row: [max, 0] in each head
            return _decode_model(w_v=w_v), _row_stack([0.0, 0.0], rows), _row_stack([FMAX, 0.0], rows), np.eye(D)[0]
        if site == "W_O":  # a finite attention output times a large W_O
            return _decode_model(w_o=1e10), small, _row_stack([1e30, 1e30]), np.eye(D)[0]
        if site == "head":  # a finite residual stream times a large head
            return _decode_model(head=FMAX / 2), small, small, np.ones(D)
        raise AssertionError(site)

    @pytest.mark.parametrize("site, name", [
        ("Q/K/V", "Q/K/V"), ("Q/K/V NaN", "Q/K/V"), ("scores", "scores"), ("V", "V"), ("W_O", "W_O"),
        ("head", "head"),
    ], ids=["qkv_overflow", "nan_in_h", "score_at_minus_inf", "v_overflow", "w_o_overflow", "head_overflow"])
    def test_a_non_finite_product_raises_where_it_arises(self, site, name):
        model, k, v, h = self.case(site)
        assert np.isfinite(k).all() and np.isfinite(v).all()
        cache, dense = _stores(k, v)
        for decode, store in ((decode_step, cache), (decode_step_dense, dense)):
            with pytest.raises(ContractViolation, match=rf"^decode's {name} product produced non-finite elements$"):
                decode(model, store, h)

    def test_the_minus_inf_score_alone_would_decode(self):
        # the softmax weights a -inf score 0 and the step goes on: the finite check is what raises
        _, k, _, _ = self.case("scores")
        with np.errstate(over="ignore"):
            stored = np.float32(2.0) * k[:, :, 0]  # q = [2, 0] in each head
        scores = np.concatenate([stored, np.zeros((HEADS, 1), dtype=np.float32)], axis=1)  # the token's key: 0
        assert np.isneginf(scores[:, 0]).all()
        assert kvmodel.softmax_rows(scores).tolist() == [[0.0, 1.0]] * HEADS

    @pytest.mark.parametrize("side", ["k", "v"])
    def test_stores_of_stacks_that_are_not_float32_raise(self, side):
        model = _decode_model(w_q=0.5, w_k=0.5, w_v=0.5, w_o=0.5, head=0.5)
        cache, dense = _stores(_row_stack([0.5, 0.25]), _row_stack([0.5, 0.25]))
        wide = _row_stack([0.5, 0.25]).astype(np.float64)
        (cache.residual_k if side == "k" else cache.residual_v)[0] = wide
        (dense.residual_k if side == "k" else dense.residual_v)[0] = wide
        with pytest.raises(ContractViolation, match="3-D float32"):
            decode_step(model, cache, np.ones(D))
        with pytest.raises(ContractViolation, match="store"):
            decode_step_dense(model, dense, np.ones(D))


class TestModelChecksItsWeights:
    """A model's weights are checked once, when it is built: numbers, in its config's shapes, stored as float32."""

    CFG = ModelConfig(2, 2, 4, 6, 16, seed=0)

    @classmethod
    def parts(cls, dtype=np.float32):
        """(embedding, [per layer (W_Q, W_K, W_V, W_O)], head) fitting CFG, drawn once per call."""
        rng = np.random.default_rng(0)
        d, vocab = cls.CFG.d_model, cls.CFG.vocab

        def draw(rows, cols):
            return rng.uniform(-0.5, 0.5, size=(rows, cols)).astype(dtype)

        return draw(vocab, d), [tuple(draw(d, d) for _ in range(4)) for _ in range(cls.CFG.layers)], draw(d, vocab)

    @classmethod
    def build(cls, emb, layers, head, cfg=None):
        return Model(cfg or cls.CFG, Weights(emb, tuple(kvmodel.LayerWeights(*lw) for lw in layers), head))

    def test_fitting_weights_build(self):
        model = self.build(*self.parts())
        assert model.weights.embedding.shape == (6, 4) and model.weights.head.shape == (4, 6)

    @pytest.mark.parametrize("change", [
        lambda emb, layers, head: (emb[:-1], layers, head),
        lambda emb, layers, head: (emb[:, :-1], layers, head),
        lambda emb, layers, head: (emb, layers, head[:, :-1]),
        lambda emb, layers, head: (emb, layers, head.T),
        lambda emb, layers, head: (emb, layers[:1], head),
        lambda emb, layers, head: (emb, layers * 2, head),
        lambda emb, layers, head: (emb, [tuple(np.ones((8, 8), np.float32) for _ in range(4))] * 2, head),
    ], ids=["embedding_rows", "embedding_width", "head_vocab", "head_transposed", "one_layer_short",
            "two_layers_over", "projections_of_another_width"])
    def test_weights_that_do_not_fit_the_config_raise_when_built(self, change):
        with pytest.raises(ContractViolation, match="do not fit"):
            self.build(*change(*self.parts()))

    @pytest.mark.parametrize("replace_at", [0, 1, 2, 3])
    @pytest.mark.parametrize("bad", [np.ones((4, 5), np.float32), np.ones((5, 5), np.float32)],
                             ids=["not_square", "square_of_another_width"])
    def test_a_projection_unlike_its_layer_raises_when_built(self, replace_at, bad):
        emb, layers, head = self.parts()
        projections = list(layers[0])
        projections[replace_at] = bad
        with pytest.raises(ContractViolation, match="square matrices of one shape"):
            self.build(emb, [tuple(projections), layers[1]], head)

    @pytest.mark.parametrize("bad", [np.full((4, 4), "a"), np.ones((4, 4), dtype=object), [[0.5] * 4] * 4,
                                     np.ones(4, np.float32), None],
                             ids=["strings", "objects", "nested_list", "1-D", "None"])
    @pytest.mark.parametrize("where", ["embedding", "w_q", "w_o", "head"])
    def test_weights_that_are_not_arrays_of_numbers_raise_when_built(self, where, bad):
        emb, layers, head = self.parts()
        if where == "embedding":
            emb = bad
        elif where == "head":
            head = bad
        else:
            layers[0] = tuple(bad if name == where else w for name, w in zip(kvmodel._PROJECTIONS, layers[0]))
        with pytest.raises(ContractViolation, match=f"^{where} must"):
            self.build(emb, layers, head)

    @pytest.mark.parametrize("layers", [None, [None], (np.ones((4, 4), np.float32),)], ids=["None", "None_layer",
                                                                                           "bare_matrix"])
    def test_layers_that_are_not_layer_weights_raise_when_built(self, layers):
        emb, _, head = self.parts()
        with pytest.raises(ContractViolation, match="layers must be a sequence of LayerWeights"):
            Weights(emb, layers, head)

    def test_a_model_takes_a_config_and_weights(self):
        weights = self.build(*self.parts()).weights
        with pytest.raises(ContractViolation, match="ModelConfig and Weights"):
            Model(None, weights)
        with pytest.raises(ContractViolation, match="ModelConfig and Weights"):
            Model(self.CFG, (weights.embedding, weights.layers, weights.head))

    def test_float64_weights_are_stored_as_float32_and_decode_as_their_cast(self):
        wide = self.parts(np.float64)
        emb, layers, head = wide
        cast = (emb.astype(np.float32), [tuple(w.astype(np.float32) for w in lw) for lw in layers],
                head.astype(np.float32))
        m64, m32 = self.build(*wide), self.build(*cast)
        for w64, w32 in zip(kvmodel._matrices(m64.weights), kvmodel._matrices(m32.weights), strict=True):
            assert w64.dtype == np.float32 and w64.tobytes() == w32.tobytes()
        for lw in m64.weights.layers:
            assert lw.w_qkv.dtype == np.float32
        tokens = [1, 5, 2, 0, 3]
        r64, r32 = prefill(m64, tokens), prefill(m32, tokens)
        assert r64.logits.tobytes() == r32.logits.tobytes()
        stores64, stores32 = _prefill_stores(r64), _prefill_stores(r32)
        for step, token in enumerate([4, 1, 2]):
            h = embed_token(m32, token, len(tokens) + step)
            assert embed_token(m64, token, len(tokens) + step).tobytes() == h.tobytes()
            for decode, s64, s32 in zip((decode_step, decode_step_dense), stores64, stores32):
                assert decode(m64, s64, h).tobytes() == decode(m32, s32, h).tobytes()

    def test_float32_weights_are_stored_uncopied(self):
        emb, layers, head = self.parts()
        model = self.build(emb, layers, head)
        assert model.weights.embedding is emb and model.weights.head is head
        assert model.weights.layers[0].w_o is layers[0][3]


def _prefill_stores(res):
    """A 4-bit cache (group size 2, so decode flushes) and a dense store of prefill result ``res``."""
    layers, heads, _, head_dim = len(res.keys), *res.keys[0].shape
    plan = plan_for_tokens([4] * layers, 4, heads=heads, head_dim=head_dim, group_size=2)
    cache = prefill_compress(res.keys, res.values, [[None] * heads] * layers, plan, STREAM)
    return cache, DenseKV.from_prefill(res)
