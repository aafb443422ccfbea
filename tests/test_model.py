import numpy as np
import pytest

from kvtrade.budget import uniform_plan
from kvtrade.cache import prefill_compress
from kvtrade.errors import ContractViolation
from kvtrade.model import (
    DenseKV,
    Model,
    ModelConfig,
    Weights,
    build_recall_model,
    decode_step,
    decode_step_dense,
    embed_token,
    load_weights,
    prefill,
    quantization_logit_bound,
    random_model,
    save_weights,
)
from kvtrade.prune import PolicyConfig, PolicyKind, ScoreContext
from kvtrade.tasks import gen_recall_task

STREAM = PolicyConfig(PolicyKind.STREAMING_LLM, recent_window=4)


def contexts(result):
    n = result.hidden.shape[0]
    return [
        [ScoreContext(a, n, l, h) for h, a in enumerate(row)]
        for l, row in enumerate(result.attn)
    ]


class TestPrefill:
    def test_single_token_attention(self):
        model = random_model(ModelConfig(2, 1, 8, 16, 32, seed=0))
        res = prefill(model, [3])
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
        res = prefill(zeroed, [1, 2, 3, 4, 5])
        expected = np.tril(np.ones((5, 5))) / np.arange(1, 6)[:, None]
        for attn in res.attn[0]:
            assert np.allclose(attn, expected, atol=1e-6)

    def test_shapes(self):
        cfg = ModelConfig(2, 1, 8, 16, 32, seed=2)
        model = random_model(cfg)
        res = prefill(model, list(range(16)))
        assert res.logits.shape == (16,)
        for row_k, row_v, row_a in zip(res.keys, res.values, res.attn):
            assert len(row_k) == 1
            assert row_k[0].shape == (16, 8)
            assert row_v[0].shape == (16, 8)
            assert row_a[0].shape == (16, 16)
        assert res.hidden.shape == (16, 8)

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
        res = prefill(model, rng.integers(0, vocab, n).tolist())
        assert res.logits.shape == (vocab,)
        assert res.hidden.shape == (n, cfg.d_model)
        assert all(k.shape == (n, head_dim) for row in res.keys for k in row)
        assert all(v.shape == (n, head_dim) for row in res.values for v in row)
        assert all(a.shape == (n, n) for row in res.attn for a in row)

    def test_causality_by_mutation(self):
        cfg = ModelConfig(2, 2, 16, 32, 64, seed=4)
        model = random_model(cfg)
        rng = np.random.default_rng(5)
        tokens = rng.integers(0, 32, 20).tolist()
        t = 11
        mutated = list(tokens)
        mutated[t + 1] = (mutated[t + 1] + 7) % 32
        a = prefill(model, tokens)
        b = prefill(model, mutated)
        assert np.array_equal(a.hidden[: t + 1], b.hidden[: t + 1])
        for la, lb in zip(a.keys, b.keys):
            for ka, kb in zip(la, lb):
                assert np.array_equal(ka[: t + 1], kb[: t + 1])
        for la, lb in zip(a.attn, b.attn):
            for pa, pb in zip(la, lb):
                assert np.array_equal(pa[: t + 1, : t + 1], pb[: t + 1, : t + 1])


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
            dense = DenseKV.from_prefill(res)
            token = int(np.argmax(res.logits))
            for step in range(3):
                h = embed_token(model, token)
                got = decode_step(model, cache, h)
                want = decode_step_dense(model, dense, h)
                assert np.abs(got - want).max() <= 1e-6
                token = int(np.argmax(want))


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
        assert cache.entry(0, 0).positions == [5]
        logits = decode_step(model, cache, embed_token(model, 7))
        assert logits.shape == (16,)
        k, _ = cache.materialize(0, 0)
        assert k.shape[0] == 2
        assert np.array_equal(k[0], res.keys[0][0][5])


class TestRecallModel:
    def test_full_recall_without_compression(self):
        model, vocab, margin = build_recall_model(4, 64)
        assert margin > 0
        task = gen_recall_task(64, 4, [0.0, 0.3, 0.6, 1.0], 0, vocab)
        res = prefill(model, task.tokens)
        for q in task.queries:
            dense = DenseKV.from_prefill(res)
            logits = decode_step_dense(model, dense, embed_token(model, q.key_token))
            assert int(np.argmax(logits)) == q.value_token

    def test_evicted_needle_fails(self):
        model, vocab, _ = build_recall_model(4, 64)
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
        model, vocab, margin = build_recall_model(4, 48)
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

    def test_vocab_too_small_rejected(self):
        with pytest.raises(ContractViolation):
            build_recall_model(4, 64, filler_vocab=0)
        with pytest.raises(ContractViolation):
            build_recall_model(4, 64, d_model=8)


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
