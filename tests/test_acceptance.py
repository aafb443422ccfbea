"""Acceptance suite: one test per shipping criterion, at stated tolerances.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL line per
criterion. Each test is self-contained and seeded; several rerun reference
oracles (full-sort selection, explicit window unions, per-group error bounds)
against the library implementations.
"""

import os
import subprocess
import sys
import time

import numpy as np

import kvtrade
from kvtrade.budget import plan_bytes, apply_overrides, LayerOverride
from kvtrade.cache import prefill_compress
from kvtrade.model import (
    DenseKV,
    ModelConfig,
    decode_step,
    decode_step_dense,
    embed_token,
    prefill,
    random_model,
)
from kvtrade.prune import (
    PolicyConfig,
    PolicyKind,
    ScoreContext,
    score_h2o,
    score_snapkv,
    score_streaming,
)
from kvtrade.quant import (
    Layout,
    QuantConfig,
    dequantize_matrix,
    quantize_matrix,
    quantized_bytes,
)
from kvtrade.sweep import SweepConfig, run_sweep
from oracles import (
    DenseStore, context_from_probs, dequantize_group, max_pool, per_head_decode, quantize_group, uniform_plan,
)


def report(num: int, ok: bool, desc: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {desc}", flush=True)


def contexts(result):
    """Score contexts from prefill's statistics, as the sweep builds them."""
    n = result.keys[0].shape[1]
    return [
        [ScoreContext(sums, rows, n) for sums, rows in zip(layer_sums, layer_rows)]
        for layer_sums, layer_rows in zip(result.column_sums, result.attn)
    ]


def test_criterion_1_quantization_round_trip():
    desc = "round-trip error <= s/2 + 1e-6 and exact lattice values, 1000 groups per bit width, under 5 s"
    ok = False
    try:
        start = time.perf_counter()
        rng = np.random.default_rng(1001)
        for bits in (2, 4, 8):
            top = (1 << bits) - 1
            for _ in range(1000):
                size = int(rng.integers(1, 129))
                vals = rng.uniform(-100.0, 100.0, size=size)
                g = quantize_group(vals, bits)
                err = np.abs(dequantize_group(g) - vals).max()
                assert err <= g.scale / 2 + 1e-6
                # lattice check: values of the form z + k*s reproduce exactly
                zero = float(rng.uniform(-50, 50))
                step = float(rng.uniform(0.01, 5.0))
                ks = np.concatenate(([0, top], rng.integers(0, top + 1, size=14)))
                lattice = zero + ks * step
                out = dequantize_group(quantize_group(lattice, bits))
                rel = np.abs(out - lattice).max() / max(1.0, np.abs(lattice).max())
                assert rel <= 1e-5
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.2f}s"
        ok = True
    finally:
        report(1, ok, desc)


def test_criterion_2_budget_parity():
    desc = "plan bytes: 4x@4 within [1.00, 1.07] and 2x@8 within [1.00, 1.04] of the 16-bit reference, 20 random shapes"
    ok = False
    try:
        rng = np.random.default_rng(1002)
        for _ in range(20):
            layers = int(rng.integers(1, 9))
            heads = int(rng.integers(1, 9))
            head_dim = int(rng.choice([64, 128]))
            base = 32 * int(rng.integers(1, 9))
            layout = Layout(rng.choice([member.value for member in Layout]))
            args = dict(heads=heads, head_dim=head_dim, group_size=64, layout=layout)
            ref = plan_bytes(uniform_plan(layers, base, 16, **args), heads, head_dim)
            four = plan_bytes(uniform_plan(layers, base, 4, **args), heads, head_dim)
            eight = plan_bytes(uniform_plan(layers, base, 8, **args), heads, head_dim)
            assert 1.00 <= four / ref <= 1.07, f"4-bit parity {four / ref:.4f}"
            assert 1.00 <= eight / ref <= 1.04, f"8-bit parity {eight / ref:.4f}"
        ok = True
    finally:
        report(2, ok, desc)


# --- criterion 3 oracle: full sort, explicit unions, loop-based pooling ----


def _oracle_top_k(scores, k):
    ranked = sorted(range(len(scores)), key=lambda j: (-scores[j], j))
    return set(ranked[:k])


def _oracle_streaming(n, budget, recent):
    if budget >= n:
        return list(range(n))
    return sorted(set(range(budget - recent)) | set(range(n - recent, n)))


def _oracle_h2o(attn, n, budget, recent):
    if budget >= n:
        return list(range(n))
    scores = attn.astype(np.float64).sum(axis=0)[: n - recent].tolist()
    return sorted(_oracle_top_k(scores, budget - recent) | set(range(n - recent, n)))


def _oracle_snap(attn, n, budget, recent, pool):
    if budget >= n:
        return list(range(n))
    cand = n - recent
    raw = attn[n - recent :].astype(np.float64).sum(axis=0)[:cand].tolist()
    return sorted(_oracle_top_k(max_pool(raw, pool), budget - recent) | set(range(n - recent, n)))


def _random_attn(rng, n, tie_rich):
    if tie_rich:
        attn = np.zeros((n, n), dtype=np.float32)
        cols = rng.integers(0, np.arange(n) + 1)
        attn[np.arange(n), cols] = 1.0
        return attn
    logits = rng.normal(size=(n, n))
    logits[np.triu_indices(n, k=1)] = -np.inf
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return (e / e.sum(axis=1, keepdims=True)).astype(np.float32)


def test_criterion_3_pruning_oracle():
    desc = "all four policies match brute-force selection on 10,000 random contexts up to n=256, ties included"
    ok = False
    try:
        rng = np.random.default_rng(1003)
        for case in range(10_000):
            n = int(rng.integers(5, 33)) if case % 2 == 0 else int(rng.integers(33, 257))
            tie_rich = case % 3 == 0
            attn = _random_attn(rng, n, tie_rich)
            ctx = context_from_probs(attn, n)
            recent = int(rng.integers(1, min(n - 1, 40) + 1))
            budget = int(rng.integers(recent, n + 20))
            pool = int(rng.choice([1, 3, 5, 7]))

            streaming = PolicyConfig(PolicyKind.STREAMING_LLM, recent_window=recent)
            got = list(score_streaming(n, budget, streaming).retained)
            assert got == _oracle_streaming(n, budget, recent)

            h2o = PolicyConfig(PolicyKind.H2O, recent_window=recent)
            got = list(score_h2o(ctx, budget, h2o).retained)
            assert got == _oracle_h2o(attn, n, budget, recent)

            if n > recent:
                snap = PolicyConfig(PolicyKind.SNAPKV, recent_window=recent, pool_width=pool)
                want = _oracle_snap(attn, n, budget, recent, pool)
                assert list(score_snapkv(ctx, budget, snap).retained) == want
                pyr = PolicyConfig(PolicyKind.PYRAMIDKV, recent_window=recent, pool_width=pool)
                assert list(score_snapkv(ctx, budget, pyr).retained) == want
        ok = True
    finally:
        report(3, ok, desc)


def test_criterion_4_lossless_path_equivalence():
    desc = "full-budget 16-bit compressed decode equals an independent dense store's within 1e-6, 50 random models"
    ok = False
    try:
        rng = np.random.default_rng(1004)
        for seed in range(50):
            layers = int(rng.integers(1, 5))
            heads = int(rng.integers(1, 5))
            head_dim = int(rng.choice([4, 8, 16]))
            d_model = heads * head_dim
            assert d_model <= 64
            cfg = ModelConfig(layers, heads, d_model, 32, 128, seed=seed)
            model = random_model(cfg)
            n = int(rng.integers(8, 33))
            tokens = rng.integers(0, 32, n).tolist()
            res = prefill(model, tokens)
            plan = uniform_plan(layers, n + 8, 16, heads=heads, head_dim=head_dim)
            policy = PolicyConfig(PolicyKind.STREAMING_LLM, recent_window=4)
            cache = prefill_compress(res.keys, res.values, contexts(res), plan, policy)
            dense = DenseStore.from_prefill(res)
            token = int(np.argmax(res.logits))
            for _ in range(2):
                h = embed_token(model, token)
                got = decode_step(model, cache, h)
                want = per_head_decode(model, dense, h)
                assert np.abs(got - want).max() <= 1e-6
                token = int(np.argmax(want))
        ok = True
    finally:
        report(4, ok, desc)


def test_criterion_5_central_claim_analog():
    desc = "recall at fixed budget: median accuracy 4x@4 > 2x@8 >= 1x@16 for snapkv and pyramidkv; 4x@4 = 1.0; under 60 s"
    ok = False
    try:
        start = time.perf_counter()
        cfg = SweepConfig(
            task="recall",
            model="recall",
            seq_lens=(512,),
            seeds=tuple(range(20)),
            policies=("snapkv", "pyramidkv"),
            bits=(16, 8, 4),
            token_multipliers=(1, 2, 4),
            paired_budget=True,
            group_sizes=(64,),
            layouts=("per_token",),
            base_tokens=128,
            full_cache_tokens=512,
            num_pairs=16,
            filler_vocab=32,
        )
        rows, skips = run_sweep(cfg)
        assert not skips, [s.reason for s in skips]
        assert len(rows) == 2 * 3 * 20
        for policy in ("snapkv", "pyramidkv"):
            med = {
                bits: float(
                    np.median([r.accuracy for r in rows if r.policy == policy and r.bits == bits])
                )
                for bits in (16, 8, 4)
            }
            assert med[4] > med[8] >= med[16], f"{policy}: {med}"
        for r in rows:
            if r.bits == 4:
                assert r.accuracy == 1.0
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.1f}s"
        ok = True
    finally:
        report(5, ok, desc)


def test_criterion_6_two_bit_collapse():
    desc = "median logit perturbation at 2-bit is at least twice the 4-bit value, 50 random models"
    ok = False
    try:
        diffs = {2: [], 4: []}
        for seed in range(50):
            cfg = ModelConfig(2, 2, 16, 32, 64, seed=seed)
            model = random_model(cfg)
            rng = np.random.default_rng(seed + 2000)
            tokens = rng.integers(0, 32, 32).tolist()
            res = prefill(model, tokens)
            h = embed_token(model, int(np.argmax(res.logits)))
            dense = DenseKV.from_prefill(res)
            ref = decode_step_dense(model, dense, h)
            for bits in (2, 4):
                plan = uniform_plan(2, 32, bits, heads=2, head_dim=8, group_size=8)
                policy = PolicyConfig(PolicyKind.STREAMING_LLM, recent_window=4)
                cache = prefill_compress(res.keys, res.values, contexts(res), plan, policy)
                got = decode_step(model, cache, h)
                diffs[bits].append(float(np.abs(got - ref).max()))
        med2 = float(np.median(diffs[2]))
        med4 = float(np.median(diffs[4]))
        assert med2 >= 2.0 * med4, f"2-bit {med2:.5f} vs 4-bit {med4:.5f}"
        ok = True
    finally:
        report(6, ok, desc)


def test_criterion_7_group_size_trend():
    desc = "mean round-trip error grows with group size (32 <= 64 <= 128) while bytes strictly shrink, 1000 matrices"
    ok = False
    try:
        rng = np.random.default_rng(1007)
        err_sum = {32: 0.0, 64: 0.0, 128: 0.0}
        count = 0
        for _ in range(1000):
            m = rng.normal(size=(8, 128)).astype(np.float32)
            sizes = {}
            for group in (32, 64, 128):
                q = quantize_matrix(m, QuantConfig(4, group))
                err_sum[group] += float(np.abs(dequantize_matrix(q) - m).sum())
                sizes[group] = quantized_bytes(q)
            assert sizes[32] > sizes[64] > sizes[128]
            count += m.size
        means = {g: err_sum[g] / count for g in err_sum}
        assert means[32] <= means[64] <= means[128], means
        ok = True
    finally:
        report(7, ok, desc)


def test_criterion_8_layer_override_frame_property():
    desc = "an override on layers [0,4) leaves every other layer's plan entry and stored bytes bit-identical"
    ok = False
    try:
        layers, heads, head_dim = 8, 2, 8
        cfg = ModelConfig(layers, heads, heads * head_dim, 32, 128, seed=8)
        model = random_model(cfg)
        rng = np.random.default_rng(1008)
        tokens = rng.integers(0, 32, 48).tolist()
        res = prefill(model, tokens, window=4)
        policy = PolicyConfig(PolicyKind.SNAPKV, recent_window=4)

        base_plan = uniform_plan(layers, 8, 4, heads=heads, head_dim=head_dim, group_size=8)
        over_plan = apply_overrides(base_plan, [LayerOverride(0, 4, 1, 16)])
        assert over_plan.per_layer[4:] == base_plan.per_layer[4:]
        assert over_plan.per_layer[:4] != base_plan.per_layer[:4]

        base_cache = prefill_compress(res.keys, res.values, contexts(res), base_plan, policy)
        over_cache = prefill_compress(res.keys, res.values, contexts(res), over_plan, policy)
        base_bytes = base_cache.measured_bytes_per_layer()
        over_bytes = over_cache.measured_bytes_per_layer()
        for layer in range(4, layers):
            assert base_bytes[layer] == over_bytes[layer]
            k0, v0 = base_cache.materialize_layer(layer)
            k1, v1 = over_cache.materialize_layer(layer)
            assert np.array_equal(k0, k1) and np.array_equal(v0, v1)
        assert base_bytes[:4] != over_bytes[:4]
        ok = True
    finally:
        report(8, ok, desc)


def test_criterion_9_determinism(tmp_path):
    desc = "two CLI runs of the demo config emit byte-identical CSV"
    ok = False
    try:
        outputs = []
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(kvtrade.__file__))}
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            proc = subprocess.run(
                [sys.executable, "-m", "kvtrade.cli", "run", "--config", "demo", "--out", str(out)],
                env=env,
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert len(outputs[0]) > 0
        ok = True
    finally:
        report(9, ok, desc)
