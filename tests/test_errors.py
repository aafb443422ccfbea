"""Every integer setting follows one rule, ``errors.require_int``.

Each row builds something from one integer setting. The setting must reject
2.5, ``True``, its minimum as a float and the integer below its minimum,
with a message that names it, and take a numpy integer at its minimum.
``SweepConfig`` reports the same rule as a ``ConfigError`` problem, and a
quantized block, which holds stored data, as an ``IntegrityError``. A
layer or head index is a setting whose minimum is 0 that must also be
below the store's count (``errors.require_index``).

An argument of the wrong kind is the other rule, ``errors.require_type``;
``test_contract.py`` tries it on every argument of the public API.
"""

import numpy as np
import pytest

from kvtrade.budget import BudgetPlan, LayerOverride, fp16_kv_bytes, plan_bytes, plan_for_tokens, pyramid_allocation
from kvtrade.cache import prefill_compress
from kvtrade.errors import ContractViolation, IntegrityError, require_int
from kvtrade.model import DenseKV, ModelConfig, RecallVocab, build_recall_model, embed_token, prefill, random_model
from kvtrade.prune import PolicyConfig, PolicyKind, ScoreContext, decide, score_streaming, top_k_indices
from kvtrade.quant import Layout, QuantConfig, QuantizedTensor, quantized_bytes_for_shape
from kvtrade.sweep import ConfigError, SweepConfig, run_sweep
from kvtrade.tasks import gen_probe_prompt, gen_recall_task

MODEL = dict(layers=1, heads=1, d_model=4, vocab=8, context_limit=16, seed=0)
TINY_MODEL = random_model(ModelConfig(**MODEL))
VOCAB = RecallVocab(4, 8)
STREAM2 = PolicyConfig(PolicyKind.STREAMING_LLM, recent_window=2)
# one 16-bit point of a one-pair recall prompt: every axis can be set alone
SWEEP = dict(num_pairs=1, paired_budget=False, bits=(16,), token_multipliers=(1,))
TINY_SWEEP = SweepConfig(
    task="random_probe", model="random", seq_lens=(8,), policies=("streaming_llm",),
    bits=(16,), token_multipliers=(1,), base_tokens=4, full_cache_tokens=8, probe_steps=1,
    layers=1, heads=1, d_model=4, vocab=8, context_limit=16, recent_window=2,
)
TINY_PREFILL = prefill(TINY_MODEL, [1, 2, 3])
ROW = np.ones(4)
QCFG = QuantConfig(4, 4)


def tiny_cache():
    """A fresh 1-layer, 1-head cache of the tiny model's prompt, 4-bit."""
    plan = plan_for_tokens([4], 4, heads=1, head_dim=4, group_size=4)
    return prefill_compress(TINY_PREFILL.keys, TINY_PREFILL.values, [[None]], plan, STREAM2)


def dense():
    return DenseKV.from_prefill(TINY_PREFILL)


def block(bits=4, group_size=4, groups=1, nbytes=2):
    """A 1 x 4 per-token block of zero codes in ``groups`` groups packed into ``nbytes``."""
    return QuantizedTensor((1, 4), bits, group_size, Layout.PER_TOKEN, [0.0] * groups, [1.0] * groups, bytes(nbytes))


def model_config(name):
    return lambda v: ModelConfig(**{**MODEL, name: v})


def sweep_axis(name):
    return lambda v: SweepConfig(**{**SWEEP, name: (v,)})


def sweep_value(name):
    return lambda v: SweepConfig(**{**SWEEP, name: v})


def plan(tokens, bits):
    return BudgetPlan(((tokens, bits),), 4, Layout.PER_TOKEN, 0)


# a 4-bit and a 16-bit layer: plan_bytes charges both kinds
TWO_LAYERS = BudgetPlan(((4, 4), (4, 16)), 4, Layout.PER_TOKEN, 0)


def two_layer_cache():
    return prefill_compress([*TINY_PREFILL.keys] * 2, [*TINY_PREFILL.values] * 2, [[None]] * 2, TWO_LAYERS, STREAM2)

# id: (build, the name its messages use, its minimum, further values it rejects)
SETTINGS = {
    **{f"ModelConfig.{name}": (model_config(name), name, 1, (1.5,))
       for name in ("layers", "heads", "d_model", "vocab", "context_limit")},
    "ModelConfig.seed": (model_config("seed"), "seed", 0, ()),
    "RecallVocab.num_pairs": (lambda v: RecallVocab(v, 8), "num_pairs", 1, ()),
    "RecallVocab.filler_vocab": (lambda v: RecallVocab(4, v), "filler_vocab", 1, ()),
    "PolicyConfig.recent_window": (lambda v: PolicyConfig(PolicyKind.SNAPKV, recent_window=v), "recent_window", 1, ()),
    "PolicyConfig.pool_width": (lambda v: PolicyConfig(PolicyKind.SNAPKV, pool_width=v), "pool_width", 1, ()),
    # 2 is the smallest supported width, and 4.0 in SUPPORTED_BITS holds
    "QuantConfig.bits": (lambda v: QuantConfig(v), "bits", 2, (4.0,)),
    "QuantConfig.group_size": (lambda v: QuantConfig(4, v), "group_size", 1, ()),
    "BudgetPlan.tokens": (lambda v: plan(v, 16), "tokens", 1, ()),
    "BudgetPlan.bits": (lambda v: plan(16, v), "bits", 2, (4.0,)),
    "BudgetPlan.total_budget_bytes": (lambda v: BudgetPlan(((4, 16),), 4, Layout.PER_TOKEN, v), "total_budget_bytes",
                                      0, ()),
    "plan_for_tokens.tokens": (lambda v: plan_for_tokens([v], 4, heads=1, head_dim=4, group_size=4), "tokens", 1,
                               (3.7,)),
    "plan_for_tokens.heads": (lambda v: plan_for_tokens([4], 4, v, 4), "heads", 1, ()),
    "plan_for_tokens.head_dim": (lambda v: plan_for_tokens([4], 4, 1, v), "head_dim", 1, ()),
    "plan_bytes.heads": (lambda v: plan_bytes(TWO_LAYERS, v, 4), "heads", 1, ()),
    "plan_bytes.head_dim": (lambda v: plan_bytes(TWO_LAYERS, 1, v), "head_dim", 1, ()),
    "quantized_bytes_for_shape.rows": (lambda v: quantized_bytes_for_shape(v, 4, QCFG), "rows", 1, ()),
    "quantized_bytes_for_shape.cols": (lambda v: quantized_bytes_for_shape(4, v, QCFG), "cols", 1, ()),
    # an empty residual holds 0 rows
    "fp16_kv_bytes.tokens": (lambda v: fp16_kv_bytes(v, 1, 4), "tokens", 0, ()),
    "fp16_kv_bytes.heads": (lambda v: fp16_kv_bytes(4, v, 4), "heads", 1, ()),
    "fp16_kv_bytes.head_dim": (lambda v: fp16_kv_bytes(4, 1, v), "head_dim", 1, ()),
    "build_recall_model.seq_len": (lambda v: build_recall_model(2, v), "seq_len", 1, (-5,)),
    "LayerOverride.start": (lambda v: LayerOverride(v, 4, 1, 16), "start", 0, ()),
    "LayerOverride.end": (lambda v: LayerOverride(0, v, 1, 16), "end", 1, ()),
    "LayerOverride.tokens_multiplier": (lambda v: LayerOverride(0, 1, v, 16), "tokens_multiplier", 1, ()),
    "LayerOverride.bits": (lambda v: LayerOverride(0, 1, 8, v), "bits", 2, ()),
    "pyramid_allocation.layers": (lambda v: pyramid_allocation(v, 10, 0.5), "layers", 1, ()),
    "pyramid_allocation.total_tokens": (lambda v: pyramid_allocation(1, v, 0.5, min_tokens=0), "total_tokens", 0, ()),
    "pyramid_allocation.min_tokens": (lambda v: pyramid_allocation(2, 10, 0.5, min_tokens=v), "min_tokens", 0, ()),
    "top_k_indices.k": (lambda v: top_k_indices([1.0, 3.0, 2.0], v), "k", 0, (1.5,)),
    "_keep.budget": (lambda v: score_streaming(10, v, STREAM2), "budget", 2, (5.5,)),
    "gen_recall_task.seq_len": (lambda v: gen_recall_task(v, 0, [], 0, VOCAB), "seq_len", 1, ()),
    "gen_recall_task.seed": (lambda v: gen_recall_task(16, 1, [0.5], v, VOCAB), "seed", 0, ()),
    "gen_recall_task.num_pairs": (lambda v: gen_recall_task(16, v, [], 0, VOCAB), "num_pairs", 0, (1.0,)),
    "gen_probe_prompt.seq_len": (lambda v: gen_probe_prompt(v, 8, 0), "seq_len", 1, ()),
    "gen_probe_prompt.seed": (lambda v: gen_probe_prompt(8, 8, v), "seed", 0, ()),
    "gen_probe_prompt.vocab_size": (lambda v: gen_probe_prompt(8, v, 0), "vocab_size", 1, (5.5,)),
    "prefill.window": (lambda v: prefill(TINY_MODEL, [1, 2], v), "window", 0, ()),
    "embed_token.position": (lambda v: embed_token(TINY_MODEL, 1, v), "position", 0, ()),
    "run_sweep.parallel": (lambda v: run_sweep(TINY_SWEEP, parallel=v), "parallel", 1, ()),
    "score_streaming.n": (lambda v: score_streaming(v, 2, STREAM2), "n", 1, (40.5,)),
    "decide.n": (lambda v: decide(STREAM2, None, v, 2), "n", 1, (40.5,)),
    "ScoreContext.seq_len": (lambda v: ScoreContext(np.ones(1), np.ones((1, 1), dtype=np.float32), v), "seq_len", 1,
                             (4.0,)),
    # indices: 1 is past the one layer and the one head
    "CompressedKVCache.decode_append.layer": (lambda v: tiny_cache().decode_append(v, ROW, ROW), "layer", 0, (1,)),
    "CompressedKVCache.materialize.head": (lambda v: tiny_cache().materialize(0, v), "head", 0, (1,)),
    "CompressedKVCache.materialize_layer.layer": (lambda v: tiny_cache().materialize_layer(v), "layer", 0, (1,)),
    # on 2 layers: -1 and True are not layer 1 (test_check_residual_takes_each_layer)
    "CompressedKVCache.check_residual.layer": (lambda v: two_layer_cache().check_residual(v), "layer", 0,
                                               (2, -3, "x", None)),
    "DenseKV.materialize.layer": (lambda v: dense().materialize(v, 0), "layer", 0, (1,)),
    "DenseKV.decode_append.layer": (lambda v: dense().decode_append(v, ROW, ROW), "layer", 0, (1,)),
    "DenseKV.materialize_layer.layer": (lambda v: dense().materialize_layer(v), "layer", 0, (1,)),
}

# stored data: a block raises IntegrityError; four 2-bit codes pack into 1 byte, four 1-code groups into 4
STORED_SETTINGS = {
    "QuantizedTensor.bits": (lambda v: block(bits=v, nbytes=1), "bits", 2, (4.0,)),
    "QuantizedTensor.group_size": (lambda v: block(group_size=v, groups=4, nbytes=4), "group_size", 1, (4.0,)),
}

SWEEP_SETTINGS = {
    "seq_lens": (sweep_axis("seq_lens"), "seq_lens", 4, (64.0,)),
    "seeds": (sweep_axis("seeds"), "seeds", 0, (0.5,)),
    "bits": (sweep_axis("bits"), "bits", 2, (4.0,)),
    "token_multipliers": (sweep_axis("token_multipliers"), "token_multipliers", 1, ()),
    "group_sizes": (sweep_axis("group_sizes"), "group_sizes", 1, (16.5,)),
    "base_tokens": (sweep_value("base_tokens"), "base_tokens", 1, (32.5,)),
    "full_cache_tokens": (sweep_value("full_cache_tokens"), "full_cache_tokens", 1, ()),
    "probe_steps": (sweep_value("probe_steps"), "probe_steps", 1, ()),
}


def check_setting(build, name, minimum, extra, error):
    for bad in (2.5, True, float(minimum), minimum - 1, *extra):
        with pytest.raises(error, match=rf"\b{name} must be"):
            build(bad)
    build(np.int64(minimum))


@pytest.mark.parametrize("build, name, minimum, extra", SETTINGS.values(), ids=SETTINGS)
def test_integer_setting_follows_the_one_rule(build, name, minimum, extra):
    check_setting(build, name, minimum, extra, ContractViolation)


@pytest.mark.parametrize("build, name, minimum, extra", STORED_SETTINGS.values(), ids=STORED_SETTINGS)
def test_stored_integer_follows_the_one_rule(build, name, minimum, extra):
    check_setting(build, name, minimum, extra, IntegrityError)


@pytest.mark.parametrize("build, name, minimum, extra", SWEEP_SETTINGS.values(), ids=SWEEP_SETTINGS)
def test_sweep_config_integer_axis_follows_the_one_rule(build, name, minimum, extra):
    check_setting(build, name, minimum, extra, ConfigError)


@pytest.mark.parametrize("value", [np.int64(3), np.uint8(3), 3])
def test_require_int_returns_a_python_int(value):
    got = require_int("x", value, 3)
    assert got == 3 and type(got) is int


def test_require_int_names_the_setting_and_the_value():
    with pytest.raises(ContractViolation, match=r"^x must be an integer >= 1, got '2'$"):
        require_int("x", "2", 1)


def test_check_residual_takes_each_layer():
    assert [two_layer_cache().check_residual(layer) for layer in (0, 1, np.int64(1))] == [0, 1, 1]


def test_valid_statistics_are_kept_uncopied():
    sums, probs = np.ones(1), np.ones((1, 1), dtype=np.float32)
    ctx = ScoreContext(sums, probs, 1)
    assert ctx.column_sums is sums and ctx.window_probs is probs
    assert top_k_indices(np.array([1.0, 3.0, 2.0]), 2) == [1, 2]
