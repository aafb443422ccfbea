"""Every integer setting follows one rule, ``errors.require_int``.

Each row builds something from one integer setting. The setting must reject
2.5, ``True``, its minimum as a float and the integer below its minimum,
with a message that names it, and take a numpy integer at its minimum.
``SweepConfig`` reports the same rule as a ``ConfigError`` problem, and a
quantized block, which holds stored data, as an ``IntegrityError``. A
layer or head index is a setting whose minimum is 0 that must also be
below the store's count (``errors.require_index``).
"""

import numpy as np
import pytest

from kvtrade.budget import (
    BudgetPlan,
    LayerOverride,
    apply_overrides,
    fp16_kv_bytes,
    plan_bytes,
    plan_for_tokens,
    pyramid_allocation,
)
from kvtrade.cache import dump_snapshot, load_snapshot, prefill_compress
from kvtrade.errors import ContractViolation, IntegrityError, require_int
from kvtrade.model import (
    DenseKV,
    ModelConfig,
    RecallVocab,
    build_recall_model,
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
    decide,
    score_h2o,
    score_snapkv,
    score_streaming,
    top_k_indices,
)
from kvtrade.quant import (
    Layout,
    QuantConfig,
    QuantizedTensor,
    quantize_matrix,
    quantized_bytes,
    quantized_bytes_for_shape,
)
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


def tiny_cache():
    """A fresh 1-layer, 1-head cache of the tiny model's prompt, 4-bit."""
    plan = plan_for_tokens([4], 4, heads=1, head_dim=4, group_size=4)
    return prefill_compress(TINY_PREFILL.keys, TINY_PREFILL.values, [[None]], plan, STREAM2)


K = np.ones((1, 3, 4), dtype=np.float32)  # one layer's K (or V) stack: 1 head, 3 rows


def compress16(keys, values, ctxs):
    """prefill_compress on a one-layer, one-head 16-bit plan."""
    return prefill_compress(keys, values, ctxs, plan_for_tokens([4], 16, heads=1, head_dim=4), STREAM2)


def compress_h2o(ctxs):
    """prefill_compress of the 3 rows of ``K`` to 2 under h2o, so the scorer reads each head's ctx."""
    plan16 = plan_for_tokens([2], 16, heads=1, head_dim=4)
    return prefill_compress([K], [K], ctxs, plan16, PolicyConfig(PolicyKind.H2O, recent_window=2))


def block(bits=4, group_size=4, groups=1, nbytes=2, shape=(1, 4), layout=Layout.PER_TOKEN, codes=None):
    """A block of zero codes in ``groups`` groups packed into ``nbytes`` (or ``codes``), 1 x 4 per-token by default."""
    return QuantizedTensor(shape, bits, group_size, layout, [0.0] * groups, [1.0] * groups,
                           bytes(nbytes) if codes is None else codes)


def model_config(name):
    return lambda v: ModelConfig(**{**MODEL, name: v})


def sweep_axis(name):
    return lambda v: SweepConfig(**{**SWEEP, name: (v,)})


def sweep_value(name):
    return lambda v: SweepConfig(**{**SWEEP, name: v})


def plan(tokens, bits):
    return BudgetPlan(((tokens, bits),), 4, Layout.PER_TOKEN, 0)


def two_layer_plan():
    """A 4-bit and a 16-bit layer: plan_bytes charges both kinds."""
    return BudgetPlan(((4, 4), (4, 16)), 4, Layout.PER_TOKEN, 0)


# (build, the name its messages use, its minimum, further values it rejects)
SETTINGS = [
    *(pytest.param(model_config(name), name, 1, (1.5,), id=f"ModelConfig.{name}")
      for name in ("layers", "heads", "d_model", "vocab", "context_limit")),
    pytest.param(model_config("seed"), "seed", 0, (), id="ModelConfig.seed"),
    pytest.param(lambda v: RecallVocab(v, 8), "num_pairs", 1, (), id="RecallVocab.num_pairs"),
    pytest.param(lambda v: RecallVocab(4, v), "filler_vocab", 1, (), id="RecallVocab.filler_vocab"),
    pytest.param(lambda v: PolicyConfig(PolicyKind.SNAPKV, recent_window=v), "recent_window", 1, (),
                 id="PolicyConfig.recent_window"),
    pytest.param(lambda v: PolicyConfig(PolicyKind.SNAPKV, pool_width=v), "pool_width", 1, (),
                 id="PolicyConfig.pool_width"),
    # 2 is the smallest supported width, and 4.0 in SUPPORTED_BITS holds
    pytest.param(lambda v: QuantConfig(v), "bits", 2, (4.0,), id="QuantConfig.bits"),
    pytest.param(lambda v: QuantConfig(4, v), "group_size", 1, (), id="QuantConfig.group_size"),
    pytest.param(lambda v: plan(v, 16), "tokens", 1, (), id="BudgetPlan.tokens"),
    pytest.param(lambda v: plan(16, v), "bits", 2, (4.0,), id="BudgetPlan.bits"),
    pytest.param(lambda v: plan_for_tokens([v], 4, heads=1, head_dim=4, group_size=4), "tokens", 1,
                 (3.7,), id="plan_for_tokens.tokens"),
    pytest.param(lambda v: plan_for_tokens([4], 4, v, 4), "heads", 1, (), id="plan_for_tokens.heads"),
    pytest.param(lambda v: plan_for_tokens([4], 4, 1, v), "head_dim", 1, (), id="plan_for_tokens.head_dim"),
    pytest.param(lambda v: plan_bytes(two_layer_plan(), v, 4), "heads", 1, (), id="plan_bytes.heads"),
    pytest.param(lambda v: plan_bytes(two_layer_plan(), 1, v), "head_dim", 1, (), id="plan_bytes.head_dim"),
    pytest.param(lambda v: quantized_bytes_for_shape(v, 4, QuantConfig(4, 4)), "rows", 1, (),
                 id="quantized_bytes_for_shape.rows"),
    pytest.param(lambda v: quantized_bytes_for_shape(4, v, QuantConfig(4, 4)), "cols", 1, (),
                 id="quantized_bytes_for_shape.cols"),
    # an empty residual holds 0 rows
    pytest.param(lambda v: fp16_kv_bytes(v, 1, 4), "tokens", 0, (), id="fp16_kv_bytes.tokens"),
    pytest.param(lambda v: fp16_kv_bytes(4, v, 4), "heads", 1, (), id="fp16_kv_bytes.heads"),
    pytest.param(lambda v: fp16_kv_bytes(4, 1, v), "head_dim", 1, (), id="fp16_kv_bytes.head_dim"),
    pytest.param(lambda v: build_recall_model(2, v), "seq_len", 1, (-5,), id="build_recall_model.seq_len"),
    pytest.param(lambda v: LayerOverride(v, 4, 1, 16), "start", 0, (), id="LayerOverride.start"),
    pytest.param(lambda v: LayerOverride(0, v, 1, 16), "end", 1, (), id="LayerOverride.end"),
    pytest.param(lambda v: LayerOverride(0, 1, v, 16), "tokens_multiplier", 1, (),
                 id="LayerOverride.tokens_multiplier"),
    pytest.param(lambda v: LayerOverride(0, 1, 8, v), "bits", 2, (), id="LayerOverride.bits"),
    pytest.param(lambda v: pyramid_allocation(v, 10, 0.5), "layers", 1, (),
                 id="pyramid_allocation.layers"),
    pytest.param(lambda v: pyramid_allocation(1, v, 0.5, min_tokens=0), "total_tokens", 0, (),
                 id="pyramid_allocation.total_tokens"),
    pytest.param(lambda v: pyramid_allocation(2, 10, 0.5, min_tokens=v), "min_tokens", 0, (),
                 id="pyramid_allocation.min_tokens"),
    pytest.param(lambda v: top_k_indices([1.0, 3.0, 2.0], v), "k", 0, (1.5,), id="top_k_indices.k"),
    pytest.param(lambda v: score_streaming(10, v, STREAM2), "budget", 2, (5.5,), id="_keep.budget"),
    pytest.param(lambda v: gen_recall_task(v, 0, [], 0, VOCAB), "seq_len", 1, (),
                 id="gen_recall_task.seq_len"),
    pytest.param(lambda v: gen_recall_task(16, 1, [0.5], v, VOCAB), "seed", 0, (),
                 id="gen_recall_task.seed"),
    pytest.param(lambda v: gen_probe_prompt(v, 8, 0), "seq_len", 1, (), id="gen_probe_prompt.seq_len"),
    pytest.param(lambda v: gen_probe_prompt(8, 8, v), "seed", 0, (), id="gen_probe_prompt.seed"),
    pytest.param(lambda v: prefill(TINY_MODEL, [1, 2], v), "window", 0, (), id="prefill.window"),
    pytest.param(lambda v: embed_token(TINY_MODEL, 1, v), "position", 0, (), id="embed_token.position"),
    pytest.param(lambda v: run_sweep(TINY_SWEEP, parallel=v), "parallel", 1, (), id="run_sweep.parallel"),
    pytest.param(lambda v: score_streaming(v, 2, STREAM2), "n", 1, (40.5,), id="score_streaming.n"),
    pytest.param(lambda v: decide(STREAM2, None, v, 2), "n", 1, (40.5,), id="decide.n"),
    pytest.param(lambda v: ScoreContext(np.ones(1), np.ones((1, 1), dtype=np.float32), v), "seq_len", 1,
                 (4.0,), id="ScoreContext.seq_len"),
    pytest.param(lambda v: gen_recall_task(16, v, [], 0, VOCAB), "num_pairs", 0, (1.0,),
                 id="gen_recall_task.num_pairs"),
    pytest.param(lambda v: gen_probe_prompt(8, v, 0), "vocab_size", 1, (5.5,), id="gen_probe_prompt.vocab_size"),
    # indices: 1 is past the one layer and the one head
    pytest.param(lambda v: tiny_cache().decode_append(v, ROW, ROW), "layer", 0, (1,),
                 id="CompressedKVCache.decode_append.layer"),
    pytest.param(lambda v: tiny_cache().materialize(0, v), "head", 0, (1,), id="CompressedKVCache.materialize.head"),
    pytest.param(lambda v: tiny_cache().materialize_layer(v), "layer", 0, (1,),
                 id="CompressedKVCache.materialize_layer.layer"),
    pytest.param(lambda v: DenseKV.from_prefill(TINY_PREFILL).materialize(v, 0), "layer", 0, (1,),
                 id="DenseKV.materialize.layer"),
    pytest.param(lambda v: DenseKV.from_prefill(TINY_PREFILL).decode_append(v, ROW, ROW), "layer", 0, (1,),
                 id="DenseKV.decode_append.layer"),
    pytest.param(lambda v: DenseKV.from_prefill(TINY_PREFILL).materialize_layer(v), "layer", 0, (1,),
                 id="DenseKV.materialize_layer.layer"),
]

# stored data: a block raises IntegrityError
STORED_SETTINGS = [
    # four 2-bit codes pack into 1 byte; four 1-code groups into 4
    pytest.param(lambda v: block(bits=v, nbytes=1), "bits", 2, (4.0,), id="QuantizedTensor.bits"),
    pytest.param(lambda v: block(group_size=v, groups=4, nbytes=4), "group_size", 1, (4.0,),
                 id="QuantizedTensor.group_size"),
]

SWEEP_SETTINGS = [
    pytest.param(sweep_axis("seq_lens"), "seq_lens", 4, (64.0,), id="seq_lens"),
    pytest.param(sweep_axis("seeds"), "seeds", 0, (0.5,), id="seeds"),
    pytest.param(sweep_axis("bits"), "bits", 2, (4.0,), id="bits"),
    pytest.param(sweep_axis("token_multipliers"), "token_multipliers", 1, (), id="token_multipliers"),
    pytest.param(sweep_axis("group_sizes"), "group_sizes", 1, (16.5,), id="group_sizes"),
    pytest.param(sweep_value("base_tokens"), "base_tokens", 1, (32.5,), id="base_tokens"),
    pytest.param(sweep_value("full_cache_tokens"), "full_cache_tokens", 1, (), id="full_cache_tokens"),
    pytest.param(sweep_value("probe_steps"), "probe_steps", 1, (), id="probe_steps"),
]


def check_setting(build, name, minimum, extra, error):
    for bad in (2.5, True, float(minimum), minimum - 1, *extra):
        with pytest.raises(error, match=rf"\b{name} must be"):
            build(bad)
    build(np.int64(minimum))


@pytest.mark.parametrize("build, name, minimum, extra", SETTINGS)
def test_integer_setting_follows_the_one_rule(build, name, minimum, extra):
    check_setting(build, name, minimum, extra, ContractViolation)


@pytest.mark.parametrize("build, name, minimum, extra", STORED_SETTINGS)
def test_stored_integer_follows_the_one_rule(build, name, minimum, extra):
    check_setting(build, name, minimum, extra, IntegrityError)


@pytest.mark.parametrize("build, name, minimum, extra", SWEEP_SETTINGS)
def test_sweep_config_integer_axis_follows_the_one_rule(build, name, minimum, extra):
    check_setting(build, name, minimum, extra, ConfigError)


@pytest.mark.parametrize("value", [np.int64(3), np.uint8(3), 3])
def test_require_int_returns_a_python_int(value):
    got = require_int("x", value, 3)
    assert got == 3 and type(got) is int


def test_require_int_names_the_setting_and_the_value():
    with pytest.raises(ContractViolation, match=r"^x must be an integer >= 1, got '2'$"):
        require_int("x", "2", 1)


# settings that must be numbers: anything else raises the package's error, not a TypeError
NON_NUMERIC = [
    pytest.param(lambda v: gen_recall_task(16, 1, [v], 0, VOCAB), ContractViolation, "depth must be a number",
                 id="gen_recall_task.depth"),
    pytest.param(lambda v: pyramid_allocation(2, 10, v), ContractViolation, "min_fraction must be a number",
                 id="pyramid_allocation.min_fraction"),
    pytest.param(lambda v: SweepConfig(**SWEEP, pyramid_min_fraction=v), ConfigError,
                 "pyramid_min_fraction must be a number", id="SweepConfig.pyramid_min_fraction"),
    pytest.param(lambda v: SweepConfig(**SWEEP, needle_depths=(v,)), ConfigError, "depth must be a number",
                 id="SweepConfig.needle_depths"),
]


@pytest.mark.parametrize("build, error, message", NON_NUMERIC)
@pytest.mark.parametrize("value", ["a", None, True, complex(0.5, 0)], ids=["str", "None", "bool", "complex"])
def test_non_numeric_setting_raises_the_package_error(build, error, message, value):
    with pytest.raises(error, match=message):
        build(value)
    build(np.float32(0.5))


PROBS = np.ones((1, 1), dtype=np.float32)
CTX1 = ScoreContext(np.ones(1), PROBS, 1)
H2O1 = PolicyConfig(PolicyKind.H2O, recent_window=1)
SNAP1 = PolicyConfig(PolicyKind.SNAPKV, recent_window=1)

# entry points given a value of the wrong kind: the package's error, not
# AttributeError, TypeError or numpy's bare ValueError
MALFORMED = [
    pytest.param(lambda: ScoreContext([1.0], PROBS, 1), "arrays of numbers", id="ScoreContext.column_sums-list"),
    pytest.param(lambda: ScoreContext(np.ones(1), [[1.0]], 1), "arrays of numbers",
                 id="ScoreContext.window_probs-list"),
    pytest.param(lambda: ScoreContext(np.array(["1.0"]), PROBS, 1), "arrays of numbers",
                 id="ScoreContext.column_sums-strings"),
    pytest.param(lambda: ScoreContext(np.ones(1), PROBS.astype(object), 1), "arrays of numbers",
                 id="ScoreContext.window_probs-objects"),
    pytest.param(lambda: top_k_indices(["a"], 1), "scores must be numbers", id="top_k_indices-strings"),
    pytest.param(lambda: top_k_indices([1, [2]], 1), "scores must be numbers", id="top_k_indices-ragged"),
    pytest.param(lambda: top_k_indices(None, 0), "scores must be numbers", id="top_k_indices-None"),
    pytest.param(lambda: gen_recall_task(16, 1, None, 0, VOCAB), "needle_depths must be a sequence",
                 id="gen_recall_task.needle_depths-None"),
    pytest.param(lambda: plan_for_tokens(5, 16, heads=1, head_dim=4), "tokens_per_layer must be a sequence",
                 id="plan_for_tokens.tokens_per_layer-int"),
    pytest.param(lambda: compress16(None, [K], [[None]]), "keys, values and ctxs must each hold 1 layers",
                 id="prefill_compress.keys-None"),
    pytest.param(lambda: compress16([K], None, [[None]]), "keys, values and ctxs must each hold 1 layers",
                 id="prefill_compress.values-None"),
    pytest.param(lambda: compress16([K], [K], None), "keys, values and ctxs must each hold 1 layers",
                 id="prefill_compress.ctxs-None"),
    pytest.param(lambda: compress16([K], [K], [None]), "ctxs must hold 1 heads at layer 0, got None",
                 id="prefill_compress.ctx_row-None"),
    pytest.param(lambda: compress16([K], [K], [3]), "ctxs must hold 1 heads at layer 0, got None",
                 id="prefill_compress.ctx_row-int"),
    pytest.param(lambda: apply_overrides(plan(4, 16), None), "overrides must be a sequence of LayerOverride",
                 id="apply_overrides-None"),
    pytest.param(lambda: apply_overrides(plan(4, 16), "x"), "overrides must be a sequence of LayerOverride",
                 id="apply_overrides-str"),
    pytest.param(lambda: apply_overrides(plan(4, 16), [(0, 1, 2, 8)]), "overrides must be a sequence of LayerOverride",
                 id="apply_overrides-tuple"),
    pytest.param(lambda: quantize_matrix([[1.0, 2.0], [3.0]], QuantConfig(4, 4)), "ragged sequence",
                 id="quantize_matrix-ragged"),
    # a ctx that is not a ScoreContext, under a scorer that would read it and under one that would not
    pytest.param(lambda: compress_h2o([np.zeros((1, 1, 1, 1))]), "ctx must be a ScoreContext or None, got ndarray",
                 id="prefill_compress.h2o-ctx-4-D-array"),
    pytest.param(lambda: compress_h2o([["x"]]), "ctx must be a ScoreContext or None, got str",
                 id="prefill_compress.h2o-ctx-str"),
    pytest.param(lambda: compress_h2o([[object()]]), "ctx must be a ScoreContext or None, got object",
                 id="prefill_compress.h2o-ctx-object"),
    pytest.param(lambda: compress16([K], [K], [[object()]]), "ctx must be a ScoreContext or None, got object",
                 id="prefill_compress.streaming_llm-ctx-object"),
    pytest.param(lambda: decide(STREAM2, [1.0], 3, 2), "ctx must be a ScoreContext or None, got list",
                 id="decide.streaming_llm-ctx-list"),
    # objects of the wrong kind where a config or a context belongs
    pytest.param(lambda: decide(None, CTX1, 1, 1), "policy must be a PolicyConfig, got NoneType",
                 id="decide.policy-None"),
    pytest.param(lambda: decide(PolicyKind.H2O, CTX1, 1, 1), "policy must be a PolicyConfig, got PolicyKind",
                 id="decide.policy-kind"),
    pytest.param(lambda: score_h2o(None, 1, H2O1), "ctx must be a ScoreContext, got NoneType",
                 id="score_h2o.ctx-None"),
    pytest.param(lambda: score_h2o(PROBS, 1, H2O1), "ctx must be a ScoreContext, got ndarray",
                 id="score_h2o.ctx-array"),
    pytest.param(lambda: score_snapkv(None, 1, SNAP1), "ctx must be a ScoreContext, got NoneType",
                 id="score_snapkv.ctx-None"),
    pytest.param(lambda: score_snapkv(PROBS, 1, SNAP1), "ctx must be a ScoreContext, got ndarray",
                 id="score_snapkv.ctx-array"),
    pytest.param(lambda: quantize_matrix([[1.0]], None), "cfg must be a QuantConfig, got NoneType",
                 id="quantize_matrix.cfg-None"),
    pytest.param(lambda: quantize_matrix([[1.0]], 4), "cfg must be a QuantConfig, got int",
                 id="quantize_matrix.cfg-bits"),
    pytest.param(lambda: dump_snapshot(None), "cache must be a CompressedKVCache, got NoneType",
                 id="dump_snapshot-None"),
    pytest.param(lambda: dump_snapshot(dump_snapshot(tiny_cache())), "cache must be a CompressedKVCache, got bytes",
                 id="dump_snapshot-bytes"),
    pytest.param(lambda: quantized_bytes(None), "q must be a QuantizedTensor, got NoneType",
                 id="quantized_bytes-None"),
    pytest.param(lambda: quantized_bytes(np.zeros((1, 4))), "q must be a QuantizedTensor, got ndarray",
                 id="quantized_bytes-array"),
    pytest.param(lambda: decode_step(None, tiny_cache(), ROW), "model must be a Model, got NoneType",
                 id="decode_step.model-None"),
    pytest.param(lambda: decode_step_dense(TINY_MODEL.config, DenseKV.from_prefill(TINY_PREFILL), ROW),
                 "model must be a Model, got ModelConfig", id="decode_step_dense.model-config"),
    pytest.param(lambda: decode_step(TINY_MODEL, None, ROW), "store must be a CompressedKVCache, got NoneType",
                 id="decode_step.store-None"),
    pytest.param(lambda: decode_step_dense(TINY_MODEL, TINY_PREFILL, ROW),
                 "store must be a CompressedKVCache, got PrefillResult", id="decode_step_dense.store-prefill"),
    pytest.param(lambda: prefill_compress([K], [K], [[None]], None, STREAM2), "plan must be a BudgetPlan, got NoneType",
                 id="prefill_compress.plan-None"),
    pytest.param(lambda: prefill_compress([K], [K], [[None]], ((4, 16),), STREAM2),
                 "plan must be a BudgetPlan, got tuple", id="prefill_compress.plan-tuple"),
    pytest.param(lambda: prefill_compress([K], [K], [[None]], plan(4, 16), None),
                 "policy must be a PolicyConfig, got NoneType", id="prefill_compress.policy-None"),
    pytest.param(lambda: prefill_compress([K], [K], [[None]], plan(4, 16), PolicyKind.STREAMING_LLM),
                 "policy must be a PolicyConfig, got PolicyKind", id="prefill_compress.policy-kind"),
]

# stored data: a block's fields of the wrong kind raise IntegrityError, the
# constructor's documented error (a layout outside the enum decoded as per-channel)
MALFORMED_STORED = [
    pytest.param(lambda: block(layout="x"), "layout must be a Layout member, got 'x'", id="QuantizedTensor.layout-x"),
    pytest.param(lambda: block(layout=None), "layout must be a Layout member, got None",
                 id="QuantizedTensor.layout-None"),
    pytest.param(lambda: block(shape=None), "shape must be two integers >= 0, got None",
                 id="QuantizedTensor.shape-None"),
    pytest.param(lambda: block(shape=(1,)), r"shape must be two integers >= 0, got \(1,\)",
                 id="QuantizedTensor.shape-one"),
    pytest.param(lambda: block(shape=(1, 4, 1)), r"shape must be two integers >= 0", id="QuantizedTensor.shape-three"),
    pytest.param(lambda: block(shape=(1.0, 4)), r"shape must be two integers >= 0", id="QuantizedTensor.shape-float"),
    pytest.param(lambda: block(shape=(-1, 4)), r"shape must be two integers >= 0", id="QuantizedTensor.shape-negative"),
    pytest.param(lambda: QuantizedTensor((1, 4), 4, 4, Layout.PER_TOKEN, [0.0], [1.0], None),
                 "packed_codes must be bytes-like, got NoneType",
                 id="QuantizedTensor.packed_codes-None"),
    # bytes(2) would be two zero bytes
    pytest.param(lambda: block(codes=2), "packed_codes must be bytes-like, got int",
                 id="QuantizedTensor.packed_codes-int"),
    pytest.param(lambda: block(codes="ab"), "packed_codes must be bytes-like, got str",
                 id="QuantizedTensor.packed_codes-str"),
]


@pytest.mark.parametrize("call, message", MALFORMED)
def test_malformed_input_raises_the_package_error(call, message):
    with pytest.raises(ContractViolation, match=message):
        call()


@pytest.mark.parametrize("call, message", MALFORMED_STORED)
def test_malformed_stored_data_raises_integrity_error(call, message):
    with pytest.raises(IntegrityError, match=message):
        call()


def test_well_formed_calls_beside_the_malformed_ones_succeed():
    assert compress16([K], [K], [[None]]).shape == (1, 1, 4)
    assert apply_overrides(plan(4, 16), [LayerOverride(0, 1, 2, 8)]).per_layer == ((8, 8),)
    assert quantize_matrix([[1.0, 2.0], [3.0, 4.0]], QuantConfig(4, 4)).shape == (2, 2)
    assert decide(H2O1, CTX1, 1, 1).retained == (0,)
    assert score_h2o(CTX1, 1, H2O1).retained == score_snapkv(CTX1, 1, SNAP1).retained == (0,)
    assert load_snapshot(dump_snapshot(tiny_cache())).shape == (1, 1, 4)
    assert quantized_bytes(block()) == 2 + 2
    assert decode_step(TINY_MODEL, tiny_cache(), ROW).shape == (8,)
    assert decode_step_dense(TINY_MODEL, DenseKV.from_prefill(TINY_PREFILL), ROW).shape == (8,)
    assert prefill_compress([K], [K], [[None]], plan(4, 16), STREAM2).shape == (1, 1, 4)
    for shape in ((1, 4), [1, 4], np.array([1, 4])):
        assert block(shape=shape).shape == (1, 4)
    assert block(layout=Layout.PER_CHANNEL, groups=4, nbytes=4).layout is Layout.PER_CHANNEL
    for codes in (bytes(2), bytearray(2), memoryview(bytes(2)), np.zeros(2, np.uint8)):
        assert block(codes=codes).packed_codes == bytes(2)


@pytest.mark.parametrize("data", [None, "KVSN" + "x" * 64, list(b"KVSN" * 16), 5],
                         ids=["None", "str", "list_of_ints", "int"])
def test_load_snapshot_of_anything_but_bytes_raises_integrity_error(data):
    with pytest.raises(IntegrityError, match="a snapshot must be bytes"):
        load_snapshot(data)
    snapshot = dump_snapshot(tiny_cache())
    for form in (snapshot, bytearray(snapshot), memoryview(snapshot)):
        assert dump_snapshot(load_snapshot(form)) == snapshot


def test_valid_statistics_are_kept_uncopied():
    sums = np.ones(1)
    ctx = ScoreContext(sums, PROBS, 1)
    assert ctx.column_sums is sums and ctx.window_probs is PROBS
    assert top_k_indices(np.array([1.0, 3.0, 2.0]), 2) == [1, 2]


@pytest.mark.parametrize("value", ["no", 0, None, np.int64(1)])
def test_sweep_config_paired_budget_must_be_a_bool(value):
    with pytest.raises(ConfigError, match=r"paired_budget must be True or False, got "):
        SweepConfig(**{**SWEEP, "paired_budget": value})
    assert SweepConfig(**{**SWEEP, "paired_budget": np.bool_(False)}).paired_budget == np.False_


# (decode, a fresh store of the tiny model, the store's stored bytes)
DECODERS = {
    "decode_step": (decode_step, tiny_cache, dump_snapshot),
    "decode_step_dense": (decode_step_dense, lambda: DenseKV.from_prefill(TINY_PREFILL), dump_snapshot),
}


# a decode step's input row must hold numbers: strings, numeric ones too,
# objects and ragged rows raise before the first append
@pytest.mark.parametrize("h", [np.array(["1.0"] * 4), np.array(["a"] * 4), ["a"] * 4, np.ones(4, dtype=object),
                               [1, [2], 3, 4], [[1, 2], [3, 4, 5]]],
                         ids=["numeric_strings", "letters", "list_of_letters", "objects", "ragged", "ragged_rows"])
@pytest.mark.parametrize("decoder", DECODERS.values(), ids=DECODERS)
def test_decode_input_must_hold_numbers(decoder, h):
    decode, make_store, stored = decoder
    store = make_store()
    before = stored(store)
    with pytest.raises(ContractViolation, match="h must hold numbers"):
        decode(TINY_MODEL, store, h)
    assert stored(store) == before
    decode(TINY_MODEL, store, np.ones(4))


# outlier_threshold is a real-valued setting that may also be unset (None)
THRESHOLD_BUILDS = {
    "QuantConfig": lambda v: QuantConfig(4, 8, outlier_threshold=v),
    "plan_for_tokens": lambda v: plan_for_tokens([8], 4, heads=1, head_dim=8, outlier_threshold=v),
}


@pytest.mark.parametrize("value", ["x", True, np.True_, complex(0.5, 0)], ids=["str", "bool", "numpy_bool", "complex"])
@pytest.mark.parametrize("build", THRESHOLD_BUILDS.values(), ids=THRESHOLD_BUILDS)
def test_outlier_threshold_must_be_a_number(build, value):
    with pytest.raises(ContractViolation, match="outlier_threshold must be None or a number >= 0, got "):
        build(value)
    for fine in (None, 6, np.float32(6.0)):
        build(fine)
