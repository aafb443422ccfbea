"""One contract for the public API, generated rather than listed case by case.

``BASELINES`` holds a valid call of every public callable of ``kvtrade`` (exception classes and
enums aside), of the cache's public methods and of the entry points the sweep calls with
arguments it builds. Each argument in turn, and the first item of a list or tuple argument one
and two levels down, is swapped for each value of ``MALFORMED`` and each ``PACKAGE_OBJECTS``
object of another type, and at some slots each ``EXTRA`` value, which must be rejected. A call
must succeed or raise the callable's error (``RAISES``, else ContractViolation; a ``str`` path may
also meet the OS's OSError) naming the argument (or a word ``SAID`` lists), and a rejected call
must leave every argument as it was: a cache's snapshot bytes, an array's bytes, every field of a
dataclass. The rule is :func:`kvtrade.errors.require_type`.
"""

import dataclasses
import enum
import inspect
import math

import numpy as np
import pytest

import kvtrade as kv
from kvtrade.model import DenseKV, RecallVocab, embed_token, prefill_kv0
from kvtrade.prune import decide
from kvtrade.sweep import ConfigError, SweepRow

# IntegrityError for stored data; parse_config's text of the wrong kind is ContractViolation, bad text ConfigError
RAISES = {"QuantizedTensor": kv.IntegrityError, "load_snapshot": kv.IntegrityError, "SweepConfig": ConfigError,
          "parse_config": (kv.ContractViolation, ConfigError)}

MODEL = kv.random_model(kv.ModelConfig(1, 1, 4, 8, 16))
PREFILL = kv.prefill(MODEL, [1, 2, 3], 3)
CTX = kv.ScoreContext(PREFILL.column_sums[0][0], PREFILL.attn[0][0], 3)
ROW = np.ones(4)
H2O, SNAP, STREAM = (kv.PolicyConfig(kind, recent_window=1) for kind in
                     (kv.PolicyKind.H2O, kv.PolicyKind.SNAPKV, kv.PolicyKind.STREAMING_LLM))
QCFG = kv.QuantConfig(4, 4)
SWEEP = dict(task="random_probe", model="random", seq_lens=(8,), policies=("streaming_llm",), bits=(16,),
             token_multipliers=(1,), base_tokens=4, full_cache_tokens=8, probe_steps=1, layers=1, heads=1,
             d_model=4, vocab=8, context_limit=16, recent_window=2)
# a one-pair recall sweep, so that the task reads its needle depths
RECALL = dict(num_pairs=1, seq_lens=(8,), needle_depths=(0.5,), policies=("streaming_llm",), bits=(16,),
              token_multipliers=(1,), paired_budget=False, base_tokens=4, full_cache_tokens=8, recent_window=2)
TEXT = "task = random_probe\nmodel = random\nseq_lens = 8\nbits = 16\ntoken_multipliers = 1\nrecent_window = 2\n"


def plan(bits=4):
    return kv.plan_for_tokens([2], bits, heads=1, head_dim=4, group_size=4)


def cache():
    """A fresh 1-layer, 1-head 4-bit cache of the prompt, h2o-pruned to 2 rows."""
    return kv.prefill_compress(PREFILL.keys, PREFILL.values, [[CTX]], plan(), H2O)


def block():
    return kv.quantize_matrix(np.arange(8, dtype=np.float32).reshape(2, 4), QCFG)


def row():
    return SweepRow("snapkv", 4, 1, 4, 64, "per_token", "none", 0, 8, 1.0, 0.0, 10, 0.5, 0.6)


def weights_file():
    kv.save_weights(MODEL, "model.bin")
    return "model.bin"


CACHE_METHODS = {"entry": dict(layer=0, head=0), "clone": {}, "decode_append": dict(layer=0, h_k=ROW, h_v=ROW),
                 "check_residual": dict(layer=0), "materialize": dict(layer=0, head=0),
                 "materialize_layer": dict(layer=0), "measured_bytes_per_layer": {}, "measured_bytes": {},
                 "payload_bytes": {}}

# one valid call per callable: (callable, its every argument by name, built fresh for each call)
BASELINES = {
    "BudgetPlan": (kv.BudgetPlan, lambda: dict(per_layer=((4, 4),), group_size=4, layout=kv.Layout.PER_TOKEN,
                                               total_budget_bytes=0, outlier_threshold=None)),
    "LayerOverride": (kv.LayerOverride, lambda: dict(start=0, end=1, tokens_multiplier=2, bits=8)),
    "apply_overrides": (kv.apply_overrides, lambda: dict(plan=plan(16), overrides=[kv.LayerOverride(0, 1, 2, 8)])),
    "plan_bytes": (kv.plan_bytes, lambda: dict(plan=plan(), heads=1, head_dim=4)),
    "plan_for_tokens": (kv.plan_for_tokens, lambda: dict(tokens_per_layer=[4], bits=4, heads=1, head_dim=4,
                                                         group_size=4, layout=kv.Layout.PER_TOKEN,
                                                         outlier_threshold=None)),
    "pyramid_allocation": (kv.pyramid_allocation, lambda: dict(layers=2, total_tokens=10, min_fraction=0.5,
                                                               min_tokens=1)),
    "dump_snapshot": (kv.dump_snapshot, lambda: dict(cache=cache())),
    "load_snapshot": (kv.load_snapshot, lambda: dict(data=kv.dump_snapshot(cache()))),
    "prefill_compress": (kv.prefill_compress, lambda: dict(keys=list(PREFILL.keys), values=list(PREFILL.values),
                                                           ctxs=[[CTX]], plan=plan(), policy=H2O)),
    "Model": (kv.Model, lambda: dict(config=MODEL.config, weights=MODEL.weights)),
    "ModelConfig": (kv.ModelConfig, lambda: dict(layers=1, heads=1, d_model=4, vocab=8, context_limit=16, seed=0,
                                                 use_positions=False)),
    "Weights": (kv.Weights, lambda: dict(embedding=MODEL.weights.embedding, layers=MODEL.weights.layers,
                                         head=MODEL.weights.head)),
    "build_recall_model": (kv.build_recall_model, lambda: dict(num_pairs=2, seq_len=8, filler_vocab=4)),
    "decode_step": (kv.decode_step, lambda: dict(model=MODEL, cache=cache(), h=ROW)),
    "decode_step_dense": (kv.decode_step_dense, lambda: dict(model=MODEL, kv=DenseKV.from_prefill(PREFILL), h=ROW)),
    "load_weights": (kv.load_weights, lambda: dict(path=weights_file())),
    "prefill": (kv.prefill, lambda: dict(model=MODEL, tokens=[1, 2, 3], window=1)),
    "random_model": (kv.random_model, lambda: dict(cfg=MODEL.config)),
    "save_weights": (kv.save_weights, lambda: dict(model=MODEL, path="saved.bin")),
    "PolicyConfig": (kv.PolicyConfig, lambda: dict(kind=kv.PolicyKind.SNAPKV, recent_window=2, pool_width=3)),
    "PruneDecision": (kv.PruneDecision, lambda: dict(retained=(0, 2))),
    "ScoreContext": (kv.ScoreContext, lambda: dict(column_sums=CTX.column_sums, window_probs=CTX.window_probs,
                                                   seq_len=3)),
    "score_h2o": (kv.score_h2o, lambda: dict(ctx=CTX, budget=2, cfg=H2O)),
    "score_snapkv": (kv.score_snapkv, lambda: dict(ctx=CTX, budget=2, cfg=SNAP)),
    "score_streaming": (kv.score_streaming, lambda: dict(n=3, budget=2, cfg=STREAM)),
    "top_k_indices": (kv.top_k_indices, lambda: dict(scores=[1.0, 3.0, 2.0], k=2)),
    "QuantConfig": (kv.QuantConfig, lambda: dict(bits=4, group_size=4, layout=kv.Layout.PER_TOKEN,
                                                 outlier_threshold=6.0)),
    # 8 code bytes: as many as a float64 array of one item or an object array holds
    "QuantizedTensor": (kv.QuantizedTensor, lambda: dict(shape=(1, 16), bits=4, group_size=16,
                                                         layout=kv.Layout.PER_TOKEN, zero_points=[0.0], scales=[1.0],
                                                         packed_codes=bytes(8), outliers=[])),
    "dequantize_matrix": (kv.dequantize_matrix, lambda: dict(q=block())),
    "quantize_matrix": (kv.quantize_matrix, lambda: dict(m=np.ones((2, 4)), cfg=QCFG)),
    "quantized_bytes": (kv.quantized_bytes, lambda: dict(q=block())),
    "SweepConfig": (kv.SweepConfig, lambda: dataclasses.asdict(kv.SweepConfig(**RECALL))),
    "emit_csv": (kv.emit_csv, lambda: dict(rows=[row()], path="out.csv")),
    "parse_config": (kv.parse_config, lambda: dict(text=TEXT)),
    "run_sweep": (kv.run_sweep, lambda: dict(cfg=kv.SweepConfig(**SWEEP), parallel=1)),
    "gen_recall_task": (kv.gen_recall_task, lambda: dict(seq_len=16, num_pairs=1, needle_depths=[0.5], seed=0,
                                                         vocab=RecallVocab(4, 8))),
    **{f"CompressedKVCache.{name}": (getattr(kv.CompressedKVCache, name), lambda args=args: dict(self=cache(), **args))
       for name, args in CACHE_METHODS.items()},
    "DenseKV.from_prefill": (DenseKV.from_prefill, lambda: dict(result=PREFILL)),
    "prefill_kv0": (prefill_kv0, lambda: dict(model=MODEL, tokens=[1, 2, 3])),
    "embed_token": (embed_token, lambda: dict(model=MODEL, token=1, position=0)),
    "decide": (decide, lambda: dict(policy=H2O, ctx=CTX, n=3, budget=2)),
}

# the words a callable's messages use for an argument, beside its name
SAID = {
    "BudgetPlan.per_layer": ("layer",), "plan_for_tokens.tokens_per_layer": ("tokens", "layer"),
    "prefill_compress.keys": ("K/V",), "prefill_compress.values": ("K/V",), "prefill_compress.ctxs": ("ctx",),
    "load_snapshot.data": ("snapshot",), "decode_step.cache": ("store",), "decode_step_dense.kv": ("store",),
    "prefill.tokens": ("token", "prompt"),
    "prefill_kv0.tokens": ("token", "prompt"), "embed_token.token": ("token",), "decide.ctx": ("ScoreContext",),
    "ScoreContext.column_sums": ("column sums",), "ScoreContext.window_probs": ("window rows",),
    "QuantizedTensor.zero_points": ("zero", "group"), "QuantizedTensor.scales": ("scale", "group"),
    "QuantizedTensor.packed_codes": ("packed",), "QuantizedTensor.outliers": ("outlier",),
    **{f"SweepConfig.{axis}": ("grid",) for axis in ("seq_lens", "seeds", "policies", "bits", "token_multipliers",
                                                       "group_sizes", "layouts", "overrides")},
    "parse_config.text": ("line",), "gen_recall_task.needle_depths": ("depth",),
    "CompressedKVCache.decode_append.h_k": ("append rows",), "CompressedKVCache.decode_append.h_v": ("append rows",),
}

MALFORMED = {
    "None": lambda: None, "str": lambda: "x", "bytes": lambda: b"x", "float": lambda: 2.5, "bool": lambda: True,
    "negative": lambda: -1, "nan": lambda: math.nan, "inf": lambda: math.inf, "complex": lambda: complex(0.5, 0),
    "ragged": lambda: [1, [2]], "object": object, "dict": dict, "empty_tuple": tuple,
    "empty_array": lambda: np.empty(0), "4-D_array": lambda: np.zeros((1, 1, 1, 1)),
    "str_array": lambda: np.array(["a"]), "numpy_bool": lambda: np.True_,
}

# values a slot must reject that pass the catalogue's first checks there: full-width rows that
# hold no numbers, a snapshot's magic in a list of ints or a str, integers that are not bools,
# buffers of items wider than a byte, and iterables that are not lists or tuples
EXTRA = {
    **{f"{name}.h": {"numeric_strings": lambda: np.array(["1.0"] * 4), "letters": lambda: np.array(["a"] * 4),
                     "list_of_letters": lambda: ["a"] * 4, "objects": lambda: np.ones(4, dtype=object),
                     "wide_ragged": lambda: [1, [2], 3, 4], "ragged_rows": lambda: [[1, 2], [3, 4, 5]]}
       for name in ("decode_step", "decode_step_dense")},
    "load_snapshot.data": {"list_of_ints": lambda: list(b"KVSN" * 16), "magic_str": lambda: "KVSN" + "x" * 64},
    **{f"SweepConfig.{key}": {"zero": lambda: 0, "numpy_int": lambda: np.int64(1)}
       for key in ("paired_budget", "question_in_prompt")},
    "QuantizedTensor.packed_codes": {"object_array": lambda: np.array([None], dtype=object),
                                     "float64_array": lambda: np.array([1.5]),
                                     "float64_memoryview": lambda: memoryview(np.array([1.5]))},
    "plan_for_tokens.tokens_per_layer": {"dict": lambda: {4: 1}, "str": lambda: "4"},
    "gen_recall_task.needle_depths": {"dict": lambda: {0.5: 1}, "str": lambda: "5"},
}

# one object of each package type, fresh for each call
PACKAGE_OBJECTS = {
    "ModelConfig": lambda: MODEL.config, "Model": lambda: MODEL, "Weights": lambda: MODEL.weights,
    "PrefillResult": lambda: PREFILL, "BudgetPlan": plan,
    "LayerOverride": lambda: kv.LayerOverride(0, 1, 2, 8), "PolicyConfig": lambda: H2O,
    "PolicyKind": lambda: kv.PolicyKind.H2O, "ScoreContext": lambda: CTX,
    "PruneDecision": lambda: kv.PruneDecision((0, 1)), "QuantConfig": lambda: QCFG,
    "Layout": lambda: kv.Layout.PER_TOKEN, "QuantizedTensor": block, "CompressedKVCache": cache,
    "RecallVocab": lambda: RecallVocab(4, 8), "SweepConfig": lambda: kv.SweepConfig(**SWEEP), "SweepRow": row,
}


def fingerprint(x):
    """What a call could change of ``x``, as a comparable value."""
    if isinstance(x, kv.CompressedKVCache):
        return "cache", kv.dump_snapshot(x)
    if isinstance(x, np.ndarray):
        return "array", x.dtype.str, x.shape, x.tobytes()
    if isinstance(x, (list, tuple)):
        return type(x), tuple(map(fingerprint, x))
    if isinstance(x, dict):
        return "dict", tuple((k, fingerprint(v)) for k, v in x.items())
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        return type(x), tuple(fingerprint(getattr(x, f.name)) for f in dataclasses.fields(x))
    return repr(x)


def swaps(value, depth=2):
    """``(where, build, item)`` for each place a malformed value can take in an argument: the
    argument itself and, for a list or tuple, its first item, ``depth`` levels down.
    ``build(v)`` is the argument with ``v`` in place of ``item``; ``where`` names the place."""
    yield "", lambda v: v, value
    if depth and isinstance(value, (list, tuple)) and value:
        for where, build, inner in swaps(value[0], depth - 1):
            yield f"[0]{where}", (lambda v, b=build: type(value)([b(v), *value[1:]])), inner


def values_for(item):
    """The malformed values, and the package objects not of ``item``'s type, by name."""
    yield from MALFORMED.items()
    for name, make in PACKAGE_OBJECTS.items():
        obj = make()
        if not (isinstance(obj, type(item)) or isinstance(item, type(obj))):
            yield name, make


CASES = [pytest.param(name, arg, id=f"{name}.{arg}") for name, (fn, _) in BASELINES.items()
         for arg in inspect.signature(fn).parameters if arg != "self"]


@pytest.fixture(autouse=True)
def in_tmp_path(tmp_path, monkeypatch):
    """Paths the calls write land in the test's own directory."""
    monkeypatch.chdir(tmp_path)


@pytest.mark.parametrize("name, arg", CASES)
def test_malformed_argument_raises_the_package_error(name, arg):
    fn, make_args = BASELINES[name]
    fn(**make_args())
    said = (arg, *SAID.get(f"{name}.{arg}", ()))
    raises = RAISES.get(name, kv.ContractViolation)
    escapes = []
    for where, build, item in swaps(make_args()[arg]):
        extra = {} if where else EXTRA.get(f"{name}.{arg}", {})
        for label, make in [*values_for(item), *extra.items()]:
            kwargs = make_args()
            kwargs[arg] = build(make())
            before = fingerprint(kwargs)
            try:
                fn(**kwargs)
            except Exception as exc:  # noqa: BLE001 - an escape is what this test reports
                if isinstance(exc, OSError) and arg == "path" and isinstance(kwargs[arg], str):
                    continue
                at = f"{arg}{where}={label}: {type(exc).__name__}: {str(exc)[:200]}"
                if not isinstance(exc, raises):
                    escapes.append(f"{at}: not {name}'s error")
                # an item's message names the item, as the item's own callable would
                elif not where and not any(word in str(exc) for word in said):
                    escapes.append(f"{at}: the message does not name {arg}")
                if fingerprint(kwargs) != before:
                    escapes.append(f"{at}: a rejected call changed an argument")
            else:
                if label in extra:
                    escapes.append(f"{arg}={label}: accepted")
    assert not escapes, "\n".join(escapes)


def test_every_public_callable_and_parameter_has_a_baseline():
    exported = {name for name, obj in vars(kv).items() if not name.startswith("_") and callable(obj)
                and not inspect.ismodule(obj) and not isinstance(obj, enum.EnumMeta)  # an enum's lookup is Python's
                and not (isinstance(obj, type) and issubclass(obj, Exception))}
    assert exported <= {name.split(".")[0] for name in BASELINES}, sorted(exported - set(BASELINES))
    methods = {name for name, obj in vars(kv.CompressedKVCache).items()
               if not name.startswith("_") and inspect.isfunction(obj)}
    assert methods == set(CACHE_METHODS)
    for name, (fn, make_args) in BASELINES.items():
        assert list(make_args()) == list(inspect.signature(fn).parameters), name


def test_other_forms_of_a_kind_are_accepted():
    for shape in ([1, 4], np.array([1, 4])):
        assert kv.QuantizedTensor(shape, 4, 4, kv.Layout.PER_TOKEN, [0.0], [1.0], bytes(2)).shape == (1, 4)
    for codes in (bytearray(2), memoryview(bytes(2)), np.zeros(2, np.uint8)):
        assert kv.QuantizedTensor((1, 4), 4, 4, kv.Layout.PER_TOKEN, [0.0], [1.0], codes).packed_codes == bytes(2)
    snapshot = kv.dump_snapshot(cache())
    for form in (bytearray(snapshot), memoryview(snapshot)):
        assert kv.dump_snapshot(kv.load_snapshot(form)) == snapshot
    kv.SweepConfig(**SWEEP, paired_budget=np.False_, pyramid_min_fraction=np.float32(0.5))
    for number in (6, np.float32(0.5)):
        kv.QuantConfig(4, 8, outlier_threshold=number)
    kv.pyramid_allocation(2, 10, np.float32(0.5))
    kv.gen_recall_task(16, 1, [np.float32(0.5)], 0, RecallVocab(4, 8))

