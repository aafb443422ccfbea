"""The cache's lifecycle as one drawn state machine, checked against its own record of every row.

The machine draws a cache: layers, heads, head width, a bit width per layer,
layout, group size, outlier threshold and eviction policy. It prefill-compresses
drawn K/V and records, per layer, the kept prompt positions and every row it
stored, at full precision, in position order. Its rules append rows, try
malformed ones, clone the cache and go on with the mutated clone, round-trip
a snapshot and decode a step. After every rule the invariants compare the
cache with the record through what the cache shows its callers (kept
positions, ``materialize_layer``, the residual's row count, accounted bytes
and snapshot bytes), never through its blocks, so a change of how the cache
stores its rows that keeps its behaviour passes unchanged.
"""

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from kvtrade.budget import BudgetPlan, fp16_kv_bytes
from kvtrade.cache import dump_snapshot, load_snapshot, prefill_compress
from kvtrade.errors import ContractViolation
from kvtrade.model import ModelConfig, decode_step, embed_token, random_model
from kvtrade.prune import PolicyConfig, PolicyKind, decide
from kvtrade.quant import Layout, QuantConfig, dequantize_matrix, quantize_matrix
from oracles import context_from_probs, error_bound_matrix, per_head_decode

VOCAB = 8
NUMBERS = "append rows must hold numbers"
THRESHOLD = 2.5  # drawn values have a standard deviation of 2, so some pass it


def draw_values(data, shape) -> np.ndarray:
    """Float32 values of ``shape``; rounded ones make constant groups (-0.0 among them) and ties."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    values = rng.normal(scale=2.0, size=shape)
    return (np.round(values) if data.draw(st.booleans(), label="rounded") else values).astype(np.float32)


def causal_probs(rng, n) -> np.ndarray:
    """A random causal attention matrix, each row summing to 1."""
    p = np.tril(rng.random((n, n)) + 0.01)
    return (p / p.sum(axis=1, keepdims=True)).astype(np.float32)


def accounted_bytes(rows: np.ndarray, cfg: QuantConfig) -> int:
    """README's byte rule for one block quantizing ``rows``: each group's codes packed to whole
    bytes plus 2 bytes of metadata, and 6 bytes per outlier. A run (a row per token, a column
    per channel) holds its non-outlier values in groups of ``group_size``, the last one shorter."""
    outlier = np.zeros(rows.shape, bool) if cfg.outlier_threshold is None else np.abs(rows) > cfg.outlier_threshold
    grouped = ~outlier if cfg.layout == Layout.PER_TOKEN else ~outlier.T
    total = 6 * int(outlier.sum())
    for codes in grouped.sum(axis=1).tolist():
        for start in range(0, codes, cfg.group_size):
            total += -(-min(cfg.group_size, codes - start) * cfg.bits // 8) + 2
    return total


class CacheLifecycle(RuleBasedStateMachine):
    @initialize(data=st.data())
    def build(self, data):
        draw = data.draw
        self.layers, self.heads = draw(st.integers(1, 2), label="layers"), draw(st.integers(1, 3), label="heads")
        self.head_dim = draw(st.integers(1, 16), label="head_dim")
        n, window = draw(st.integers(1, 12), label="n"), draw(st.integers(1, 4), label="window")
        per_layer = tuple((draw(st.integers(window, 16)), draw(st.sampled_from([2, 4, 8, 16])))
                          for _ in range(self.layers))
        self.plan = BudgetPlan(per_layer, draw(st.integers(1, 8), label="group_size"),
                               draw(st.sampled_from(list(Layout))), 1, draw(st.sampled_from([None, THRESHOLD])))
        policy = PolicyConfig(draw(st.sampled_from([PolicyKind.STREAMING_LLM, PolicyKind.H2O])), recent_window=window)
        shape = (self.layers, self.heads, n, self.head_dim)
        keys, values = draw_values(data, shape), draw_values(data, shape)
        rng = np.random.default_rng(draw(st.integers(0, 2**16), label="attention seed"))
        ctxs = [[None if policy.kind == PolicyKind.STREAMING_LLM else context_from_probs(causal_probs(rng, n), n)
                 for _ in range(self.heads)] for _ in range(self.layers)]
        self.cache = prefill_compress(list(keys), list(values), ctxs, self.plan, policy)
        # the record: each layer's kept prompt positions and its K and V rows, (heads, rows, head_dim)
        self.kept = [np.array([decide(policy, c, n, tokens).retained for c in row])
                     for row, (tokens, _) in zip(ctxs, per_layer)]
        gather = np.arange(self.heads)[:, None]
        self.k = [keys[layer][gather, kept] for layer, kept in enumerate(self.kept)]
        self.v = [values[layer][gather, kept] for layer, kept in enumerate(self.kept)]
        self.model = random_model(ModelConfig(self.layers, self.heads, self.heads * self.head_dim, VOCAB, 16,
                                              draw(st.integers(0, 2**16), label="model seed")))

    def record(self, layer, k, v):
        rows = [np.asarray(r, dtype=np.float32).reshape(self.heads, 1, self.head_dim) for r in (k, v)]
        self.k[layer] = np.concatenate((self.k[layer], rows[0]), axis=1)
        self.v[layer] = np.concatenate((self.v[layer], rows[1]), axis=1)

    def blocks(self, layer):
        """The record's row ranges that a quantized layer holds in blocks: its kept prompt rows, then each
        group of ``group_size`` decode rows; the residual holds the rest, and a 16-bit layer all of them."""
        kept, rows = self.kept[layer].shape[1], self.k[layer].shape[1]
        if self.plan.quant_config(layer) is None:
            return [], 0
        g = self.plan.group_size
        full = kept + (rows - kept) // g * g
        return [(0, kept)] + [(start, start + g) for start in range(kept, full, g)], full

    def draw_layer(self, data):
        return data.draw(st.integers(0, self.layers - 1), label="layer")

    @rule(data=st.data())
    def append(self, data):
        layer = self.draw_layer(data)
        k, v = draw_values(data, (2, self.heads * self.head_dim))
        one_row = data.draw(st.booleans(), label="as a one-row matrix")
        read = self.cache.materialize_layer(layer)
        held = [m.tobytes() for m in read]
        self.cache.decode_append(layer, *((k[None], v[None]) if one_row else (k, v)))
        self.record(layer, k, v)
        assert [m.tobytes() for m in read] == held  # stacks read before an append keep their rows

    @rule(data=st.data())
    def append_malformed(self, data):
        width = self.heads * self.head_dim
        ok, bad = np.ones(width), np.ones(width)
        bad[data.draw(st.integers(0, width - 1), label="at")] = data.draw(st.sampled_from([np.nan, np.inf, 1e300]))
        layer, (row, match) = self.draw_layer(data), data.draw(st.sampled_from([
            # a row's count of values, but not shaped as one row; then other counts
            (np.ones((1, 1, width)), "shaped"), (np.ones((width, 1) if width > 1 else ()), "shaped"),
            (np.ones(width + 1), "shaped"), (np.ones((2, width)), "shaped"),
            (bad, "finite"), (-bad, "finite"), (bad.tolist(), "finite"),
            (["a"] * width, NUMBERS), (np.array(["1.0"] * width), NUMBERS), ([1, [2]] + [3] * (width - 2), NUMBERS),
            (None, "outside"),
        ]))
        if row is None:  # a layer index outside the cache: a row past it, -1, a float, a bool
            layer, row = data.draw(st.sampled_from([self.layers, -1, 0.0, True])), ok
        rows = (row, ok) if data.draw(st.booleans(), label="on K") else (ok, row)
        before = dump_snapshot(self.cache)
        with pytest.raises(ContractViolation, match=match):
            self.cache.decode_append(layer, *rows)
        assert dump_snapshot(self.cache) == before

    @rule(data=st.data())
    def clone_and_mutate_the_clone(self, data):
        before = dump_snapshot(self.cache)
        clone = self.cache.clone()
        for _ in range(data.draw(st.integers(1, self.plan.group_size + 1), label="appends")):
            layer = self.draw_layer(data)
            k, v = draw_values(data, (2, self.heads * self.head_dim))
            clone.decode_append(layer, k, v)
            self.record(layer, k, v)
        assert dump_snapshot(self.cache) == before
        self.cache = clone  # the record now holds the clone's rows

    @rule(wrap=st.sampled_from([bytes, bytearray, memoryview]))
    def snapshot_round_trip(self, wrap):
        loaded = load_snapshot(wrap(dump_snapshot(self.cache)))
        assert loaded.plan == self.cache.plan and loaded.prefill_len == self.cache.prefill_len
        self.cache = loaded

    @rule(token=st.integers(0, VOCAB - 1))
    def decode(self, token):
        # the oracle decodes over a clone and records the rows it appends
        reference, appended = self.cache.clone(), []
        append = reference.decode_append
        reference.decode_append = lambda layer, k, v: (appended.append((k, v)), append(layer, k, v))
        h = embed_token(self.model, token)
        want = per_head_decode(self.model, reference, h)
        assert decode_step(self.model, self.cache, h).tobytes() == want.tobytes()
        for layer, (k, v) in enumerate(appended):
            self.record(layer, k, v)

    @invariant()
    def rows_match_the_record(self):
        for layer in range(self.layers):
            assert np.array_equal(self.cache.positions[layer], self.kept[layer])
            blocks, full = self.blocks(layer)
            cfgs = self.plan.quant_config(layer) or (None, None)
            rest = self.k[layer].shape[1] - full
            residual = (self.heads, rest, self.head_dim)
            assert self.cache.residual_k[layer].shape == self.cache.residual_v[layer].shape == residual
            got = self.cache.materialize_layer(layer)
            for head in range(self.heads):
                assert all(a.tobytes() == b[head].tobytes() for a, b in zip(self.cache.materialize(layer, head), got))
            accounted = fp16_kv_bytes(rest, self.heads, self.head_dim)
            for side, (rows, cfg) in enumerate(zip((self.k[layer], self.v[layer]), cfgs)):
                assert got[side].shape == rows.shape
                assert got[side][:, full:].tobytes() == rows[:, full:].tobytes()  # the residual, exactly
                for head in range(self.heads):
                    for start, end in blocks:
                        block = rows[head, start:end]
                        q = quantize_matrix(block, cfg)
                        stored = got[side][head, start:end]
                        assert stored.tobytes() == dequantize_matrix(q).tobytes()
                        assert (np.abs(stored - block) <= error_bound_matrix(q) + 1e-6 * (1 + np.abs(block))).all()
                        accounted += accounted_bytes(block, cfg)
            assert self.cache.measured_bytes_per_layer()[layer] == accounted

    @invariant()
    def writing_a_layer_s_result_changes_nothing(self):
        # every read is read-only: a 16-bit layer's stored stacks, uncopied, and a quantized
        # layer's joined stacks (materialize_layer)
        for layer in range(self.layers):
            before = [m.tobytes() for m in self.cache.materialize_layer(layer)]
            for m in self.cache.materialize_layer(layer):
                with pytest.raises(ValueError, match="read-only"):
                    m[...] = 7.0
            assert [m.tobytes() for m in self.cache.materialize_layer(layer)] == before

    @invariant()
    def snapshot_redumps_to_its_bytes(self):
        blob = dump_snapshot(self.cache)
        assert dump_snapshot(load_snapshot(blob)) == blob


TestCacheLifecycle = CacheLifecycle.TestCase
TestCacheLifecycle.settings = settings(max_examples=50, stateful_step_count=20, deadline=None)
