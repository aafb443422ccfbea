import hashlib
import struct
import zlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kvtrade.budget import plan_bytes, plan_for_tokens
from kvtrade.cache import dump_snapshot, load_snapshot, prefill_compress
from kvtrade.errors import ContractViolation, IntegrityError
from kvtrade.model import DenseKV, ModelConfig, decode_step, embed_token, prefill, random_model
from kvtrade.prune import PolicyConfig, PolicyKind
from kvtrade.quant import Layout, QuantConfig, dequantize_matrix, quantize_matrix
from oracles import context_from_probs, per_head_decode, reference_dequantize, stored_blocks, uniform_plan


def causal_uniform_attn(n):
    return (np.tril(np.ones((n, n))) / np.arange(1, n + 1)[:, None]).astype(np.float32)


def make_inputs(layers, heads, n, head_dim, seed=0):
    """Per layer, a K and a V ``(heads, n, head_dim)`` stack, and each head's uniform statistics."""
    rng = np.random.default_rng(seed)
    keys = [rng.uniform(-2, 2, size=(heads, n, head_dim)).astype(np.float32) for _ in range(layers)]
    values = [rng.uniform(-2, 2, size=(heads, n, head_dim)).astype(np.float32) for _ in range(layers)]
    ctxs = [
        [context_from_probs(causal_uniform_attn(n), n) for _ in range(heads)]
        for _ in range(layers)
    ]
    return keys, values, ctxs


def rejected_unchanged(cache, layer, side, bad, good, match):
    """``decode_append`` of ``bad`` as the ``side`` row beside ``good`` raises and leaves the snapshot as it was."""
    before = dump_snapshot(cache)
    with pytest.raises(ContractViolation, match=match):
        cache.decode_append(layer, *((bad, good) if side == "k" else (good, bad)))
    assert dump_snapshot(cache) == before


STREAM4 = PolicyConfig(PolicyKind.STREAMING_LLM, recent_window=4)
H2O4 = PolicyConfig(PolicyKind.H2O, recent_window=4)


class TestPrefillCompress:
    def test_streaming_positions(self):
        keys, values, ctxs = make_inputs(1, 1, 10, 8)
        plan = uniform_plan(1, 6, 16, heads=1, head_dim=8)
        cache = prefill_compress(keys, values, ctxs, plan, STREAM4)
        assert cache.positions[0].tolist() == [[0, 1, 6, 7, 8, 9]]
        k, _ = cache.materialize_layer(0)
        assert np.array_equal(k[0], keys[0][0][[0, 1, 6, 7, 8, 9], :])

    def test_conservation_after_prefill(self):
        keys, values, ctxs = make_inputs(3, 2, 50, 8, seed=4)
        plan = uniform_plan(3, 20, 8, heads=2, head_dim=8)  # 40 tokens per layer
        cache = prefill_compress(keys, values, ctxs, plan, STREAM4)
        for layer in range(3):
            assert cache.positions[layer].shape == (2, min(40, 50))

    def test_budget_below_policy_minimum(self):
        keys, values, ctxs = make_inputs(1, 1, 10, 8)
        plan = uniform_plan(1, 2, 16, heads=1, head_dim=8)
        with pytest.raises(ContractViolation):
            prefill_compress(keys, values, ctxs, plan, STREAM4)

    @pytest.mark.parametrize("ctx_n", [32, 8])
    def test_statistics_for_another_length_rejected(self, ctx_n):
        # longer statistics would pick rows past the keys' end, shorter ones
        # only rows below their own n
        keys, values, _ = make_inputs(1, 1, 16, 8)
        ctxs = [[context_from_probs(causal_uniform_attn(ctx_n), ctx_n)]]
        plan = uniform_plan(1, 10, 16, heads=1, head_dim=8)
        with pytest.raises(ContractViolation, match=f"statistics for n={ctx_n}"):
            prefill_compress(keys, values, ctxs, plan, H2O4)

    @pytest.mark.parametrize("side", ["k", "v"])
    def test_later_layer_of_another_shape_rejected(self, side):
        # the first layer's K fixes (heads, n, head_dim); the second layer is a row short
        keys, values, ctxs = make_inputs(2, 2, 10, 8)
        kv = keys if side == "k" else values
        kv[1] = kv[1][:, :9]
        plan = uniform_plan(2, 4, 4, heads=2, head_dim=8)
        with pytest.raises(ContractViolation, match=r"K/V at layer 1 must be nonempty, shaped \(2, 10, 8\)"):
            prefill_compress(keys, values, ctxs, plan, H2O4)

    @pytest.mark.parametrize(
        "malform",
        [
            pytest.param(lambda k, v, c: k.__setitem__(1, k[1][:1]), id="fewer-key-heads"),
            pytest.param(lambda k, v, c: k.__setitem__(1, k[1][[0, 1, 0]]), id="more-key-heads"),
            pytest.param(lambda k, v, c: v.__setitem__(1, v[1][:1]), id="fewer-value-heads"),
            pytest.param(lambda k, v, c: v.__setitem__(0, v[0][[0, 1, 0]]), id="more-value-heads"),
            pytest.param(lambda k, v, c: k.pop(), id="fewer-key-layers"),
            pytest.param(lambda k, v, c: k.append(k[0]), id="more-key-layers"),
            pytest.param(lambda k, v, c: v.pop(), id="fewer-value-layers"),
            pytest.param(lambda k, v, c: v.append(v[0]), id="more-value-layers"),
            pytest.param(lambda k, v, c: c.pop(), id="fewer-ctx-layers"),
            pytest.param(lambda k, v, c: c.append(c[0]), id="more-ctx-layers"),
            pytest.param(lambda k, v, c: c[1].pop(), id="fewer-ctx-heads"),
            pytest.param(lambda k, v, c: c[0].append(c[0][0]), id="more-ctx-heads"),
            pytest.param(lambda k, v, c: [kv.__setitem__(i, kv[i][:0]) for kv in (k, v) for i in range(2)]
                         + [row.clear() for row in c], id="no-heads"),
            pytest.param(lambda k, v, c: [kv.__setitem__(i, kv[i][..., :0]) for kv in (k, v) for i in range(2)],
                         id="zero-width-heads"),
        ],
    )
    def test_malformed_structure_rejected(self, malform):
        keys, values, ctxs = make_inputs(2, 2, 10, 8)
        malform(keys, values, ctxs)
        plan = uniform_plan(2, 4, 4, heads=2, head_dim=8)
        with pytest.raises(ContractViolation):
            prefill_compress(keys, values, ctxs, plan, H2O4)

    @pytest.mark.parametrize("bits", [4, 16])
    @pytest.mark.parametrize("side", ["k", "v"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_kv_rejected(self, bits, side, bad):
        # a 16-bit layer stores K/V as given, so prefill_compress itself must check
        keys, values, ctxs = make_inputs(1, 1, 12, 8)
        (keys if side == "k" else values)[0][0][3, 1] = bad
        plan = uniform_plan(1, 16, bits, heads=1, head_dim=8)
        with pytest.raises(ContractViolation, match="finite"):
            prefill_compress(keys, values, ctxs, plan, STREAM4)

    @pytest.mark.parametrize("bad", ["list", "strings"])
    @pytest.mark.parametrize("side", ["k", "v"])
    def test_kv_not_an_array_of_numbers_rejected(self, side, bad):
        # a list of one matrix per head is not a second input form
        keys, values, ctxs = make_inputs(1, 1, 12, 8)
        kv = keys if side == "k" else values
        kv[0] = list(kv[0]) if bad == "list" else kv[0].astype(str)
        plan = uniform_plan(1, 16, 4, heads=1, head_dim=8)
        with pytest.raises(ContractViolation, match="K/V at layer 0 must"):
            prefill_compress(keys, values, ctxs, plan, STREAM4)


class TestDecodeAppend:
    def make_cache(self, bits=4, group=4, layout=Layout.PER_TOKEN, n=12, head_dim=8):
        keys, values, ctxs = make_inputs(1, 1, n, head_dim, seed=2)
        plan = uniform_plan(1, 16, bits, heads=1, head_dim=head_dim, group_size=group, layout=layout)
        return prefill_compress(keys, values, ctxs, plan, STREAM4)

    def test_residual_stays_under_group_size(self):
        cache = self.make_cache(group=4)
        rng = np.random.default_rng(1)
        for _ in range(19):
            cache.decode_append(0, rng.normal(size=8), rng.normal(size=8))
            assert cache.residual_k[0].shape[1] < 4

    def test_positions_strictly_increasing(self):
        # a layer keeps its prompt positions; the snapshot writes them and the
        # decode row count, which implies the decode rows' positions
        cache = self.make_cache(group=4, n=12)
        kept = cache.positions[0]
        assert (kept[:, 1:] > kept[:, :-1]).all() and kept[0, -1] < 12
        rng = np.random.default_rng(3)
        for _ in range(9):
            cache.decode_append(0, rng.normal(size=8), rng.normal(size=8))
        assert cache.positions[0] is kept
        assert cache.materialize_layer(0)[0].shape[1] == kept.shape[1] + 9
        blob = dump_snapshot(cache)
        assert struct.unpack_from("<II", blob, SNAPSHOT_HEADER + 5) == (kept.shape[1], 9)
        assert struct.unpack_from(f"<{kept.shape[1]}I", blob, SNAPSHOT_HEADER + 13) == tuple(kept[0].tolist())


    def test_wrong_width_rejected(self):
        cache = self.make_cache()
        with pytest.raises(ContractViolation):
            cache.decode_append(0, np.ones(5), np.ones(5))

    @pytest.mark.parametrize("shape", [(2, 4), (8, 1), (1, 1, 8), (2, 8), (16,), ()])
    @pytest.mark.parametrize("side", ["k", "v"])
    def test_row_shape_rejected_and_cache_unchanged(self, shape, side):
        # (2, 4), (8, 1) and (1, 1, 8) hold 8 values, but not as one row
        rejected_unchanged(self.make_cache(), 0, side, np.ones(shape), np.ones(8), "shaped")

    def test_row_and_one_row_matrix_append_alike(self):
        flat, one_row = self.make_cache(), self.make_cache()
        flat.decode_append(0, np.arange(8.0), np.ones(8))
        one_row.decode_append(0, np.arange(8.0).reshape(1, 8), np.ones((1, 8)))
        assert dump_snapshot(flat) == dump_snapshot(one_row)

    @pytest.mark.parametrize("layer, head", [(-1, 0), (0, -1), (1, 0), (0, 1), (5, 5)])
    def test_index_outside_cache_rejected_and_cache_unchanged(self, layer, head):
        # a negative index must not wrap to the last layer or head
        cache = self.make_cache()
        before = dump_snapshot(cache)
        if layer != 0:  # decode_append takes a layer only
            with pytest.raises(ContractViolation, match="outside"):
                cache.decode_append(layer, np.ones(8), np.ones(8))
        with pytest.raises(ContractViolation, match="outside"):
            cache.materialize(layer, head)
        assert dump_snapshot(cache) == before

    @pytest.mark.parametrize("bits", [4, 16])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize("side", ["k", "v"])
    def test_non_finite_row_rejected_and_cache_unchanged(self, bits, bad, side):
        cache = self.make_cache(bits=bits)
        rng = np.random.default_rng(4)
        for _ in range(3):  # at 4 bits, the next append would flush
            cache.decode_append(0, rng.normal(size=8), rng.normal(size=8))
        rejected_unchanged(cache, 0, side, np.r_[np.ones(5), bad, np.ones(2)], np.ones(8), "finite")

    @pytest.mark.parametrize("row", [["a"] * 8, np.array(["1.0"] * 8), [1, [2], 3, 4, 5, 6, 7, 8]],
                             ids=["letters", "numeric_strings", "ragged"])
    @pytest.mark.parametrize("bits", [4, 16])
    @pytest.mark.parametrize("side", ["k", "v"])
    def test_non_numeric_row_rejected_and_cache_unchanged(self, side, bits, row):
        rejected_unchanged(self.make_cache(bits=bits), 0, side, row, np.ones(8), "append rows must hold numbers")

    @pytest.mark.parametrize("big", [1e300, -1e300])
    @pytest.mark.parametrize("as_list", [False, True], ids=["array", "list"])
    def test_row_past_float32_rejected_not_warned(self, big, as_list):
        # pytest turns the cast's overflow RuntimeWarning into an error
        row = np.r_[np.ones(2), big, np.ones(5)]
        rejected_unchanged(self.make_cache(), 0, "k", row.tolist() if as_list else row, np.ones(8), "finite")


class TestLayerAppend:
    """One decode_append writes every head of a layer from one row, or no head at all."""

    HEADS, HEAD_DIM = 3, 4
    WIDTH = HEADS * HEAD_DIM

    def make_cache(self, bits=4, layout=Layout.PER_TOKEN):
        keys, values, ctxs = make_inputs(2, self.HEADS, 12, self.HEAD_DIM, seed=30)
        plan = uniform_plan(2, 16, bits, heads=self.HEADS, head_dim=self.HEAD_DIM, group_size=4, layout=layout)
        return prefill_compress(keys, values, ctxs, plan, STREAM4)

    @pytest.mark.parametrize(
        "bad, match",
        [
            (np.ones(11), "shaped"),
            (np.ones((3, 4)), "shaped"),
            (np.r_[np.ones(11), np.nan], "finite"),
            (np.array(["1.0"] * 12), "numbers"),
        ],
        ids=["one_short", "heads_by_head_dim", "nan_in_last_head", "strings"],
    )
    @pytest.mark.parametrize("bits", [4, 16])
    @pytest.mark.parametrize("side", ["k", "v"])
    def test_bad_row_leaves_every_head_unchanged(self, side, bits, bad, match):
        cache = self.make_cache(bits)
        rng = np.random.default_rng(31)
        for _ in range(3):  # at 4 bits, the next append would flush every head
            cache.decode_append(1, rng.normal(size=self.WIDTH), rng.normal(size=self.WIDTH))
        rejected_unchanged(cache, 1, side, bad, np.ones(self.WIDTH), match)

    @pytest.mark.parametrize("layout", list(Layout))
    @pytest.mark.parametrize("bits", [2, 4, 8])
    def test_completing_a_group_adds_one_block_to_every_head(self, bits, layout):
        cache = self.make_cache(bits, layout)
        layer_0 = [m.tobytes() for m in cache.materialize_layer(0)]
        positions_0, kept = cache.positions[0], cache.positions[1].shape[1]
        rng = np.random.default_rng(32)
        rows = [rng.normal(size=(2, self.WIDTH)).astype(np.float32) for _ in range(4)]
        for step, (k, v) in enumerate(rows):
            cache.decode_append(1, k, v)
            # the fourth row completes the group and empties every head's residual
            assert cache.residual_k[1].shape == cache.residual_v[1].shape == (self.HEADS, (step + 1) % 4, self.HEAD_DIM)
        for side, (stack, cfg) in enumerate(zip(cache.materialize_layer(1), cache.plan.quant_config(1))):
            assert stack.shape == (self.HEADS, kept + 4, self.HEAD_DIM)
            for head in range(self.HEADS):
                # each head's last rows are one block quantizing that head's slice of the four rows
                sl = slice(head * self.HEAD_DIM, (head + 1) * self.HEAD_DIM)
                expected = quantize_matrix(np.stack([pair[side][sl] for pair in rows]), cfg)
                assert stack[head, kept:].tobytes() == dequantize_matrix(expected).tobytes()
        assert cache.positions[0] is positions_0
        assert [m.tobytes() for m in cache.materialize_layer(0)] == layer_0

    def test_16bit_heads_take_their_slices_bit_for_bit(self):
        cache = self.make_cache(16)
        rng = np.random.default_rng(33)
        k, v = rng.normal(size=(2, 1, self.WIDTH)).astype(np.float32)
        cache.decode_append(1, k, v)
        k_stack, v_stack = cache.materialize_layer(1)
        assert np.array_equal(k_stack[:, -1], k.reshape(self.HEADS, self.HEAD_DIM))
        assert np.array_equal(v_stack[:, -1], v.reshape(self.HEADS, self.HEAD_DIM))


class TestResidualStacks:
    """A layer's full-precision rows are one (heads, rows, head_dim) stack for K and one for V."""

    HEAD_DIM, PROMPT, KEPT, APPENDS = 4, 12, 8, 11

    # the oracle: each head's kept prompt rows, then its slice of every
    # appended row; on a quantized layer the prompt rows and each full group
    # are one block each, and the rest stays at full precision
    @pytest.mark.parametrize("group_size", [1, 8])
    @pytest.mark.parametrize("layout", list(Layout))
    @pytest.mark.parametrize("bits", [16, 8, 4, 2])
    @pytest.mark.parametrize("heads", [1, 2, 3, 4])
    def test_each_head_stores_its_slices(self, heads, bits, layout, group_size):
        keys, values, ctxs = make_inputs(2, heads, self.PROMPT, self.HEAD_DIM, seed=heads + bits)
        plan = plan_for_tokens([self.KEPT] * 2, bits, heads, self.HEAD_DIM, group_size, layout)
        cache = prefill_compress(keys, values, ctxs, plan, STREAM4)
        rng = np.random.default_rng(group_size)
        rows = rng.normal(size=(self.APPENDS, 2, heads * self.HEAD_DIM)).astype(np.float32)
        for k, v in rows:
            cache.decode_append(1, k, v)
        cfgs = plan.quant_config(1) or (None, None)
        full = 0 if bits == 16 else self.APPENDS // group_size * group_size
        k_stack, v_stack = cache.materialize_layer(1)
        for head in range(heads):
            kept = cache.positions[1][head]
            assert len(kept) == self.KEPT
            appended = rows[:, :, head * self.HEAD_DIM : (head + 1) * self.HEAD_DIM]
            for side, (prompt, cfg, stack) in enumerate(zip((keys, values), cfgs, (k_stack, v_stack))):
                blocks = [prompt[1][head][kept]] + [appended[i : i + group_size, side] for i in range(0, full, group_size)]
                decoded = blocks if cfg is None else [dequantize_matrix(quantize_matrix(b, cfg)) for b in blocks]
                expected = np.concatenate(decoded + [appended[full:, side]])
                assert stack[head].tobytes() == expected.tobytes()
        rest = self.KEPT + self.APPENDS if bits == 16 else self.APPENDS - full
        assert cache.residual_k[1].shape == cache.residual_v[1].shape == (heads, rest, self.HEAD_DIM)
        # layer 0 took no row
        assert cache.residual_k[0].shape == (heads, self.KEPT if bits == 16 else 0, self.HEAD_DIM)


class TestMaterialize:
    @pytest.mark.parametrize("appends", [0, 3], ids=["blocks-only", "blocks-and-residual"])
    def test_writing_the_result_leaves_the_cache_unchanged(self, appends):
        keys, values, ctxs = make_inputs(1, 1, 20, 8, seed=9)
        plan = uniform_plan(1, 8, 4, heads=1, head_dim=8, group_size=8)
        cache = prefill_compress(keys, values, ctxs, plan, STREAM4)
        rng = np.random.default_rng(10)
        for _ in range(appends):
            cache.decode_append(0, rng.normal(size=8), rng.normal(size=8))
        assert cache.residual_k[0].shape[1] == appends  # the 8 prompt rows are a block
        k, v = cache.materialize_layer(0)
        expected = k.tobytes(), v.tobytes()
        for m in (k, v):
            with pytest.raises(ValueError, match="read-only"):
                m[:] = 7.0
        assert tuple(m.tobytes() for m in cache.materialize_layer(0)) == expected


def joined_oracle(cache, layer):
    """``layer``'s K and V stacks as bytes, built apart from the cache's join: each head's
    blocks decoded by ``reference_dequantize``, then its residual rows."""
    return [
        np.stack([np.concatenate([reference_dequantize(q) for q in stored_blocks(cache, layer, head)[side]]
                                 + [residual[head]]) for head in range(cache.heads)]).tobytes()
        for side, residual in enumerate((cache.residual_k[layer], cache.residual_v[layer]))
    ]


class TestJoinedStacks:
    """A quantized layer's reads are views of stacks that appends extend in place, until a flush."""

    HEADS, HEAD_DIM, GROUP = 2, 4, 8
    WIDTH = HEADS * HEAD_DIM

    def make_cache(self, bits=4, layers=1):
        keys, values, ctxs = make_inputs(layers, self.HEADS, 12, self.HEAD_DIM, seed=41)
        plan = uniform_plan(layers, 8, bits, heads=self.HEADS, head_dim=self.HEAD_DIM, group_size=self.GROUP)
        return prefill_compress(keys, values, ctxs, plan, STREAM4)

    def append(self, cache, rng, layer=0):
        cache.decode_append(layer, *rng.normal(size=(2, self.WIDTH)))

    def check(self, cache, read, layer=0):
        assert [m.tobytes() for m in read] == joined_oracle(cache, layer)
        assert not any(m.flags.writeable for m in read)

    def test_appends_extend_one_buffer_and_every_earlier_read_keeps_its_bytes(self):
        cache, rng = self.make_cache(), np.random.default_rng(42)
        reads = [cache.materialize_layer(0)]
        for _ in range(self.GROUP - 1):  # one row short of a flush
            self.append(cache, rng)
            reads.append(cache.materialize_layer(0))
            self.check(cache, reads[-1])
        held = [[m.tobytes() for m in read] for read in reads]
        # the first append moves the exact join into a buffer with room up to the flush;
        # every later read is a view of that buffer
        for earlier, later in zip(reads[1:], reads[2:]):
            assert all(np.shares_memory(a, b) for a, b in zip(earlier, later))
        assert [[m.tobytes() for m in read] for read in reads] == held
        again = cache.materialize_layer(0)
        assert all(np.shares_memory(a, b) for a, b in zip(again, reads[-1]))

    def test_a_flush_gives_new_stacks(self):
        cache, rng = self.make_cache(), np.random.default_rng(43)
        for _ in range(self.GROUP - 1):
            self.append(cache, rng)
        before = cache.materialize_layer(0)
        held = [m.tobytes() for m in before]
        self.append(cache, rng)  # completes the group: every head flushes
        assert cache.residual_k[0].shape[1] == 0
        after = cache.materialize_layer(0)
        self.check(cache, after)
        assert not any(np.shares_memory(a, b) for a, b in zip(before, after))
        assert [m.tobytes() for m in before] == held

    def test_clones_append_apart_and_leave_the_source_as_it_was(self):
        source, rng = self.make_cache(), np.random.default_rng(44)
        source.materialize_layer(0)
        self.append(source, rng)  # the source's stacks now have room to grow in place
        source_read = source.materialize_layer(0)
        held = [m.tobytes() for m in source_read]
        clones = [source.clone(), source.clone()]
        for clone in clones:
            for _ in range(3):
                # a clone starts without the source's stacks and joins its own
                assert not any(np.shares_memory(a, b) for a, b in zip(clone.materialize_layer(0), source_read))
                self.append(clone, rng)
        reads = [clone.materialize_layer(0) for clone in clones]
        for clone, read in zip(clones, reads):
            self.check(clone, read)
            assert not any(np.shares_memory(a, b) for a, b in zip(read, source_read))
        assert reads[0][0].tobytes() != reads[1][0].tobytes()
        self.append(source, rng)  # the source writes its own buffer, past what anyone read
        self.check(source, source.materialize_layer(0))
        assert [m.tobytes() for m in source_read] == held
        for clone, read in zip(clones, reads):
            self.check(clone, read)

    @pytest.mark.parametrize("name", ["positions", "residual_k", "residual_v"])
    def test_the_stored_rows_cannot_be_set_by_hand(self, name):
        cache, rng = self.make_cache(), np.random.default_rng(45)
        cache.materialize_layer(0)
        for _ in range(2):
            self.append(cache, rng)
        before = dump_snapshot(cache)
        shown = getattr(cache, name)
        assert type(shown) is tuple and not shown[0].flags.writeable
        with pytest.raises(TypeError):
            shown[0] = np.zeros_like(shown[0])
        with pytest.raises(AttributeError):
            setattr(cache, name, ())
        assert dump_snapshot(cache) == before
        self.append(cache, rng)
        self.check(cache, cache.materialize_layer(0))

    def test_a_replaced_block_is_read(self):
        cache, rng = self.make_cache(), np.random.default_rng(46)
        self.append(cache, rng)
        cache.materialize_layer(0)
        self.append(cache, rng)
        blocks_k, _ = stored_blocks(cache, 0, 1)
        blocks_k[0] = quantize_matrix(np.full(blocks_k[0].shape, 1.5, dtype=np.float32),
                                      cache.plan.quant_config(0)[0])
        read = cache.materialize_layer(0)
        self.check(cache, read)
        assert (read[0][1, :8] == 1.5).all()

    def test_the_residual_stays_under_a_group_across_decode(self):
        # every group_size-th append flushes, so the joined stacks never outgrow their next flush
        cache = self.make_cache()
        model = random_model(ModelConfig(1, self.HEADS, self.WIDTH, 16, 64, seed=48))
        for step in range(40):
            h = embed_token(model, step % 16)
            want = per_head_decode(model, cache.clone(), h)
            assert decode_step(model, cache, h).tobytes() == want.tobytes()
            self.check(cache, cache.materialize_layer(0))
            rest = (self.HEADS, (step + 1) % self.GROUP, self.HEAD_DIM)
            assert cache.residual_k[0].shape == cache.residual_v[0].shape == rest

    @pytest.mark.parametrize("bits", [4, 16])
    def test_every_read_is_read_only(self, bits):
        cache, rng = self.make_cache(bits, layers=2), np.random.default_rng(49)
        for _ in range(3):
            self.append(cache, rng, layer=1)
        for layer in range(2):
            stacks = [*cache.materialize_layer(layer), *cache.materialize(layer, 1)]
            for m in stacks:
                with pytest.raises(ValueError, match="read-only"):
                    m[...] = 0.0


class TestBlockListsAreChecked:
    """The block lists ``entry`` hands out are checked where a read joins a layer and where
    ``dump_snapshot`` writes it: each head holds the blocks its plan and kept positions give."""

    HEADS, HEAD_DIM, GROUP, KEPT = 2, 4, 8, 8
    WIDTH = HEADS * HEAD_DIM

    def make_cache(self, bits=4, layers=1):
        keys, values, ctxs = make_inputs(layers, self.HEADS, 12, self.HEAD_DIM, seed=51)
        plan = plan_for_tokens([self.KEPT] * layers, bits, heads=self.HEADS, head_dim=self.HEAD_DIM,
                               group_size=self.GROUP)
        cache = prefill_compress(keys, values, ctxs, plan, STREAM4)
        assert cache.positions[0].shape == (self.HEADS, self.KEPT)
        for layer in range(layers):
            cache.materialize_layer(layer)  # a join the replaced block must not be read through
        return cache

    @staticmethod
    def block(rows, cols, cfg):
        return quantize_matrix(np.full((rows, cols), 0.5, dtype=np.float32), cfg)

    @staticmethod
    def rejected(cache, layer, head, side="K"):
        """Reads of ``layer`` and a dump raise, naming the layer, the head and the side."""
        match = f"layer {layer} head {head} must hold {side} blocks"
        for _ in range(2):  # a failed check is not remembered
            with pytest.raises(ContractViolation, match=match):
                cache.materialize_layer(layer)
        with pytest.raises(ContractViolation, match=match):
            dump_snapshot(cache)

    def test_a_block_of_another_width(self):
        cache = self.make_cache()
        stored_blocks(cache, 0, 1)[0][0] = self.block(self.KEPT, self.HEAD_DIM + 1, cache.plan.quant_config(0)[0])
        self.rejected(cache, 0, 1)
        model = random_model(ModelConfig(1, self.HEADS, self.WIDTH, 16, 64, seed=52))
        with pytest.raises(ContractViolation, match="layer 0 head 1"):
            decode_step(model, cache, embed_token(model, 1))

    def test_prompt_blocks_of_7_and_9_rows(self):
        # as many rows in both heads together as two prompt blocks of the 8 kept, so the
        # layer's stacks would still reshape into (heads, rows, head_dim)
        cache = self.make_cache()
        k_cfg = cache.plan.quant_config(0)[0]
        for head, rows in enumerate((7, 9)):
            stored_blocks(cache, 0, head)[0][0] = self.block(rows, self.HEAD_DIM, k_cfg)
        self.rejected(cache, 0, 0)

    def test_an_8_bit_block_in_a_4_bit_layer(self):
        cache = self.make_cache()
        v_cfg = cache.plan.quant_config(0)[1]
        stored_blocks(cache, 0, 0)[1][0] = self.block(self.KEPT, self.HEAD_DIM, replace(v_cfg, bits=8))
        self.rejected(cache, 0, 0, "V")

    @pytest.mark.parametrize("head, side, forge", [
        (1, "K", list.clear),
        (0, "K", list.clear),
        (0, "V", lambda blocks: blocks.append(blocks[0])),
        (1, "V", lambda blocks: blocks.append(quantize_matrix(np.ones((8, 4), dtype=np.float32), QuantConfig(4, 8)))),
    ], ids=["no_k_in_head_1", "no_k_in_head_0", "second_prompt_block", "extra_group_block"])
    def test_a_head_of_another_block_count(self, head, side, forge):
        cache = self.make_cache()
        forge(stored_blocks(cache, 0, head)["KV".index(side)])
        self.rejected(cache, 0, head, side)

    def test_an_object_that_is_not_a_block(self):
        cache = self.make_cache()
        stored_blocks(cache, 0, 1)[1][0] = "block"
        with pytest.raises(ContractViolation, match="must be a QuantizedTensor"):
            cache.materialize_layer(0)
        with pytest.raises(ContractViolation, match="layer 0 head 1 must hold V blocks"):
            dump_snapshot(cache)

    def test_a_block_on_a_16_bit_layer(self):
        # a 16-bit layer's read is its residual, which holds every row: the block is rejected where
        # it would be written
        cache = self.make_cache(bits=16)
        read = [m.tobytes() for m in cache.materialize_layer(0)]
        stored_blocks(cache, 0, 1)[0].append(self.block(self.KEPT, self.HEAD_DIM, QuantConfig(4, self.GROUP)))
        with pytest.raises(ContractViolation, match="layer 0 head 1 must hold K blocks"):
            dump_snapshot(cache)
        assert [m.tobytes() for m in cache.materialize_layer(0)] == read

    def test_clones_share_a_check_but_not_their_blocks(self):
        source = self.make_cache()  # its blocks passed the check at its first read
        clones = [source.clone(), source.clone()]
        stored_blocks(clones[0], 0, 1)[0][0] = self.block(7, self.HEAD_DIM, source.plan.quant_config(0)[0])
        self.rejected(clones[0], 0, 1)
        for cache in (source, clones[1]):
            assert [m.tobytes() for m in cache.materialize_layer(0)] == joined_oracle(cache, 0)

    def test_a_step_raises_at_the_layer_whose_blocks_were_replaced(self):
        cache = self.make_cache(layers=2)
        model = random_model(ModelConfig(2, self.HEADS, self.WIDTH, 16, 64, seed=53))
        decode_step(model, cache, embed_token(model, 1))
        stored_blocks(cache, 1, 0)[0][0] = self.block(7, self.HEAD_DIM, cache.plan.quant_config(1)[0])
        with pytest.raises(ContractViolation, match="layer 1 head 0 must hold K blocks"):
            decode_step(model, cache, embed_token(model, 2))
        # both layers appended before layer 1's read raised
        assert [cache.residual_k[layer].shape[1] for layer in range(2)] == [2, 2]


class TestMeasuredBytes:
    def test_empty_like_cache(self):
        keys, values, ctxs = make_inputs(1, 1, 8, 8)
        plan = uniform_plan(1, 8, 16, heads=1, head_dim=8)
        cache = prefill_compress(keys, values, ctxs, plan, STREAM4)
        # 8 tokens of 8 dims, K and V, 2 bytes each
        assert cache.measured_bytes() == 2 * 8 * 8 * 2

    def test_grows_per_append_before_flush(self):
        keys, values, ctxs = make_inputs(1, 1, 12, 8, seed=10)
        plan = uniform_plan(1, 16, 4, heads=1, head_dim=8, group_size=64)
        cache = prefill_compress(keys, values, ctxs, plan, STREAM4)
        before = cache.measured_bytes()
        cache.decode_append(0, np.ones(8), np.ones(8))
        assert cache.measured_bytes() - before == 8 * 2 * 2

    def test_matches_plan_bytes_with_full_groups(self):
        n, head_dim = 64, 64
        keys, values, ctxs = make_inputs(2, 2, n, head_dim, seed=9)
        plan = uniform_plan(2, 8, 4, heads=2, head_dim=head_dim, group_size=64)
        cache = prefill_compress(keys, values, ctxs, plan, STREAM4)
        assert cache.measured_bytes() == plan_bytes(plan, 2, head_dim)


class TestSnapshot:
    def build(self, threshold=6.0):
        keys, values, ctxs = make_inputs(2, 2, 24, 8, seed=13)
        plan = uniform_plan(2, 4, 4, heads=2, head_dim=8, group_size=8)
        cache = prefill_compress(keys, values, ctxs, replace(plan, outlier_threshold=threshold), STREAM4)
        rng = np.random.default_rng(14)
        for layer in range(2):
            for _ in range(5):
                cache.decode_append(layer, rng.normal(size=16), rng.normal(size=16))
        return cache

    def test_round_trip(self):
        cache = self.build()
        restored = load_snapshot(dump_snapshot(cache))
        for layer in range(2):
            for m1, m2 in zip(cache.materialize_layer(layer), restored.materialize_layer(layer)):
                assert np.array_equal(m1, m2)
            assert np.array_equal(cache.positions[layer], restored.positions[layer])
        assert restored.measured_bytes() == cache.measured_bytes()

    def test_dump_is_deterministic(self):
        assert dump_snapshot(self.build()) == dump_snapshot(self.build())

    def test_redump_identical(self):
        blob = dump_snapshot(self.build())
        assert dump_snapshot(load_snapshot(blob)) == blob

    def test_plan_round_trips(self):
        # the outlier cache's plan carries its threshold through the header
        for cache in (self.build(), self.build(threshold=None)):
            assert cache.plan.total_budget_bytes > 0
            assert load_snapshot(dump_snapshot(cache)).plan == cache.plan

    def test_older_version_rejected(self):
        for version in (1, 2, 3, 4):
            blob = bytearray(dump_snapshot(self.build()))
            struct.pack_into("<H", blob, 4, version)
            with pytest.raises(IntegrityError, match=f"version {version}"):
                load_snapshot(bytes(blob))

    # residual stacks that load_snapshot would reject or read back otherwise, brought in by a prefill
    # result: DenseKV.from_prefill rejects a stack of another kind or shape where it enters, and
    # dump_snapshot one whose values are not finite
    @pytest.mark.parametrize("forge, match", [
        pytest.param(lambda m: np.full_like(m, np.nan), "layer 1's residual values must be finite", id="nan"),
        pytest.param(lambda m: np.where(m > 0, np.inf, m), "layer 1's residual values must be finite", id="inf"),
        pytest.param(lambda m: m.astype(np.float64), "layer 1 must hold K and V as 3-D float32", id="float64"),
        pytest.param(lambda m: m[:, :-1], "layer 1 must hold K and V as 3-D float32 stacks of one shape",
                     id="ragged"),
        pytest.param(lambda m: m.tolist(), "layer 1 must hold K and V as 3-D float32", id="list"),
    ])
    @pytest.mark.parametrize("side", ["k", "v"])
    def test_dump_rejects_a_residual_the_loader_would_not_read(self, side, forge, match):
        result = prefill(random_model(ModelConfig(2, 2, 16, 8, 16, seed=13)), [1, 2, 3, 4])
        stacks = result.keys if side == "k" else result.values
        stacks[1] = forge(stacks[1])
        with pytest.raises(ContractViolation, match=match):
            dump_snapshot(DenseKV.from_prefill(result))


SNAPSHOT_HEADER = 4 + struct.calcsize("<HHHIIBdIq")
LAYERS_AT, HEADS_AT, HEAD_DIM_AT, GROUP_SIZE_AT, LAYOUT_AT, THRESHOLD_AT, PREFILL_LEN_AT = 6, 8, 10, 14, 18, 19, 27
PLAN_TOKENS_AT, PLAN_BITS_AT = SNAPSHOT_HEADER, SNAPSHOT_HEADER + 4  # first layer's plan row


def _sealed(body: bytes) -> bytes:
    return body + struct.pack("<I", zlib.crc32(body))


def _patched(blob: bytes, offset: int, fmt: str, value) -> bytes:
    """``blob`` with one field rewritten and the CRC trailer recomputed."""
    out = bytearray(blob[:-4])
    struct.pack_into(fmt, out, offset, value)
    assert bytes(out) != blob[:-4]
    return _sealed(bytes(out))


def _flipped(blob: bytes, offset: int) -> bytes:
    """``blob`` with one byte changed and the CRC trailer left as it was."""
    out = bytearray(blob)
    out[offset] ^= 0x10
    return bytes(out)


def _table_kept(blob: bytes, table: int, keep) -> bytes:
    """``blob`` with only the ``keep`` entries of the 16-group table at ``table``, resealed."""
    body = blob[:-4]
    entries = b"".join(body[table + 16 * i : table + 16 * (i + 1)] for i in keep)
    return _sealed(body[:table] + entries + body[table + 16 * 16 :])


class TestSnapshotRejects:
    """Mutated snapshots raise IntegrityError, never IndexError or ContractViolation.

    Every mutation but the flipped code byte recomputes the CRC trailer, so
    the check under test is the structural one behind it.
    """

    @pytest.fixture
    def snapshot(self):
        # one 4-bit per-token head, group size 8 = head_dim: one group per row,
        # and two K outliers, at block rows 0 and 15
        keys, values, ctxs = make_inputs(1, 1, 24, 8, seed=13)
        keys[0][0][0, 2], keys[0][0][23, 5] = 9.5, -7.25
        plan = uniform_plan(1, 4, 4, heads=1, head_dim=8, group_size=8)
        cache = prefill_compress(keys, values, ctxs, replace(plan, outlier_threshold=6.0), STREAM4)
        blob = dump_snapshot(cache)
        k_blocks, _ = stored_blocks(cache, 0, 0)
        assert struct.unpack_from("<IB", blob, PLAN_TOKENS_AT) == (16, 4)
        assert cache.positions[0].shape == (1, 16) and len(k_blocks) == 1 and cache.residual_k[0].size == 0
        # plan row; the layer's kept and decode row counts and its one head's
        # positions; then the K prompt block: outlier count, two outliers,
        # 16 groups (f64 zero, f64 scale), 16 * 4 code bytes
        at = {"kept": SNAPSHOT_HEADER + 5}
        at["positions"] = at["kept"] + 8
        at["block"] = at["positions"] + 4 * 16
        assert struct.unpack_from("<II", blob, at["kept"]) == (16, 0)
        assert struct.unpack_from("<16I", blob, at["positions"]) == tuple(cache.positions[0][0].tolist())
        at["outliers"] = at["block"] + 4
        at["table"] = at["outliers"] + 2 * 12
        at["codes"] = at["table"] + 16 * 16
        assert struct.unpack_from("<I", blob, at["block"])[0] == 2
        assert struct.unpack_from("<IIf", blob, at["outliers"] + 12) == (15, 5, -7.25)
        assert struct.unpack_from("<d", blob, at["table"] + 8)[0] == k_blocks[0].scales[0]
        load_snapshot(blob)
        return blob, at

    @pytest.mark.parametrize(
        "mutate",
        [
            pytest.param(lambda b, at: _patched(b, LAYOUT_AT, "<B", 2), id="layout-code"),
            pytest.param(lambda b, at: _patched(b, PLAN_BITS_AT, "<B", 3), id="bits-3"),
            pytest.param(lambda b, at: _patched(b, PLAN_BITS_AT, "<B", 0), id="bits-0"),
            pytest.param(lambda b, at: _sealed(b[:-4] + b"\x00"), id="trailing-bytes"),
            pytest.param(lambda b, at: _patched(b, GROUP_SIZE_AT, "<I", 0), id="group-size-0"),
            pytest.param(lambda b, at: _patched(b, HEADS_AT, "<H", 0), id="no-heads"),
            # the header alone, declaring no layers: no plan has zero layers
            pytest.param(
                lambda b, at: _sealed(_patched(b, LAYERS_AT, "<H", 0)[:SNAPSHOT_HEADER]), id="zero-layers"
            ),
            pytest.param(lambda b, at: _patched(b, PLAN_TOKENS_AT, "<I", 0), id="plan-tokens-0"),
            pytest.param(
                lambda b, at: _patched(b, PLAN_BITS_AT, "<B", 16), id="16-bit-layer-with-blocks"
            ),
            pytest.param(lambda b, at: _patched(b, at["table"] + 8, "<d", float("nan")), id="nan-scale"),
            pytest.param(lambda b, at: _patched(b, at["table"] + 8, "<d", 1e300), id="huge-scale"),
            pytest.param(lambda b, at: _flipped(b, at["codes"]), id="flipped-code-byte"),
            pytest.param(
                lambda b, at: _patched(b, at["positions"] + 4, "<I", 0), id="positions-not-increasing"
            ),
            pytest.param(lambda b, at: _patched(b, at["outliers"] + 12, "<I", 16), id="outlier-outside-shape"),
            pytest.param(
                lambda b, at: _patched(_patched(b, at["outliers"] + 12, "<I", 0), at["outliers"] + 16, "<I", 2),
                id="outlier-repeated",
            ),
            pytest.param(
                lambda b, at: _patched(b, at["outliers"] + 20, "<f", float("inf")), id="outlier-not-finite"
            ),
            pytest.param(lambda b, at: _table_kept(b, at["table"], range(1, 16)), id="group-entry-removed"),
            # the v3 forgery: pairs of groups merged into one table entry each
            pytest.param(lambda b, at: _table_kept(b, at["table"], range(0, 16, 2)), id="groups-merged"),
        ],
    )
    def test_rejected(self, snapshot, mutate):
        with pytest.raises(IntegrityError):
            load_snapshot(mutate(*snapshot))

    def test_quantized_entry_without_prompt_rows_rejected(self, snapshot):
        # eviction keeps at least one prompt row: no layer has an empty prompt block
        blob, at = snapshot
        with pytest.raises(IntegrityError, match=r"layer 0 keeps 0 prompt rows, outside \[1, 24\]"):
            load_snapshot(_patched(blob, at["kept"], "<I", 0))

    @pytest.mark.parametrize("field, value, message", [
        ("kept", 25, r"keeps 25 prompt rows, outside \[1, 24\]"),
        ("prefill_len", 15, r"keeps 16 prompt rows, outside \[1, 15\]"),
        ("prefill_len", 0, r"keeps 16 prompt rows, outside \[1, 0\]"),
    ])
    def test_more_kept_rows_than_the_prompt_rejected(self, snapshot, field, value, message):
        blob, at = snapshot
        assert struct.unpack_from("<I", blob, PREFILL_LEN_AT)[0] == 24
        offset = PREFILL_LEN_AT if field == "prefill_len" else at["kept"]
        with pytest.raises(IntegrityError, match=message):
            load_snapshot(_patched(blob, offset, "<I", value))

    @pytest.mark.parametrize("bits", [4, 16])
    def test_kept_position_past_the_prompt_rejected(self, bits):
        # the second head's last kept position is the last prompt position,
        # n - 1; one more is where the first decode row sits
        keys, values, ctxs = make_inputs(1, 2, 24, 8, seed=34)
        plan = uniform_plan(1, 4, bits, heads=2, head_dim=8, group_size=8)
        blob = dump_snapshot(prefill_compress(keys, values, ctxs, plan, STREAM4))
        kept, decode = struct.unpack_from("<II", blob, SNAPSHOT_HEADER + 5)
        last = SNAPSHOT_HEADER + 5 + 8 + 4 * (2 * kept - 1)
        assert (kept, decode) == (64 // bits, 0)
        assert struct.unpack_from("<2I", blob, last - 4) == (22, 23)
        with pytest.raises(IntegrityError, match=r"layer 0's kept positions do not strictly increase below 24"):
            load_snapshot(_patched(blob, last, "<I", 24))

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_residual_rejected(self, value):
        # a 16-bit head keeps every row in the residual: plan row, kept and
        # decode row counts, four positions, then the first K value
        keys, values, ctxs = make_inputs(1, 1, 24, 8, seed=13)
        plan = uniform_plan(1, 4, 16, heads=1, head_dim=8, group_size=8)
        blob = dump_snapshot(prefill_compress(keys, values, ctxs, plan, STREAM4))
        at = SNAPSHOT_HEADER + 5 + 8 + 4 * 4
        assert struct.unpack_from("<f", blob, at)[0] == keys[0][0][20, 0]
        with pytest.raises(IntegrityError, match="residual values must be finite"):
            load_snapshot(_patched(blob, at, "<f", value))

    def test_zero_width_heads_rejected(self):
        # a zero-width row takes no bytes, so a forged decode row count would
        # load, and the next append would overflow its u32 field in the dump
        keys, values, ctxs = make_inputs(1, 1, 24, 8, seed=13)
        plan = uniform_plan(1, 4, 16, heads=1, head_dim=8, group_size=8)
        blob = dump_snapshot(prefill_compress(keys, values, ctxs, plan, STREAM4))
        counts = SNAPSHOT_HEADER + 5
        forged = bytearray(blob[: counts + 8 + 4 * 4])  # up to the four kept positions
        struct.pack_into("<I", forged, HEAD_DIM_AT, 0)
        struct.pack_into("<I", forged, counts + 4, 2**32 - 1)
        with pytest.raises(IntegrityError, match="heads of at least one dimension, got 1 x 0"):
            load_snapshot(_sealed(bytes(forged)))

    def test_16bit_group_size_0_rejected(self):
        # a 16-bit layer builds no QuantConfig, so only the plan can reject it
        keys, values, ctxs = make_inputs(1, 1, 24, 8, seed=13)
        plan = uniform_plan(1, 4, 16, heads=1, head_dim=8, group_size=8)
        blob = dump_snapshot(prefill_compress(keys, values, ctxs, plan, STREAM4))
        load_snapshot(blob)
        with pytest.raises(IntegrityError, match="group_size"):
            load_snapshot(_patched(blob, GROUP_SIZE_AT, "<I", 0))

    def test_16bit_negative_threshold_rejected(self):
        # a 16-bit layer builds no QuantConfig, so only the plan can reject it
        keys, values, ctxs = make_inputs(1, 1, 24, 8, seed=13)
        plan = uniform_plan(1, 4, 16, heads=1, head_dim=8, group_size=8)
        blob = dump_snapshot(prefill_compress(keys, values, ctxs, plan, STREAM4))
        assert np.isnan(struct.unpack_from("<d", blob, THRESHOLD_AT)[0])
        with pytest.raises(IntegrityError, match="outlier_threshold"):
            load_snapshot(_patched(blob, THRESHOLD_AT, "<d", -1.0))


def _fuzz_snapshots() -> dict[str, bytes]:
    """A 4-bit per-channel cache with outliers and decode flushes, and a 16-bit one."""
    keys, values, ctxs = make_inputs(1, 2, 24, 8, seed=22)
    keys[0][0][23, 2] = 9.5  # the newest prompt row is always kept: a prompt outlier
    plan = uniform_plan(
        1, 4, 4, heads=2, head_dim=8, group_size=4, layout=Layout.PER_CHANNEL
    )
    quantized = prefill_compress(keys, values, ctxs, replace(plan, outlier_threshold=6.0), STREAM4)
    full = prefill_compress(
        keys, values, ctxs, uniform_plan(1, 6, 16, heads=2, head_dim=8), STREAM4
    )
    rng = np.random.default_rng(23)
    for step in range(6):  # one flush plus two residual rows per head
        row = rng.normal(size=16).astype(np.float32)
        if step == 1:
            row[[5, 13]] = -8.25  # a flushed decode outlier in each head
        quantized.decode_append(0, row, row)
        full.decode_append(0, row, row)
    k_blocks, _ = stored_blocks(quantized, 0, 0)
    assert len(k_blocks) == 2 and quantized.residual_k[0].shape == (2, 2, 8)
    assert k_blocks[0].outliers and k_blocks[1].outliers
    assert full.residual_k[0].shape == (2, 12, 8)
    return {"4bit": dump_snapshot(quantized), "16bit": dump_snapshot(full)}


FUZZ_SNAPSHOTS = _fuzz_snapshots()


def _resealed_change_rejected_or_usable(body: bytes, offset: int, xor: int) -> None:
    """Past the checksum, the structural checks either reject ``body`` with the
    byte at ``offset`` xored by ``xor`` and resealed, or leave a cache that
    every cache operation accepts."""
    out = bytearray(body)
    out[offset] ^= xor
    try:
        cache = load_snapshot(_sealed(bytes(out)))
    except IntegrityError:
        return
    row = np.ones(cache.heads * cache.head_dim)
    for layer in range(cache.plan.layers):
        k, v = cache.materialize_layer(layer)
        assert np.isfinite(k).all() and np.isfinite(v).all()
        cache.decode_append(layer, row, row)
        cache.materialize_layer(layer)
    load_snapshot(dump_snapshot(cache))


class TestSnapshotFuzz:
    """Any single-byte change or truncation of a valid snapshot raises IntegrityError only."""

    @settings(max_examples=300, deadline=None)
    @given(kind=st.sampled_from(sorted(FUZZ_SNAPSHOTS)), data=st.data())
    def test_single_byte_change(self, kind, data):
        blob = FUZZ_SNAPSHOTS[kind]
        offset = data.draw(st.integers(0, len(blob) - 1), label="offset")
        delta = data.draw(st.integers(1, 255), label="xor")
        out = bytearray(blob)
        out[offset] ^= delta
        with pytest.raises(IntegrityError):
            load_snapshot(bytes(out))

    @settings(max_examples=300, deadline=None)
    @given(kind=st.sampled_from(sorted(FUZZ_SNAPSHOTS)), data=st.data())
    def test_truncation(self, kind, data):
        blob = FUZZ_SNAPSHOTS[kind]
        length = data.draw(st.integers(0, len(blob) - 1), label="length")
        with pytest.raises(IntegrityError):
            load_snapshot(blob[:length])

    @settings(max_examples=300, deadline=None)
    @given(kind=st.sampled_from(sorted(FUZZ_SNAPSHOTS)), data=st.data())
    def test_resealed_byte_change_rejected_or_usable(self, kind, data):
        body = FUZZ_SNAPSHOTS[kind][:-4]
        offset = data.draw(st.integers(0, len(body) - 1), label="offset")
        _resealed_change_rejected_or_usable(body, offset, data.draw(st.integers(1, 255), label="xor"))

    @pytest.mark.parametrize("kind", sorted(FUZZ_SNAPSHOTS))
    def test_every_resealed_byte_xor_0x40_rejected_or_usable(self, kind):
        # one mask at every offset: on the top byte of an f64 zero point near
        # +-1 it makes an infinity or a NaN, signaling ones among them, which
        # sampled offsets and masks can miss
        body = FUZZ_SNAPSHOTS[kind][:-4]
        for offset in range(len(body)):
            _resealed_change_rejected_or_usable(body, offset, 0x40)

    @pytest.mark.parametrize("kind", sorted(FUZZ_SNAPSHOTS))
    @pytest.mark.parametrize("wrap", [bytearray, lambda b: memoryview(bytearray(b))], ids=["bytearray", "memoryview"])
    def test_loaded_cache_shares_no_buffer_with_the_caller(self, kind, wrap):
        # positions, residual rows and packed codes read from a writable buffer
        # must not change when the caller rewrites it
        blob = FUZZ_SNAPSHOTS[kind]
        buf = wrap(blob)
        cache = load_snapshot(buf)
        buf[:] = bytes(len(blob))
        assert dump_snapshot(cache) == blob
        for layer in range(cache.plan.layers):
            assert (cache.positions[layer][:, 1:] > cache.positions[layer][:, :-1]).all()
            cache.materialize_layer(layer)

    @pytest.mark.parametrize("kind", sorted(FUZZ_SNAPSHOTS))
    def test_unmutated_loads(self, kind):
        assert dump_snapshot(load_snapshot(FUZZ_SNAPSHOTS[kind])) == FUZZ_SNAPSHOTS[kind]

    def test_prompt_ending_at_the_u32_limit_decodes_and_dumps(self):
        # decode positions are implied, so ones past u32 are never written
        last = 2**32 - 1
        cache = load_snapshot(_patched(FUZZ_SNAPSHOTS["16bit"], PREFILL_LEN_AT, "<I", last))
        rows = cache.materialize_layer(0)[0].shape[1]
        row = np.arange(cache.heads * cache.head_dim, dtype=np.float32)
        for _ in range(2):
            cache.decode_append(0, row, row)
        restored = load_snapshot(dump_snapshot(cache))
        assert restored.prefill_len == last
        assert restored.materialize_layer(0)[0].shape[1] == rows + 2
        assert dump_snapshot(restored) == dump_snapshot(cache)

    # version 5's bytes for both fixtures: a cache change that alters them is a format change
    @pytest.mark.parametrize("kind, sha256", [
        pytest.param("16bit", "a1989435e99f296880080ee8e3ca17f0de41566a16512583b41b09439f850e75", id="16bit"),
        pytest.param("4bit", "f89908aae3d7d36c5b5a7e4ba6e68edf90e22da70138dd9640ca5869f9000e07", id="4bit"),
    ])
    def test_bytes_are_pinned(self, kind, sha256):
        assert hashlib.sha256(FUZZ_SNAPSHOTS[kind]).hexdigest() == sha256


def _table_at(blob: bytes, q) -> int:
    """Offset of block ``q``'s group table in ``blob``, found by its bytes."""
    table = np.empty(len(q.scales), [("zero", "<f8"), ("scale", "<f8")])
    table["zero"], table["scale"] = q.zero_points, q.scales
    at = blob.find(table.tobytes())
    assert at > 0 and blob.count(table.tobytes()) == 1
    return at


class TestGroupTablesCheckedPerLayer:
    """A layer's group tables are checked in one pass: a forgery in any block, not
    only the first, is rejected with the block constructor's message."""

    @pytest.mark.parametrize("head, side, index", [(0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1)],
                             ids=["second-block", "first-V-block", "later-head", "last-block"])
    @pytest.mark.parametrize("group", ["first", "last"])
    @pytest.mark.parametrize("field, value", [(0, float("nan")), (8, -1.0), (8, 1e300)],
                             ids=["nan-zero", "negative-scale", "scale-past-float32"])
    def test_forged_group_rejected(self, head, side, index, group, field, value):
        blob = FUZZ_SNAPSHOTS["4bit"]
        q = stored_blocks(load_snapshot(blob), 0, head)[side][index]
        at = _table_at(blob, q) + (0 if group == "first" else 16 * (len(q.scales) - 1))
        with pytest.raises(IntegrityError, match="a group's zero or scale is non-finite, negative or past float32"):
            load_snapshot(_patched(blob, at + field, "<d", value))

    def test_blocks_hold_read_only_views_of_one_copy(self):
        cache = load_snapshot(FUZZ_SNAPSHOTS["4bit"])
        blocks = [q for head in range(cache.heads) for side in stored_blocks(cache, 0, head) for q in side]
        assert len(blocks) == 8
        base = blocks[0].zero_points.base
        for q in blocks:
            assert q.zero_points.base is base and q.scales.base is base
            assert not q.zero_points.flags.writeable and not q.scales.flags.writeable
            assert q.zero_points.dtype == q.scales.dtype == np.float64
            assert type(q.packed_codes) is bytes and not q.outliers.flags.writeable


@st.composite
def decoded_caches(draw):
    """A 2-head cache at a drawn bit width, layout, group size and threshold, decoded some steps."""
    bits, layout = draw(st.sampled_from([2, 4, 8])), draw(st.sampled_from(list(Layout)))
    group_size, head_dim = draw(st.integers(1, 9)), draw(st.sampled_from([4, 6, 8]))
    threshold = draw(st.sampled_from([None, 1.5]))
    keys, values, ctxs = make_inputs(1, 2, 24, head_dim, seed=draw(st.integers(0, 2**16)))
    plan = uniform_plan(1, 4, bits, heads=2, head_dim=head_dim, group_size=group_size, layout=layout)
    cache = prefill_compress(keys, values, ctxs, replace(plan, outlier_threshold=threshold), STREAM4)
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    for _ in range(draw(st.integers(0, 2 * group_size + 1))):
        cache.decode_append(0, rng.normal(size=2 * head_dim), rng.normal(size=2 * head_dim))
    return cache


@settings(max_examples=60, deadline=None)
@given(decoded_caches())
def test_loaded_blocks_decode_as_the_fresh_ones(cache):
    # a loaded block decodes its bytes (uniform blocks as one (groups, L)
    # array, others through their code slots); a fresh one carries the
    # decode quantize_matrix made from its codes
    loaded = load_snapshot(dump_snapshot(cache))
    for head in range(cache.heads):
        fresh, back = (sum(stored_blocks(c, 0, head), []) for c in (cache, loaded))
        for q, r in zip(fresh, back, strict=True):
            assert "_decoded" in vars(q) and "_decoded" not in vars(r)
            assert dequantize_matrix(r).tobytes() == dequantize_matrix(q).tobytes()


class TestClone:
    @pytest.mark.parametrize("bits", [4, 16])
    def test_positions_are_one_read_only_array_per_layer(self, bits):
        # fresh, loaded and cloned caches hold each layer's kept positions alike,
        # also when the snapshot came in a writable buffer
        keys, values, ctxs = make_inputs(2, 3, 24, 8, seed=35)
        plan = uniform_plan(2, 4, bits, heads=3, head_dim=8, group_size=8)
        fresh = prefill_compress(keys, values, ctxs, plan, STREAM4)
        blob = dump_snapshot(fresh)
        for cache in (fresh, load_snapshot(blob), load_snapshot(bytearray(blob))):
            clone = cache.clone()
            for layer in range(2):
                p = cache.positions[layer]
                assert p.shape == (3, 64 // bits) and p.dtype == fresh.positions[0].dtype == np.uint32
                assert not p.flags.writeable and clone.positions[layer] is p
                assert np.array_equal(p, fresh.positions[layer])
                with pytest.raises(ValueError, match="read-only"):
                    p[0, 0] = 1

    def test_a_clone_shares_block_decodes_and_a_reload_decodes_its_own(self):
        cache = TestSnapshot().build()
        first = [stored_blocks(c, 0, 0)[0][0] for c in (cache, cache.clone(), load_snapshot(dump_snapshot(cache)))]
        assert dequantize_matrix(first[1]) is dequantize_matrix(first[0])
        assert dequantize_matrix(first[2]) is not dequantize_matrix(first[0])
