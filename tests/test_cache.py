import struct
import zlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kvtrade.budget import plan_bytes
from kvtrade.cache import dump_snapshot, load_snapshot, prefill_compress
from kvtrade.errors import ContractViolation, IntegrityError
from kvtrade.prune import PolicyConfig, PolicyKind
from kvtrade.quant import Layout, dequantize_matrix
from oracles import context_from_probs, uniform_plan


def causal_uniform_attn(n):
    return (np.tril(np.ones((n, n))) / np.arange(1, n + 1)[:, None]).astype(np.float32)


def make_inputs(layers, heads, n, head_dim, seed=0):
    rng = np.random.default_rng(seed)
    keys = [
        [rng.uniform(-2, 2, size=(n, head_dim)).astype(np.float32) for _ in range(heads)]
        for _ in range(layers)
    ]
    values = [
        [rng.uniform(-2, 2, size=(n, head_dim)).astype(np.float32) for _ in range(heads)]
        for _ in range(layers)
    ]
    ctxs = [
        [context_from_probs(causal_uniform_attn(n), n) for _ in range(heads)]
        for _ in range(layers)
    ]
    return keys, values, ctxs


STREAM4 = PolicyConfig(PolicyKind.STREAMING_LLM, recent_window=4)
H2O4 = PolicyConfig(PolicyKind.H2O, recent_window=4)


class TestPrefillCompress:
    def test_lossless_path_identity(self):
        keys, values, ctxs = make_inputs(2, 2, 10, 8)
        plan = uniform_plan(2, 16, 16, heads=2, head_dim=8)
        cache = prefill_compress(keys, values, ctxs, plan, STREAM4)
        for layer in range(2):
            for head in range(2):
                k, v = cache.materialize(layer, head)
                assert np.array_equal(k, keys[layer][head])
                assert np.array_equal(v, values[layer][head])

    def test_full_budget_4bit_within_bound(self):
        keys, values, ctxs = make_inputs(1, 1, 12, 16)
        plan = uniform_plan(1, 4, 4, heads=1, head_dim=16)  # 16 tokens >= n
        cache = prefill_compress(keys, values, ctxs, plan, STREAM4)
        k, _ = cache.materialize(0, 0)
        entry = cache.entry(0, 0)
        s_max = entry.quant_k[0].scales.max()
        assert k.shape == keys[0][0].shape
        assert np.abs(k - keys[0][0]).max() <= s_max / 2 + 1e-6

    def test_streaming_positions(self):
        keys, values, ctxs = make_inputs(1, 1, 10, 8)
        plan = uniform_plan(1, 6, 16, heads=1, head_dim=8)
        cache = prefill_compress(keys, values, ctxs, plan, STREAM4)
        assert cache.entry(0, 0).positions == [0, 1, 6, 7, 8, 9]
        k, _ = cache.materialize(0, 0)
        assert np.array_equal(k, keys[0][0][[0, 1, 6, 7, 8, 9], :])

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

    def test_later_head_of_another_shape_rejected(self):
        # the first head fixes n x head_dim; the second layer's second head is a row short
        keys, values, ctxs = make_inputs(2, 2, 10, 8)
        keys[1][1] = keys[1][1][:9]
        plan = uniform_plan(2, 4, 4, heads=2, head_dim=8)
        with pytest.raises(ContractViolation, match="inconsistent K/V shape at layer 1 head 1"):
            prefill_compress(keys, values, ctxs, plan, H2O4)

    @pytest.mark.parametrize(
        "malform",
        [
            pytest.param(lambda k, v, c: k[1].pop(), id="fewer-key-heads"),
            pytest.param(lambda k, v, c: k[1].append(k[1][0]), id="more-key-heads"),
            pytest.param(lambda k, v, c: v[1].pop(), id="fewer-value-heads"),
            pytest.param(lambda k, v, c: v.pop(), id="fewer-value-layers"),
            pytest.param(lambda k, v, c: c.pop(), id="fewer-ctx-layers"),
            pytest.param(lambda k, v, c: c[1].pop(), id="fewer-ctx-heads"),
            pytest.param(lambda k, v, c: [row.clear() for row in (*k, *v, *c)], id="no-heads"),
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

    def test_conservation_after_prefill(self):
        keys, values, ctxs = make_inputs(3, 2, 50, 8, seed=4)
        plan = uniform_plan(3, 20, 8, heads=2, head_dim=8)  # 40 tokens per layer
        cache = prefill_compress(keys, values, ctxs, plan, STREAM4)
        for layer in range(3):
            for head in range(2):
                assert len(cache.entry(layer, head).positions) == min(40, 50)


class TestDecodeAppend:
    def make_cache(self, bits=4, group=4, layout=Layout.PER_TOKEN, n=12, head_dim=8):
        keys, values, ctxs = make_inputs(1, 1, n, head_dim, seed=2)
        plan = uniform_plan(
            1, 16, bits, heads=1, head_dim=head_dim, group_size=group, layout=layout
        )
        return prefill_compress(keys, values, ctxs, plan, STREAM4)

    def test_single_append_goes_to_residual(self):
        cache = self.make_cache()
        before = len(cache.entry(0, 0).quant_k)
        cache.decode_append(0, 0, np.ones(8), np.ones(8))
        e = cache.entry(0, 0)
        assert e.residual_k.shape[0] == 1
        assert len(e.quant_k) == before

    def test_flush_at_group_size(self):
        cache = self.make_cache(group=4)
        rng = np.random.default_rng(0)
        for _ in range(4):
            cache.decode_append(0, 0, rng.normal(size=8), rng.normal(size=8))
        e = cache.entry(0, 0)
        assert e.residual_k.shape[0] == 0
        assert len(e.quant_k) == 2  # prefill block + flushed block
        assert e.quant_k[-1].shape == (4, 8)

    def test_16bit_append_bit_exact(self):
        cache = self.make_cache(bits=16)
        row_k = np.linspace(-1, 1, 8).astype(np.float32)
        row_v = np.linspace(1, -1, 8).astype(np.float32)
        cache.decode_append(0, 0, row_k, row_v)
        k, v = cache.materialize(0, 0)
        assert np.array_equal(k[-1], row_k)
        assert np.array_equal(v[-1], row_v)

    def test_16bit_layer_is_all_residual(self):
        # 16-bit layers keep every row in the residual, past any group size
        cache = self.make_cache(bits=16, group=4, n=12)
        prompt_k, prompt_v = (m.copy() for m in cache.materialize(0, 0))
        rng = np.random.default_rng(7)
        rows_k, rows_v = [], []
        for _ in range(9):
            rows_k.append(rng.normal(size=8).astype(np.float32))
            rows_v.append(rng.normal(size=8).astype(np.float32))
            before = cache.measured_bytes()
            cache.decode_append(0, 0, rows_k[-1], rows_v[-1])
            assert cache.measured_bytes() - before == 2 * 8 * 2
            assert cache.entry(0, 0).quant_k == [] and cache.entry(0, 0).quant_v == []
        k, v = cache.materialize(0, 0)
        assert np.array_equal(k, np.concatenate([prompt_k, np.stack(rows_k)]))
        assert np.array_equal(v, np.concatenate([prompt_v, np.stack(rows_v)]))

    def test_residual_stays_under_group_size(self):
        cache = self.make_cache(group=4)
        rng = np.random.default_rng(1)
        for _ in range(19):
            cache.decode_append(0, 0, rng.normal(size=8), rng.normal(size=8))
            assert cache.entry(0, 0).residual_k.shape[0] < 4

    def test_positions_strictly_increasing(self):
        cache = self.make_cache(group=4, n=12)
        rng = np.random.default_rng(3)
        for _ in range(9):
            cache.decode_append(0, 0, rng.normal(size=8), rng.normal(size=8))
        pos = cache.entry(0, 0).positions
        assert pos == sorted(pos)
        assert len(set(pos)) == len(pos)
        assert pos[-9:] == list(range(12, 21))

    def test_per_channel_flush_makes_token_spanning_groups(self):
        cache = self.make_cache(group=4, layout=Layout.PER_CHANNEL)
        rng = np.random.default_rng(5)
        for _ in range(4):
            cache.decode_append(0, 0, rng.normal(size=8), rng.normal(size=8))
        block = cache.entry(0, 0).quant_k[-1]
        # one group of 4 tokens per channel
        assert block.lengths.tolist() == [4] * 8

    def test_decode_outliers_survive_flush_exactly(self):
        keys, values, ctxs = make_inputs(1, 1, 12, 8, seed=20)
        plan = uniform_plan(1, 16, 4, heads=1, head_dim=8, group_size=4)
        cache = prefill_compress(keys, values, ctxs, replace(plan, outlier_threshold=6.0), STREAM4)
        spike = np.zeros(8, dtype=np.float32)
        spike[3] = 9.75
        rng = np.random.default_rng(21)
        for step in range(4):  # fills one group, flushing the spike row
            row = spike if step == 0 else rng.normal(size=8).astype(np.float32)
            cache.decode_append(0, 0, row, row)
        e = cache.entry(0, 0)
        assert e.residual_k.shape[0] == 0
        assert e.quant_k[-1].outliers.tolist() == [(0, 3, 9.75)]
        k, _ = cache.materialize(0, 0)
        assert k[12, 3] == np.float32(9.75)

    def test_conservation_during_decode(self):
        cache = self.make_cache(group=4, n=12)
        base = len(cache.entry(0, 0).positions)
        rng = np.random.default_rng(6)
        for t in range(7):
            cache.decode_append(0, 0, rng.normal(size=8), rng.normal(size=8))
            assert len(cache.entry(0, 0).positions) == base + t + 1

    def test_wrong_width_rejected(self):
        cache = self.make_cache()
        with pytest.raises(ContractViolation):
            cache.decode_append(0, 0, np.ones(5), np.ones(5))

    @pytest.mark.parametrize("shape", [(2, 4), (8, 1), (1, 1, 8), (2, 8), (16,), ()])
    @pytest.mark.parametrize("side", ["k", "v"])
    def test_row_shape_rejected_and_cache_unchanged(self, shape, side):
        # (2, 4), (8, 1) and (1, 1, 8) hold 8 values, but not as one row
        cache = self.make_cache()
        before = dump_snapshot(cache)
        rows = (np.ones(shape), np.ones(8)) if side == "k" else (np.ones(8), np.ones(shape))
        with pytest.raises(ContractViolation, match="shaped"):
            cache.decode_append(0, 0, *rows)
        assert dump_snapshot(cache) == before

    def test_row_and_one_row_matrix_append_alike(self):
        flat, one_row = self.make_cache(), self.make_cache()
        flat.decode_append(0, 0, np.arange(8.0), np.ones(8))
        one_row.decode_append(0, 0, np.arange(8.0).reshape(1, 8), np.ones((1, 8)))
        assert dump_snapshot(flat) == dump_snapshot(one_row)

    @pytest.mark.parametrize("layer, head", [(-1, 0), (0, -1), (1, 0), (0, 1), (5, 5)])
    def test_index_outside_cache_rejected_and_cache_unchanged(self, layer, head):
        # a negative index must not wrap to the last layer or head
        cache = self.make_cache()
        before = dump_snapshot(cache)
        with pytest.raises(ContractViolation, match="outside"):
            cache.decode_append(layer, head, np.ones(8), np.ones(8))
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
            cache.decode_append(0, 0, rng.normal(size=8), rng.normal(size=8))
        before = dump_snapshot(cache)
        row = np.ones(8)
        row[5] = bad
        rows = (row, np.ones(8)) if side == "k" else (np.ones(8), row)
        with pytest.raises(ContractViolation, match="finite"):
            cache.decode_append(0, 0, *rows)
        assert dump_snapshot(cache) == before

    @pytest.mark.parametrize("big", [1e300, -1e300])
    @pytest.mark.parametrize("as_list", [False, True], ids=["array", "list"])
    def test_row_past_float32_rejected_not_warned(self, big, as_list):
        # pytest turns the cast's overflow RuntimeWarning into an error
        cache = self.make_cache()
        before = dump_snapshot(cache)
        row = np.ones(8)
        row[2] = big
        with pytest.raises(ContractViolation, match="finite"):
            cache.decode_append(0, 0, row.tolist() if as_list else row, np.ones(8))
        assert dump_snapshot(cache) == before


class TestMaterialize:
    def test_round_trip_bound(self):
        keys, values, ctxs = make_inputs(1, 1, 20, 8, seed=7)
        plan = uniform_plan(1, 8, 4, heads=1, head_dim=8, group_size=8)
        cache = prefill_compress(keys, values, ctxs, plan, STREAM4)
        idx = cache.entry(0, 0).positions
        k, _ = cache.materialize(0, 0)
        gathered = keys[0][0][idx, :]
        s_max = cache.entry(0, 0).quant_k[0].scales.max()
        assert np.abs(k - gathered).max() <= s_max / 2 + 1e-6

    def test_outlier_rows_exact(self):
        keys, values, ctxs = make_inputs(1, 1, 16, 8, seed=8)
        keys[0][0][3, 5] = 42.5  # position 3 is retained by streaming sinks
        plan = uniform_plan(1, 8, 4, heads=1, head_dim=8, group_size=8)
        cache = prefill_compress(keys, values, ctxs, replace(plan, outlier_threshold=6.0), STREAM4)
        idx = cache.entry(0, 0).positions
        assert 3 in idx
        k, _ = cache.materialize(0, 0)
        assert k[idx.index(3), 5] == np.float32(42.5)

    @pytest.mark.parametrize("appends", [0, 3], ids=["blocks-only", "blocks-and-residual"])
    def test_writing_the_result_leaves_the_cache_unchanged(self, appends):
        keys, values, ctxs = make_inputs(1, 1, 20, 8, seed=9)
        plan = uniform_plan(1, 8, 4, heads=1, head_dim=8, group_size=8)
        cache = prefill_compress(keys, values, ctxs, plan, STREAM4)
        rng = np.random.default_rng(10)
        for _ in range(appends):
            cache.decode_append(0, 0, rng.normal(size=8), rng.normal(size=8))
        e = cache.entry(0, 0)
        assert e.quant_k and e.residual_k.shape[0] == appends
        k, v = cache.materialize(0, 0)
        expected = k.tobytes(), v.tobytes()
        k[:] = 7.0
        v[:] = 7.0
        k, v = cache.materialize(0, 0)
        assert (k.tobytes(), v.tobytes()) == expected


class TestMeasuredBytes:
    def test_empty_like_cache(self):
        keys, values, ctxs = make_inputs(1, 1, 8, 8)
        plan = uniform_plan(1, 8, 16, heads=1, head_dim=8)
        cache = prefill_compress(keys, values, ctxs, plan, STREAM4)
        # 8 tokens of 8 dims, K and V, 2 bytes each
        assert cache.measured_bytes() == 2 * 8 * 8 * 2

    def test_matches_plan_bytes_with_full_groups(self):
        n, head_dim = 64, 64
        keys, values, ctxs = make_inputs(2, 2, n, head_dim, seed=9)
        plan = uniform_plan(2, 8, 4, heads=2, head_dim=head_dim, group_size=64)
        cache = prefill_compress(keys, values, ctxs, plan, STREAM4)
        assert cache.measured_bytes() == plan_bytes(plan, 2, head_dim)

    def test_grows_per_append_before_flush(self):
        keys, values, ctxs = make_inputs(1, 1, 12, 8, seed=10)
        plan = uniform_plan(1, 16, 4, heads=1, head_dim=8, group_size=64)
        cache = prefill_compress(keys, values, ctxs, plan, STREAM4)
        before = cache.measured_bytes()
        cache.decode_append(0, 0, np.ones(8), np.ones(8))
        assert cache.measured_bytes() - before == 8 * 2 * 2

    def test_monotone_between_flushes(self):
        # bytes grow step by step while the residual fills; a flush converts
        # the fp16 residual into a quantized block, which shrinks the total
        # by exactly the compression gain
        keys, values, ctxs = make_inputs(1, 1, 12, 8, seed=11)
        plan = uniform_plan(1, 16, 4, heads=1, head_dim=8, group_size=4)
        cache = prefill_compress(keys, values, ctxs, plan, STREAM4)
        rng = np.random.default_rng(12)
        last = cache.measured_bytes()
        for _ in range(10):
            cache.decode_append(0, 0, rng.normal(size=8), rng.normal(size=8))
            now = cache.measured_bytes()
            if cache.entry(0, 0).residual_k.shape[0] == 0:
                # flush: 3 buffered fp16 rows (96 B across K and V) plus the
                # new row became one 4x8 4-bit block per matrix; each row
                # packs as two groups of 4 codes (2 code bytes + 2 metadata)
                freed_residual = 3 * 8 * 2 * 2
                block_cost = 2 * (4 * 2 * (2 + 2))
                assert now == last - freed_residual + block_cost
            else:
                assert now > last
            last = now

    def test_monotone_during_decode_16bit(self):
        keys, values, ctxs = make_inputs(1, 1, 12, 8, seed=11)
        plan = uniform_plan(1, 16, 16, heads=1, head_dim=8)
        cache = prefill_compress(keys, values, ctxs, plan, STREAM4)
        rng = np.random.default_rng(12)
        last = cache.measured_bytes()
        for _ in range(10):
            cache.decode_append(0, 0, rng.normal(size=8), rng.normal(size=8))
            now = cache.measured_bytes()
            assert now > last
            last = now


class TestSnapshot:
    def build(self, threshold=6.0):
        keys, values, ctxs = make_inputs(2, 2, 24, 8, seed=13)
        plan = uniform_plan(2, 4, 4, heads=2, head_dim=8, group_size=8)
        cache = prefill_compress(keys, values, ctxs, replace(plan, outlier_threshold=threshold), STREAM4)
        rng = np.random.default_rng(14)
        for layer in range(2):
            for head in range(2):
                for _ in range(5):
                    cache.decode_append(layer, head, rng.normal(size=8), rng.normal(size=8))
        return cache

    def test_round_trip(self):
        cache = self.build()
        blob = dump_snapshot(cache)
        restored = load_snapshot(blob)
        for layer in range(2):
            for head in range(2):
                k1, v1 = cache.materialize(layer, head)
                k2, v2 = restored.materialize(layer, head)
                assert np.array_equal(k1, k2)
                assert np.array_equal(v1, v2)
                assert cache.entry(layer, head).positions == restored.entry(
                    layer, head
                ).positions
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
        for version in (1, 2, 3):
            blob = bytearray(dump_snapshot(self.build()))
            struct.pack_into("<H", blob, 4, version)
            with pytest.raises(IntegrityError, match=f"version {version}"):
                load_snapshot(bytes(blob))

    def test_full_precision_sections_round_trip(self):
        keys, values, ctxs = make_inputs(1, 2, 16, 8, seed=17)
        plan = uniform_plan(1, 12, 16, heads=2, head_dim=8)
        cache = prefill_compress(keys, values, ctxs, plan, STREAM4)
        rng = np.random.default_rng(18)
        for head in range(2):
            cache.decode_append(0, head, rng.normal(size=8), rng.normal(size=8))
        restored = load_snapshot(dump_snapshot(cache))
        for head in range(2):
            k1, v1 = cache.materialize(0, head)
            k2, v2 = restored.materialize(0, head)
            assert np.array_equal(k1, k2) and np.array_equal(v1, v2)
        assert restored.measured_bytes() == cache.measured_bytes()


SNAPSHOT_HEADER = 4 + struct.calcsize("<HHHIIBdIq")
LAYERS_AT, GROUP_SIZE_AT, LAYOUT_AT, THRESHOLD_AT, PREFILL_LEN_AT = 6, 14, 18, 19, 27
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
        e = cache.entry(0, 0)
        assert struct.unpack_from("<IB", blob, PLAN_TOKENS_AT) == (16, 4)
        assert len(e.positions) == 16 and len(e.quant_k) == 1 and e.residual_k.size == 0
        # plan row, position count; then the K prompt block: outlier count,
        # two outliers, 16 groups (f64 zero, f64 scale), 16 * 4 code bytes
        at = {"positions": SNAPSHOT_HEADER + 5 + 4}
        at["block"] = at["positions"] + 4 * 16
        at["outliers"] = at["block"] + 4
        at["table"] = at["outliers"] + 2 * 12
        at["codes"] = at["table"] + 16 * 16
        assert struct.unpack_from("<I", blob, at["block"])[0] == 2
        assert struct.unpack_from("<IIf", blob, at["outliers"] + 12) == (15, 5, -7.25)
        assert struct.unpack_from("<d", blob, at["table"] + 8)[0] == e.quant_k[0].scales[0]
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
        # with no prompt, every kept position is a decode row: no prompt block to read
        blob, _ = snapshot
        assert struct.unpack_from("<I", blob, PREFILL_LEN_AT)[0] == 24
        with pytest.raises(IntegrityError, match="a quantized entry holds no prompt rows"):
            load_snapshot(_patched(blob, PREFILL_LEN_AT, "<I", 0))

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_residual_rejected(self, value):
        # a 16-bit head keeps every row in the residual: plan row, position
        # count, four positions, then the first K value
        keys, values, ctxs = make_inputs(1, 1, 24, 8, seed=13)
        plan = uniform_plan(1, 4, 16, heads=1, head_dim=8, group_size=8)
        blob = dump_snapshot(prefill_compress(keys, values, ctxs, plan, STREAM4))
        at = SNAPSHOT_HEADER + 5 + 4 + 4 * 4
        assert struct.unpack_from("<f", blob, at)[0] == keys[0][0][20, 0]
        with pytest.raises(IntegrityError, match="residual values must be finite"):
            load_snapshot(_patched(blob, at, "<f", value))

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
        for head in range(2):
            row = rng.normal(size=8).astype(np.float32)
            row[5] = -8.25 if step == 1 else row[5]  # a flushed decode outlier
            quantized.decode_append(0, head, row, row)
            full.decode_append(0, head, row, row)
    e = quantized.entry(0, 0)
    assert len(e.quant_k) == 2 and e.residual_k.shape[0] == 2
    assert e.quant_k[0].outliers and e.quant_k[1].outliers
    assert not full.entry(0, 0).quant_k and full.entry(0, 0).residual_k.shape[0] == 12
    return {"4bit": dump_snapshot(quantized), "16bit": dump_snapshot(full)}


FUZZ_SNAPSHOTS = _fuzz_snapshots()


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
        # past the checksum, the structural checks either reject the bytes
        # or leave a cache that every cache operation accepts
        body = bytearray(FUZZ_SNAPSHOTS[kind][:-4])
        offset = data.draw(st.integers(0, len(body) - 1), label="offset")
        body[offset] ^= data.draw(st.integers(1, 255), label="xor")
        try:
            cache = load_snapshot(_sealed(bytes(body)))
        except IntegrityError:
            return
        for layer in range(cache.plan.layers):
            for head in range(cache.heads):
                k, v = cache.materialize(layer, head)
                assert np.isfinite(k).all() and np.isfinite(v).all()
                cache.decode_append(layer, head, np.ones(cache.head_dim), np.ones(cache.head_dim))
        load_snapshot(dump_snapshot(cache))

    @pytest.mark.parametrize("kind", sorted(FUZZ_SNAPSHOTS))
    def test_unmutated_loads(self, kind):
        assert dump_snapshot(load_snapshot(FUZZ_SNAPSHOTS[kind])) == FUZZ_SNAPSHOTS[kind]


class TestClone:
    def test_clone_isolates_decode(self):
        keys, values, ctxs = make_inputs(1, 1, 12, 8, seed=15)
        plan = uniform_plan(1, 16, 4, heads=1, head_dim=8, group_size=4)
        cache = prefill_compress(keys, values, ctxs, plan, STREAM4)
        snapshot = dump_snapshot(cache)
        clone = cache.clone()
        rng = np.random.default_rng(16)
        for _ in range(6):
            clone.decode_append(0, 0, rng.normal(size=8), rng.normal(size=8))
        assert dump_snapshot(cache) == snapshot
        assert len(clone.entry(0, 0).positions) == len(cache.entry(0, 0).positions) + 6

    def test_copies_of_a_decoded_cache_materialize_identically(self):
        cache = TestSnapshot().build()
        decoded = [cache.materialize(layer, head) for layer in range(2) for head in range(2)]
        clone = cache.clone()
        restored = load_snapshot(dump_snapshot(cache))
        for copy in (clone, restored):
            got = [copy.materialize(layer, head) for layer in range(2) for head in range(2)]
            for (k1, v1), (k2, v2) in zip(decoded, got):
                assert k1.tobytes() == k2.tobytes() and v1.tobytes() == v2.tobytes()
        # a clone shares the blocks and their decode; a reload decodes its own
        block = cache.entry(0, 0).quant_k[0]
        assert dequantize_matrix(clone.entry(0, 0).quant_k[0]) is dequantize_matrix(block)
        assert dequantize_matrix(restored.entry(0, 0).quant_k[0]) is not dequantize_matrix(block)
