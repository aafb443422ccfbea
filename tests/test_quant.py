import itertools
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kvtrade.errors import ContractViolation, IntegrityError
from kvtrade.quant import (
    _NO_OUTLIERS,
    Layout,
    QuantConfig,
    QuantizedTensor,
    check_group_tables,
    dequantize_matrix,
    pack_codes,
    quantize_matrix,
    quantized_bytes,
    quantized_bytes_for_shape,
    unpack_codes,
)
from oracles import dequantize_group, error_bound_matrix, pack_group, quantize_group, reference_dequantize

FIELDS = ("shape", "bits", "group_size", "layout", "zero_points", "scales", "packed_codes", "outliers")

value_lists = st.lists(
    st.floats(-1e4, 1e4, allow_nan=False, width=32), min_size=1, max_size=80
)


class TestQuantizeGroup:
    def test_hand_example_4bit(self):
        g = quantize_group([-1.0, 0.0, 1.0, 2.0], 4)
        assert g.zero_point == -1.0
        assert g.scale == pytest.approx(0.2)
        assert g.codes.tolist() == [0, 5, 10, 15]

    def test_constant_group_degenerates(self):
        g = quantize_group([3.7, 3.7, 3.7], 2)
        assert (g.zero_point, g.scale) == (pytest.approx(3.7), 0.0)
        assert g.codes.tolist() == [0, 0, 0]

    def test_lattice_points_exact(self):
        g = quantize_group([0, 1, 2, 3], 2)
        assert (g.zero_point, g.scale) == (0.0, 1.0)
        assert g.codes.tolist() == [0, 1, 2, 3]

    def test_empty_rejected(self):
        with pytest.raises(ContractViolation):
            quantize_group([], 4)

    def test_non_finite_rejected(self):
        with pytest.raises(ContractViolation):
            quantize_group([1.0, float("nan")], 4)

    @given(value_lists, st.sampled_from([2, 4, 8]))
    def test_codes_in_range(self, values, bits):
        g = quantize_group(values, bits)
        assert g.codes.max(initial=0) <= (1 << bits) - 1

    def test_codes_in_range_extreme_magnitudes(self):
        rng = np.random.default_rng(11)
        for bits in (2, 4, 8):
            for _ in range(200):
                scale = 10.0 ** rng.integers(-20, 30)
                vals = rng.normal(size=rng.integers(1, 65)) * scale
                g = quantize_group(vals, bits)
                assert g.codes.max() <= (1 << bits) - 1


class TestDequantizeGroup:
    def test_inverts_hand_example(self):
        g = quantize_group([-1.0, 0.0, 1.0, 2.0], 4)
        assert dequantize_group(g).tolist() == [-1.0, 0.0, 1.0, 2.0]

    def test_degenerate_returns_zero_point(self):
        g = quantize_group([3.7, 3.7, 3.7], 2)
        assert dequantize_group(g).tolist() == [3.7, 3.7, 3.7]

    def test_round_trip_bound_random_draws(self):
        # brute force: error against every element, bound s/2 + 1e-6
        rng = np.random.default_rng(0)
        for _ in range(300):
            vals = rng.uniform(-5, 5, size=rng.integers(1, 65))
            for bits in (2, 4, 8):
                g = quantize_group(vals, bits)
                err = np.abs(dequantize_group(g) - vals).max()
                assert err <= g.scale / 2 + 1e-6

    @given(value_lists, st.sampled_from([2, 4, 8]))
    def test_round_trip_bound_property(self, values, bits):
        v = np.asarray(values, dtype=np.float64)
        g = quantize_group(v, bits)
        err = np.abs(dequantize_group(g) - v).max()
        assert err <= g.scale / 2 + 1e-6

    @given(
        st.floats(-100, 100, allow_nan=False),
        st.floats(0.01, 10.0, allow_nan=False),
        st.sampled_from([2, 4, 8]),
        st.data(),
    )
    def test_lattice_values_round_trip(self, zero, step, bits, data):
        # values already of the form z + k*s round-trip to 1e-5 relative;
        # k = 0 and k = 2**bits - 1 must be present so the group derives s = step
        top = (1 << bits) - 1
        inner = data.draw(st.lists(st.integers(0, top), max_size=30))
        ks = np.array([0, top] + inner)
        vals = zero + ks * step
        g = quantize_group(vals, bits)
        out = dequantize_group(g)
        assert np.abs(out - vals).max() <= 1e-5 * max(1.0, np.abs(vals).max())


class TestPacking:
    def test_little_endian_4bit(self):
        assert pack_codes(np.array([0x1, 0x2], dtype=np.uint8), 4) == b"\x21"

    def test_little_endian_2bit(self):
        # codes 1,2,3,0 -> 0b00_11_10_01
        assert pack_codes(np.array([1, 2, 3, 0], dtype=np.uint8), 2) == bytes([0b00111001])

    def test_8bit_identity(self):
        assert pack_codes(np.array([7, 255], dtype=np.uint8), 8) == b"\x07\xff"

    def test_group_pads_to_byte_boundary(self):
        assert pack_codes(np.array([3], dtype=np.uint8), 2) == b"\x03"
        assert len(pack_codes(np.arange(5, dtype=np.uint8) % 4, 2)) == 2

    @given(
        st.lists(st.integers(0, 3), min_size=1, max_size=40),
        st.sampled_from([2, 4, 8]),
    )
    def test_round_trip(self, codes, bits):
        arr = np.array(codes, dtype=np.uint8)
        assert pack_codes(arr, bits) == pack_group(codes, bits)
        assert unpack_codes(pack_codes(arr, bits), bits, len(codes)).tolist() == codes


class TestQuantizeMatrix:
    def test_single_row_composes_group_example(self):
        q = quantize_matrix(np.array([[0, 1, 2, 3]], dtype=np.float32), QuantConfig(2, 4))
        assert q.lengths.tolist() == [4]
        assert unpack_codes(q.packed_codes, 2, 4).tolist() == [0, 1, 2, 3]

    @pytest.mark.parametrize("nbytes", [1, 3], ids=["short", "long"])
    def test_unpack_rejects_a_buffer_of_another_length(self, nbytes):
        # four 4-bit codes pack into 2 bytes
        with pytest.raises(IntegrityError, match="expected 2"):
            unpack_codes(bytes(nbytes), 4, 4)

    def test_outlier_extraction(self):
        m = np.array([[100.0], [0.5]], dtype=np.float32)
        q = quantize_matrix(m, QuantConfig(4, 64, Layout.PER_TOKEN, outlier_threshold=6.0))
        assert q.outliers.tolist() == [(0, 0, 100.0)]
        assert q.lengths.tolist() == [1]
        assert q.zero_points[0] == 0.5

    def test_8bit_identity_error_bound(self):
        rng = np.random.default_rng(3)
        m = rng.uniform(-4, 4, size=(8, 32)).astype(np.float32)
        q = quantize_matrix(m, QuantConfig(8, 64))
        out = dequantize_matrix(q)
        bound = np.abs(m).max() * (2.0 / 255.0) + 1e-6
        assert np.abs(out - m).max() <= bound

    def test_empty_rejected(self):
        with pytest.raises(ContractViolation):
            quantize_matrix(np.zeros((0, 4), dtype=np.float32), QuantConfig(4))

    @pytest.mark.parametrize(
        "bad, threshold",
        [(float("nan"), None), (float("inf"), None), (float("inf"), 6.0), (-float("inf"), 6.0)],
    )
    def test_non_finite_rejected(self, bad, threshold):
        # rejected before outlier extraction, so Inf cannot become an outlier
        m = np.zeros((2, 4), dtype=np.float32)
        m[1, 2] = bad
        with pytest.raises(ContractViolation):
            quantize_matrix(m, QuantConfig(4, 4, outlier_threshold=threshold))

    @pytest.mark.parametrize("m", [[["a", "b"]], np.array([["1.0", "2.0"]]), [[1.0, None]]],
                             ids=["letters", "numeric_strings", "objects"])
    def test_values_that_are_not_numbers_rejected(self, m):
        with pytest.raises(ContractViolation, match="must hold numbers"):
            quantize_matrix(m, QuantConfig(4, 4))

    @pytest.mark.parametrize("threshold", [-1.0, float("nan")])
    def test_threshold_below_zero_or_nan_rejected(self, threshold):
        # a NaN threshold compares false with every value, so every value would be an outlier
        with pytest.raises(ContractViolation, match="outlier_threshold"):
            QuantConfig(4, 4, outlier_threshold=threshold)

    def test_all_outliers_make_no_groups(self):
        m = np.full((2, 3), 9.0, dtype=np.float32)
        q = quantize_matrix(m, QuantConfig(4, 4, Layout.PER_CHANNEL, outlier_threshold=1.0))
        assert (q.lengths.size, q.packed_codes, len(q.outliers)) == (0, b"", 6)
        assert np.array_equal(dequantize_matrix(q), m)

    def test_partial_trailing_group(self):
        m = np.arange(10, dtype=np.float32).reshape(1, 10)
        q = quantize_matrix(m, QuantConfig(4, 4))
        assert q.lengths.tolist() == [4, 4, 2]

    def test_per_channel_groups_run_down_columns(self):
        m = np.arange(12, dtype=np.float32).reshape(4, 3)
        q = quantize_matrix(m, QuantConfig(4, 2, Layout.PER_CHANNEL))
        # column 0 is [0, 3, 6, 9]: first group [0, 3]
        assert q.zero_points[0] == 0.0
        assert q.lengths[0] == 2
        assert dequantize_matrix(q)[:2, 0].tolist() == [0.0, 3.0]

    def test_matches_per_group_reference(self):
        # the block path must agree with quantize_group and pack_group exactly,
        # with outliers removed from each run and partial tail groups
        rng = np.random.default_rng(9)
        m = (rng.normal(size=(6, 50)) * 2).astype(np.float32)
        m[:, 4] = 1.5  # a constant column
        for threshold, (bits, group), layout in itertools.product(
            [None, 1.0, 2.0, 6.0], [(2, 7), (4, 16), (8, 50), (4, 64)], Layout
        ):
            q = quantize_matrix(m, QuantConfig(bits, group, layout, threshold))
            limit = np.inf if threshold is None else threshold
            runs = m if layout == Layout.PER_TOKEN else m.T
            keep = np.abs(runs) <= limit
            expected = []
            for row, kept in zip(runs, keep):
                vals = row[kept]
                for start in range(0, vals.size, group):
                    expected.append(quantize_group(vals[start : start + group], bits))
            assert q.lengths.tolist() == [g.length for g in expected]
            assert q.zero_points.tolist() == [g.zero_point for g in expected]
            assert q.scales.tolist() == [g.scale for g in expected]
            assert q.packed_codes == b"".join(pack_group(g.codes, bits) for g in expected)
            r, c = np.nonzero(np.abs(m) > limit)
            assert q.outliers.tolist() == list(zip(r.tolist(), c.tolist(), m[r, c].tolist()))


class TestDequantizeMatrix:
    def test_constant_matrix_exact(self):
        m = np.full((3, 5), 2.5, dtype=np.float32)
        q = quantize_matrix(m, QuantConfig(2, 4))
        assert np.array_equal(dequantize_matrix(q), m)

    def test_outliers_bit_exact(self):
        rng = np.random.default_rng(5)
        m = rng.normal(size=(6, 16)).astype(np.float32)
        m[2, 3] = 77.125
        m[5, 0] = -123.5
        q = quantize_matrix(m, QuantConfig(2, 8, Layout.PER_TOKEN, outlier_threshold=6.0))
        out = dequantize_matrix(q)
        assert out[2, 3] == np.float32(77.125)
        assert out[5, 0] == np.float32(-123.5)

    def test_random_matrix_per_group_bound(self):
        # brute-force verification per group against the stated bound
        rng = np.random.default_rng(7)
        m = rng.uniform(-3, 3, size=(8, 64)).astype(np.float32)
        q = quantize_matrix(m, QuantConfig(4, 64))
        out = dequantize_matrix(q)
        for r in range(8):
            err = np.abs(out[r] - m[r]).max()
            assert err <= q.scales[r] / 2 + 1e-6

    def test_corrupted_packing_detected(self):
        q = quantize_matrix(np.arange(8, dtype=np.float32).reshape(2, 4), QuantConfig(4, 4))
        with pytest.raises(IntegrityError):
            QuantizedTensor(
                shape=q.shape,
                bits=q.bits,
                group_size=q.group_size,
                layout=q.layout,
                zero_points=q.zero_points,
                scales=q.scales,
                packed_codes=q.packed_codes[:-1],
                outliers=q.outliers,
            )

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"outliers": [(-1, 1, 9.0)]}, "convert"),
            ({"outliers": [(2**32, 1, 9.0)]}, "convert"),
            ({"outliers": [(0, 1)]}, "convert"),
            ({"outliers": [(0, 1, 1e300)]}, "finite"),
            ({"outliers": [(0, 1, float("nan"))]}, "finite"),
            ({"outliers": [(1, 1, 9.0)]}, "inside the shape"),
            ({"outliers": [(0, 1, 9.0), (0, 1, 8.0)]}, "strictly increasing"),
            ({"outliers": [(0, 2, 9.0), (0, 1, 8.0)]}, "strictly increasing"),
            ({"group_size": 0}, "group_size"),
            ({"bits": 3}, "bits must be one of"),
            # the v3 forgery: two groups merged into one table entry
            ({"group_size": 2, "zero_points": [0.0], "scales": [1.0]}, "2 groups"),
        ],
        ids=[
            "negative-row", "row-past-u32", "short-record", "value-past-f32", "nan-value",
            "outside-shape", "repeated", "unsorted", "group-size-0", "bits-3", "merged-groups",
        ],
    )
    def test_invalid_block_rejected(self, changes, message):
        # one row of 4 at group size 4; its outlier leaves 3 codes, 2 packed bytes
        fields = dict(
            shape=(1, 4), bits=4, group_size=4, layout=Layout.PER_TOKEN, zero_points=[0.0],
            scales=[1.0], packed_codes=bytes(2), outliers=[(0, 1, 9.0)],
        )
        QuantizedTensor(**fields)
        with pytest.raises(IntegrityError, match=message):
            QuantizedTensor(**{**fields, **changes})

    def test_group_arrays_read_only(self):
        # 7.0 is an outlier, so the derived lengths are [4, 3]
        cfg = QuantConfig(4, 4, outlier_threshold=6.5)
        q = quantize_matrix(np.arange(8, dtype=np.float32).reshape(2, 4), cfg)
        assert q.lengths.tolist() == [4, 3] and q.outliers.tolist() == [(1, 3, 7.0)]
        for arr in (q.scales, q.lengths, q.outliers):
            with pytest.raises(ValueError):
                arr[0] = arr[1 % len(arr)]

    def test_decoded_once_shared_and_read_only(self):
        q = quantize_matrix(np.arange(8, dtype=np.float32).reshape(2, 4), QuantConfig(4, 4))
        first = dequantize_matrix(q)
        assert dequantize_matrix(q) is first
        with pytest.raises(ValueError):
            first[0, 0] = 1.0
        assert np.array_equal(first, reference_dequantize(q))

    @pytest.mark.parametrize(
        "zero, scale",
        [(0.0, 1e300), (-1e300, 0.0), (1e300, 0.0), (3e38, 1e37), (-3.4e38, 3e38)],
        ids=["huge-scale", "huge-negative-zero", "huge-zero", "top-past-max", "span-past-max"],
    )
    def test_decode_range_past_float32_rejected(self, zero, scale):
        # one 4-bit group of 2 codes: decodes into [zero, zero + 15 * scale]
        with pytest.raises(IntegrityError, match="float32"):
            QuantizedTensor(
                shape=(1, 2),
                bits=4,
                group_size=2,
                layout=Layout.PER_TOKEN,
                zero_points=[zero],
                scales=[scale],
                packed_codes=b"\xf0",
            )

    @pytest.mark.parametrize("field", ["zero_points", "scales"])
    def test_signaling_nan_rejected_not_warned(self, field):
        # arithmetic on a signaling NaN raises numpy's "invalid value" warning
        snan = np.frombuffer(struct.pack("<Q", 0x7FF0000000000001), dtype="<f8")
        fields = {"zero_points": [0.0], "scales": [1.0], field: snan}
        with pytest.raises(IntegrityError, match="non-finite"):
            QuantizedTensor(shape=(1, 2), bits=4, group_size=2, layout=Layout.PER_TOKEN, packed_codes=b"\xf0", **fields)

    @pytest.mark.parametrize("bits", [2, 4, 8])
    @pytest.mark.parametrize("layout", list(Layout))
    def test_float32_extremes_decode_finite(self, bits, layout):
        # a group spanning -max..+max: |z| + s * levels is past max, its ends are not
        top = np.finfo(np.float32).max
        m = np.array([[-top, top, 0.0, 1.0], [top, top, -top, 3.0]], dtype=np.float32)
        out = dequantize_matrix(quantize_matrix(m, QuantConfig(bits, 4, layout)))
        assert np.isfinite(out).all()
        assert out[0, 0] == -top and out[0, 1] == top and out[1, 2] == -top

    def test_shape_restored(self):
        rng = np.random.default_rng(2)
        m = rng.normal(size=(5, 7)).astype(np.float32)
        for layout in Layout:
            q = quantize_matrix(m, QuantConfig(8, 3, layout))
            assert dequantize_matrix(q).shape == (5, 7)


@pytest.mark.parametrize("bits", [1, 3, 16])
def test_config_rejects_unsupported_bits(bits):
    # 16-bit layers keep full precision and never quantize
    with pytest.raises(ContractViolation, match="bits must be one of"):
        QuantConfig(bits)


@pytest.mark.parametrize("layout", ["bogus", None])
def test_config_rejects_layout_outside_the_enum(layout):
    # anything but Layout.PER_TOKEN would otherwise group per channel
    with pytest.raises(ContractViolation, match="Layout member"):
        QuantConfig(4, 4, layout)


class TestQuantizedBytes:
    def test_single_group_4bit(self):
        # 64 codes at 4-bit in one group: 32 code bytes + 2 metadata
        m = np.arange(64, dtype=np.float32).reshape(1, 64)
        assert quantized_bytes(quantize_matrix(m, QuantConfig(4, 64))) == 34

    def test_single_group_8bit(self):
        m = np.arange(64, dtype=np.float32).reshape(1, 64)
        assert quantized_bytes(quantize_matrix(m, QuantConfig(8, 64))) == 66

    def test_empty_tensor(self):
        q = QuantizedTensor((0, 0), 4, 64, Layout.PER_TOKEN, [], [], b"")
        assert quantized_bytes(q) == 0

    def test_outliers_charged_six_bytes(self):
        m = np.array([[100.0, 0.5, 0.25]], dtype=np.float32)
        with_out = quantize_matrix(m, QuantConfig(4, 64, outlier_threshold=6.0))
        assert quantized_bytes(with_out) == 1 + 2 + 6  # 2 codes packed, 1 group, 1 outlier

    def test_shape_formula_matches_actual(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            rows = int(rng.integers(1, 40))
            cols = int(rng.integers(1, 40))
            cfg = QuantConfig(
                int(rng.choice([2, 4, 8])),
                int(rng.integers(1, 70)),
                Layout(rng.choice([member.value for member in Layout])),
            )
            m = rng.normal(size=(rows, cols)).astype(np.float32)
            assert quantized_bytes(quantize_matrix(m, cfg)) == quantized_bytes_for_shape(
                rows, cols, cfg
            )


class TestStructuralProperties:
    def test_per_channel_equals_per_token_of_transpose(self):
        rng = np.random.default_rng(21)
        m = rng.normal(size=(12, 9)).astype(np.float32)
        qc = quantize_matrix(m, QuantConfig(4, 5, Layout.PER_CHANNEL))
        qt = quantize_matrix(np.ascontiguousarray(m.T), QuantConfig(4, 5, Layout.PER_TOKEN))
        assert qc.lengths.tolist() == qt.lengths.tolist()
        assert qc.zero_points.tolist() == qt.zero_points.tolist()
        assert qc.scales.tolist() == qt.scales.tolist()
        assert qc.packed_codes == qt.packed_codes

    def test_monotone_error_in_bits(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            m = rng.normal(size=(4, 32)).astype(np.float32)
            errs = []
            for bits in (2, 4, 8):
                q = quantize_matrix(m, QuantConfig(bits, 16))
                errs.append(np.abs(dequantize_matrix(q) - m).max())
            assert errs[0] >= errs[1] >= errs[2]

    def test_group_count_invariant(self):
        rng = np.random.default_rng(19)
        m = rng.normal(size=(7, 23)).astype(np.float32)
        m[0, 0] = 50.0
        q = quantize_matrix(m, QuantConfig(4, 6, Layout.PER_CHANNEL, outlier_threshold=6.0))
        assert q.lengths.sum() + len(q.outliers) == m.size

    def test_outliers_sorted_by_position(self):
        rng = np.random.default_rng(23)
        m = rng.normal(size=(6, 6)).astype(np.float32)
        m[4, 2] = 9.0
        m[1, 5] = -8.0
        m[1, 0] = 7.5
        q = quantize_matrix(m, QuantConfig(4, 4, outlier_threshold=6.0))
        positions = [(r, c) for r, c, _ in q.outliers]
        assert positions == sorted(positions)
        assert len(set(positions)) == len(positions)

    def test_error_bound_matrix_covers_actual_error(self):
        rng = np.random.default_rng(29)
        m = rng.normal(size=(9, 33)).astype(np.float32)
        m[3, 3] = 25.0
        q = quantize_matrix(m, QuantConfig(4, 8, outlier_threshold=6.0))
        bounds = error_bound_matrix(q)
        err = np.abs(dequantize_matrix(q).astype(np.float64) - m.astype(np.float64))
        assert np.all(err <= bounds + 1e-6)
        assert bounds[3, 3] == 0.0


@settings(max_examples=40)
@given(
    st.integers(1, 10),
    st.integers(1, 40),
    st.sampled_from([2, 4, 8]),
    st.integers(1, 48),
    st.sampled_from(list(Layout)),
    st.integers(0, 2**31 - 1),
)
def test_round_trip_bound_full_matrix(rows, cols, bits, group, layout, seed):
    rng = np.random.default_rng(seed)
    m = rng.uniform(-8, 8, size=(rows, cols)).astype(np.float32)
    q = quantize_matrix(m, QuantConfig(bits, group, layout))
    out = dequantize_matrix(q)
    assert np.abs(out - m).max() <= q.scales.max() / 2 + 1e-6


# few distinct values, so runs often hold constant groups (including -0.0 ones)
element = st.one_of(
    st.sampled_from([-0.0, 0.0, 1.5, -3.0]), st.floats(-20, 20, allow_nan=False, width=32)
)


@st.composite
def matrices(draw):
    rows, cols = draw(st.integers(1, 8)), draw(st.integers(1, 12))
    vals = draw(st.lists(element, min_size=rows * cols, max_size=rows * cols))
    return np.array(vals, dtype=np.float32).reshape(rows, cols)


@settings(max_examples=150)
@given(
    matrices(),
    st.sampled_from([2, 4, 8]),
    st.integers(1, 9),
    st.booleans(),
    st.sampled_from(list(Layout)),
    st.sampled_from([None, 2.0, 6.0]),
)
def test_dequantize_matches_per_group_reference(m, bits, group, divides, layout, threshold):
    run = m.shape[1] if layout == Layout.PER_TOKEN else m.shape[0]
    if divides:  # a group size that splits every outlier-free run evenly
        divisors = [d for d in range(1, run + 1) if run % d == 0]
        group = divisors[group % len(divisors)]
    q = quantize_matrix(m, QuantConfig(bits, group, layout, threshold))
    # built from its fields, it decodes its packed bytes, as a loaded block does
    rebuilt = QuantizedTensor(**{name: getattr(q, name) for name in FIELDS})
    assert "_decoded" in vars(q) and "_decoded" not in vars(rebuilt)
    fresh = dequantize_matrix(q)
    expected = reference_dequantize(q).tobytes()
    assert fresh.tobytes() == expected
    assert dequantize_matrix(rebuilt).tobytes() == expected  # decoded from the packed bytes
    assert dequantize_matrix(q) is fresh  # the kept decode
    assert fresh.flags.c_contiguous and not fresh.flags.writeable


@settings(max_examples=300)
@given(
    matrices(),
    st.sampled_from([2, 4, 8]),
    st.integers(1, 16),
    st.booleans(),
    st.sampled_from(list(Layout)),
    st.sampled_from([None, 2.0, 6.0, 30.0]),
)
def test_block_matches_per_group_oracle(m, bits, group, whole, layout, threshold):
    # blocks of whole groups (the run a multiple of the group size, or shorter
    # than it) take quantize_matrix's uniform path when they have no outliers
    # and their groups fill whole bytes; every other block takes the ragged one
    runs = m if layout == Layout.PER_TOKEN else m.T
    if whole:
        run = runs.shape[1]
        sizes = [d for d in range(1, run + 1) if run % d == 0] + [run + 1, run + 7]
        group = sizes[group % len(sizes)]
    q = quantize_matrix(m, QuantConfig(bits, group, layout, threshold))
    limit = np.inf if threshold is None else threshold
    expected = []
    decoded = np.array(runs, dtype=np.float32)  # outliers keep their exact values
    for row, out in zip(runs, decoded):
        kept = np.abs(row) <= limit
        vals = row[kept]
        groups = [quantize_group(vals[i : i + group], bits) for i in range(0, vals.size, group)]
        expected += groups
        if groups:
            out[kept] = np.concatenate([dequantize_group(g) for g in groups])
    assert q.lengths.tolist() == [g.length for g in expected]
    assert q.zero_points.tobytes() == np.array([g.zero_point for g in expected], dtype=np.float64).tobytes()
    assert q.scales.tobytes() == np.array([g.scale for g in expected], dtype=np.float64).tobytes()
    assert q.packed_codes == b"".join(pack_group(g.codes, bits) for g in expected)
    want = decoded if layout == Layout.PER_TOKEN else decoded.T  # runs back to matrix positions
    assert dequantize_matrix(q).tobytes() == np.ascontiguousarray(want).tobytes()


@pytest.mark.parametrize("layout", list(Layout))
@pytest.mark.parametrize("bits, group", [(2, 5), (4, 4), (8, 3), (4, 64)])
def test_no_threshold_quantizes_as_a_threshold_above_every_value(layout, bits, group):
    rng = np.random.default_rng(bits * group)
    m = rng.normal(size=(12, 10)).astype(np.float32)
    m[:, 4], m[3, 5:] = -0.0, 1.5  # a constant channel and a constant token tail: constant groups
    none = quantize_matrix(m, QuantConfig(bits, group, layout))
    at_max = quantize_matrix(m, QuantConfig(bits, group, layout, float(np.abs(m).max())))
    assert none.packed_codes == at_max.packed_codes
    assert none.zero_points.tobytes() == at_max.zero_points.tobytes()
    assert none.scales.tobytes() == at_max.scales.tobytes()
    assert len(none.outliers) == len(at_max.outliers) == 0 and not none.outliers.flags.writeable
    assert dequantize_matrix(none).tobytes() == dequantize_matrix(at_max).tobytes()
    # an outlier-free block's bound: each element's group, counted run by run
    r, c = np.indices(m.shape)
    run, pos = (r, c) if layout == Layout.PER_TOKEN else (c, r)
    per_run = -(-(m.shape[1] if layout == Layout.PER_TOKEN else m.shape[0]) // group)
    expected = none.scales[run * per_run + pos // group] / 2.0
    assert error_bound_matrix(none).tobytes() == error_bound_matrix(at_max).tobytes() == expected.tobytes()


@pytest.mark.parametrize("layout", list(Layout))
def test_negative_zero_constant_group_decodes_exactly(layout):
    # rows 0-1 and row 2 are constant groups in both layouts
    m = np.full((3, 4), -0.0, dtype=np.float32)
    m[:2, :] = 2.5
    q = quantize_matrix(m, QuantConfig(4, 2, layout))
    out = dequantize_matrix(q)
    assert out.tobytes() == m.tobytes() == reference_dequantize(q).tobytes()


F32_MAX = float(np.finfo(np.float32).max)


@st.composite
def wide_matrices(draw):
    """Matrices up to 80 x 80 with values up to +-float32 max: a few drawn
    values (-0.0 and the extremes among them) fill most entries, so runs
    hold constant groups, and the rest are spread at a drawn magnitude."""
    rows, cols = draw(st.integers(1, 80)), draw(st.integers(1, 80))
    pool = draw(st.lists(
        st.one_of(st.sampled_from([-0.0, 0.0, 1.0, F32_MAX, -F32_MAX]),
                  st.floats(-F32_MAX, F32_MAX, allow_nan=False, allow_infinity=False, width=32)),
        min_size=1, max_size=4,
    ))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spread = rng.uniform(-1, 1, size=(rows, cols)) * draw(st.sampled_from([1.0, 1e30, F32_MAX]))
    m = np.where(rng.random((rows, cols)) < draw(st.sampled_from([0.5, 0.9, 1.0])),
                 rng.choice(np.array(pool, dtype=np.float32), size=(rows, cols)), spread)
    return m.astype(np.float32)


@settings(max_examples=200, deadline=None)
@given(
    wide_matrices(),
    st.sampled_from([2, 4, 8]),
    st.sampled_from(list(Layout)),
    st.integers(1, 70),
    st.sampled_from([None, 1.0, 1e30]),
)
def test_quantize_matrix_blocks_pass_every_check(m, bits, layout, group, threshold):
    # quantize_matrix builds its blocks without QuantizedTensor's checks, on
    # the claim that they are valid by construction: every one must pass
    # them, and decode from its bytes as it did from its codes
    q = quantize_matrix(m, QuantConfig(bits, group, layout, threshold))
    check_group_tables(q.zero_points, q.scales, bits)
    rebuilt = QuantizedTensor(**{name: getattr(q, name) for name in FIELDS})
    assert dequantize_matrix(rebuilt).tobytes() == dequantize_matrix(q).tobytes()
    for name in FIELDS:
        a, b = getattr(q, name), getattr(rebuilt, name)
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
            assert not a.flags.writeable and not b.flags.writeable
        else:
            assert a == b and type(a) is type(b)
    assert (q.outliers is _NO_OUTLIERS) == (rebuilt.outliers is _NO_OUTLIERS) == (not len(q.outliers))


def test_bytes_like_codes_are_stored_as_bytes():
    # a block keeps no buffer its caller can write
    q = quantize_matrix(np.arange(8, dtype=np.float32).reshape(2, 4), QuantConfig(4, 4))
    for kind in (bytearray, memoryview, lambda b: np.frombuffer(b, dtype=np.uint8).copy()):
        buf = kind(bytearray(q.packed_codes))
        fields = {name: getattr(q, name) for name in FIELDS}
        block = QuantizedTensor(**{**fields, "packed_codes": buf})
        assert type(block.packed_codes) is bytes and block.packed_codes == q.packed_codes
        buf[0] ^= 0xFF
        assert block.packed_codes == q.packed_codes
        assert dequantize_matrix(block).tobytes() == dequantize_matrix(q).tobytes()
