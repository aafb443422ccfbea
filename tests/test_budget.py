import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kvtrade.budget import (
    PLAN_BITS,
    BudgetPlan,
    LayerOverride,
    apply_overrides,
    plan_bytes,
    plan_for_tokens,
    preserves_budget,
    pyramid_allocation,
)
from kvtrade.errors import ContractViolation
from kvtrade.quant import Layout
from oracles import uniform_plan


class TestUniformPlan:
    def test_precision_token_trade(self):
        for bits, tokens in ((16, 512), (8, 1024), (4, 2048)):
            plan = uniform_plan(4, 512, bits, heads=2, head_dim=64)
            assert all(entry == (tokens, bits) for entry in plan.per_layer)

    def test_4bit_keeps_4x(self):
        plan = uniform_plan(1, 128, 4, heads=1, head_dim=64)
        assert plan.per_layer[0] == (512, 4)

    def test_identity_plan(self):
        plan = uniform_plan(3, 100, 16, heads=1, head_dim=32)
        assert plan.per_layer == ((100, 16),) * 3

    def test_invalid_bits(self):
        with pytest.raises(ContractViolation):
            uniform_plan(1, 64, 3, heads=1, head_dim=32)

    def test_reference_bytes(self):
        plan = uniform_plan(2, 100, 4, heads=3, head_dim=16)
        assert plan.total_budget_bytes == 2 * 2 * 3 * 100 * 16 * 2


class TestPyramidAllocation:
    def test_single_layer_takes_all(self):
        assert pyramid_allocation(1, 381, 0.3) == [381]

    def test_min_fraction_one_is_uniform(self):
        assert pyramid_allocation(4, 400, 1.0) == [100, 100, 100, 100]

    def test_hand_example(self):
        # avg 100, beta_min 50, beta_max 150, linear with zero residue
        assert pyramid_allocation(4, 400, 0.5) == [150, 117, 83, 50]

    def test_below_minimum_rejected(self):
        with pytest.raises(ContractViolation):
            pyramid_allocation(4, 400, 0.5, min_tokens=60)

    @pytest.mark.parametrize("layers, fraction, word", [
        (0, 0.5, "layers"), (4, 0.0, "min_fraction"), (4, 1.5, "min_fraction"),
    ], ids=["no-layers", "fraction-0", "fraction-past-1"])
    def test_bad_arguments_rejected(self, layers, fraction, word):
        with pytest.raises(ContractViolation, match=word):
            pyramid_allocation(layers, 400, fraction)

    @given(
        st.integers(1, 24),
        st.integers(1, 40),
        st.floats(0.05, 1.0, allow_nan=False),
    )
    def test_sums_exactly_and_non_increasing(self, layers, per_layer, fraction):
        from hypothesis import assume

        total = layers * per_layer + layers
        try:
            counts = pyramid_allocation(layers, total, fraction)
        except ContractViolation:
            # legitimate: a steep pyramid on a tiny total rounds a layer to 0
            assume(False)
        assert sum(counts) == total
        assert all(a >= b for a, b in zip(counts, counts[1:]))
        assert len(counts) == layers

    @pytest.mark.parametrize("total, counts", [(5, [3, 2]), (7, [4, 3])])
    def test_rounding_residue_settled(self, total, counts):
        # 2.5 and 3.5 per layer round half to even: one token short, one over
        assert pyramid_allocation(2, total, 1.0) == counts

    def test_total_past_two_to_the_53_rejected(self):
        # float64 does not hold 10**17 + 7; its rounding once left a residue
        # past one token per layer, and settling it raised IndexError
        with pytest.raises(ContractViolation, match=r"total_tokens must be at most 2\*\*53"):
            pyramid_allocation(2, 10**17 + 7, 0.2)
        assert sum(pyramid_allocation(2, 2**53, 0.2)) == 2**53

    @given(
        st.integers(1, 64),
        st.one_of(st.integers(0, 2**53), st.integers(2**53 - 2**16, 2**53)),
        st.floats(0.0, 1.0, exclude_min=True),
    )
    def test_every_total_up_to_the_bound_sums_exactly(self, layers, total, fraction):
        try:
            counts = pyramid_allocation(layers, total, fraction)
        except ContractViolation as exc:
            # legitimate: a steep pyramid on a small total rounds a layer to 0
            assert "below the minimum" in str(exc)
            return
        assert sum(counts) == total and len(counts) == layers
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    @given(st.integers(2, 16), st.integers(1, 400), st.floats(0.05, 1.0, allow_nan=False), st.integers(1, 8))
    def test_any_total_sums_exactly_or_is_rejected(self, layers, total, fraction, min_tokens):
        try:
            counts = pyramid_allocation(layers, total, fraction, min_tokens)
        except ContractViolation as exc:
            assert "below the minimum" in str(exc)
            return
        assert sum(counts) == total and len(counts) == layers
        assert all(a >= b for a, b in zip(counts, counts[1:]))
        assert counts[-1] >= min_tokens


class TestPlanBytes:
    def test_16bit_reference(self):
        plan = uniform_plan(1, 64, 16, heads=1, head_dim=64)
        assert plan_bytes(plan, 1, 64) == 2 * 64 * 64 * 2

    def test_4bit_with_metadata(self):
        # per token row: 32 code bytes + 2 metadata; K and V
        plan = BudgetPlan(((64, 4),), 64, Layout.PER_TOKEN, 0)
        assert plan_bytes(plan, 1, 64) == 2 * (64 * 34)

    def test_empty_plan_rejected(self):
        with pytest.raises(ContractViolation, match="at least one layer"):
            BudgetPlan((), 64, Layout.PER_TOKEN, 0)
        with pytest.raises(ContractViolation, match="at least one layer"):
            plan_for_tokens([], 16, heads=1, head_dim=8)

    def test_budget_parity_window(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            layers = int(rng.integers(1, 9))
            heads = int(rng.integers(1, 9))
            head_dim = int(rng.choice([64, 128]))
            base = 32 * int(rng.integers(1, 9))
            layout = Layout(rng.choice([member.value for member in Layout]))
            ref = plan_bytes(uniform_plan(layers, base, 16, heads, head_dim, 64, layout), heads, head_dim)
            four = plan_bytes(uniform_plan(layers, base, 4, heads, head_dim, 64, layout), heads, head_dim)
            eight = plan_bytes(uniform_plan(layers, base, 8, heads, head_dim, 64, layout), heads, head_dim)
            assert 1.00 <= four / ref <= 1.07
            assert 1.00 <= eight / ref <= 1.04


class TestApplyOverrides:
    def base_plan(self, layers=16):
        return uniform_plan(layers, 128, 4, heads=1, head_dim=64)

    def test_tokens_without_a_whole_16bit_base_rejected(self):
        # 5 tokens at 4 bits hold 20 bits each: no whole count of 16-bit tokens
        plan = plan_for_tokens([5], 4, heads=1, head_dim=8)
        with pytest.raises(ContractViolation, match="no whole 16-bit base"):
            apply_overrides(plan, [LayerOverride(0, 1, 8, 2)])

    def test_empty_override_is_identity(self):
        plan = self.base_plan()
        assert apply_overrides(plan, []) == plan

    def test_full_precision_override_quarters_tokens(self):
        plan = self.base_plan()
        out = apply_overrides(plan, [LayerOverride(0, 4, 1, 16)])
        for layer in range(4):
            assert out.per_layer[layer] == (128, 16)
        for layer in range(4, 16):
            assert out.per_layer[layer] == (512, 4)

    def test_8bit_override_halves_tokens(self):
        plan = self.base_plan()
        out = apply_overrides(plan, [LayerOverride(8, 16, 2, 8)])
        for layer in range(8, 16):
            assert out.per_layer[layer] == (256, 8)

    def test_frame_property(self):
        plan = self.base_plan()
        out = apply_overrides(plan, [LayerOverride(2, 5, 1, 16), LayerOverride(9, 11, 2, 8)])
        for layer in range(16):
            if 2 <= layer < 5 or 9 <= layer < 11:
                assert out.per_layer[layer] != plan.per_layer[layer]
            else:
                assert out.per_layer[layer] == plan.per_layer[layer]
        assert out.group_size == plan.group_size
        assert out.layout == plan.layout

    def test_overlap_rejected(self):
        with pytest.raises(ContractViolation):
            apply_overrides(
                self.base_plan(), [LayerOverride(0, 4, 1, 16), LayerOverride(3, 6, 2, 8)]
            )

    def test_out_of_range_rejected(self):
        with pytest.raises(ContractViolation):
            apply_overrides(self.base_plan(4), [LayerOverride(2, 6, 1, 16)])

    def test_budget_violating_override_rejected(self):
        with pytest.raises(ContractViolation):
            LayerOverride(0, 4, 4, 16)
        with pytest.raises(ContractViolation):
            LayerOverride(0, 4, 4, 2)

    @pytest.mark.parametrize("start, end, message", [
        (-1, 2, "start must be an integer >= 0, got -1"),
        (3, 3, "end must be an integer >= 4, got 3"),
        (4, 2, "end must be an integer >= 5, got 2"),
    ], ids=["-1-2", "3-3", "4-2"])
    def test_bad_range_rejected(self, start, end, message):
        with pytest.raises(ContractViolation, match=message):
            LayerOverride(start, end, 1, 16)

    @pytest.mark.parametrize("bits", [0, 3, 32])
    def test_bad_bits_rejected(self, bits):
        with pytest.raises(ContractViolation, match=f"override bits must be one of .*, got {bits}"):
            LayerOverride(0, 1, 1, bits)

    @pytest.mark.parametrize("bits", PLAN_BITS)
    def test_override_at_every_plan_width(self, bits):
        # the pairing rule the grid uses: 1x@16, 2x@8, 4x@4 and 8x@2
        assert preserves_budget(bits, 16 // bits)
        LayerOverride(0, 1, 16 // bits, bits)

    def test_2bit_override_keeps_tokens_times_bits(self):
        plan = self.base_plan()
        out = apply_overrides(plan, [LayerOverride(0, 8, 8, 2)])
        assert out.per_layer[:8] == ((1024, 2),) * 8
        for (tokens, bits), (base_tokens, base_bits) in zip(out.per_layer, plan.per_layer):
            assert tokens * bits == base_tokens * base_bits

    def test_byte_parity_of_override(self):
        plan = self.base_plan()
        out = apply_overrides(plan, [LayerOverride(0, 8, 2, 8)])
        base_bytes = plan_bytes(plan, 1, 64)
        over_bytes = plan_bytes(out, 1, 64)
        # swapping 4-bit for 8-bit trims only metadata
        assert abs(over_bytes - base_bytes) / base_bytes < 0.04


def test_plan_for_tokens_carries_counts():
    plan = plan_for_tokens([150, 117, 83, 50], 8, heads=2, head_dim=32)
    assert plan.per_layer == ((150, 8), (117, 8), (83, 8), (50, 8))


def test_plan_rejects_zero_tokens():
    with pytest.raises(ContractViolation):
        BudgetPlan(((0, 4),), 64, Layout.PER_TOKEN, 0)


@pytest.mark.parametrize("bits", [4, 16])
def test_plan_rejects_group_size_below_one(bits):
    # an all-16-bit plan never builds a QuantConfig, so the plan itself must check
    with pytest.raises(ContractViolation, match="group_size"):
        uniform_plan(1, 4, bits, heads=1, head_dim=8, group_size=0)


@pytest.mark.parametrize("threshold", [-1.0, float("nan")])
def test_plan_rejects_a_threshold_below_zero_or_nan(threshold):
    # an all-16-bit plan builds no QuantConfig of its own either
    with pytest.raises(ContractViolation, match="outlier_threshold"):
        plan_for_tokens([8], 16, heads=1, head_dim=8, outlier_threshold=threshold)


def test_plan_carries_its_threshold_to_every_layer():
    plan = plan_for_tokens([8, 8], 4, heads=1, head_dim=8, outlier_threshold=6.0)
    plan = apply_overrides(plan, [LayerOverride(1, 2, 2, 8)])
    assert plan.outlier_threshold == 6.0
    assert {c.outlier_threshold for layer in range(2) for c in plan.quant_config(layer)} == {6.0}


@pytest.mark.parametrize("layout", ["bogus", None])
def test_plan_rejects_layout_outside_the_enum(layout):
    # the snapshot format can only store a Layout member
    with pytest.raises(ContractViolation, match="Layout member"):
        plan_for_tokens([8], 4, heads=1, head_dim=8, layout=layout)
    with pytest.raises(ContractViolation, match="Layout member"):
        BudgetPlan(((8, 16),), 64, layout, 0)
