import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kvtrade.budget import (
    BudgetPlan,
    LayerOverride,
    apply_overrides,
    plan_bytes,
    plan_for_tokens,
    pyramid_allocation,
    uniform_plan,
)
from kvtrade.errors import ContractViolation
from kvtrade.quant import Layout


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


class TestPlanBytes:
    def test_16bit_reference(self):
        plan = uniform_plan(1, 64, 16, heads=1, head_dim=64)
        assert plan_bytes(plan, 1, 64) == 2 * 64 * 64 * 2

    def test_4bit_with_metadata(self):
        # per token row: 32 code bytes + 2 metadata; K and V
        plan = BudgetPlan(((64, 4),), 64, Layout.PER_TOKEN, 0)
        assert plan_bytes(plan, 1, 64) == 2 * (64 * 34)

    def test_empty_plan(self):
        plan = BudgetPlan((), 64, Layout.PER_TOKEN, 0)
        assert plan_bytes(plan, 4, 64) == 0

    def test_budget_parity_window(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            layers = int(rng.integers(1, 9))
            heads = int(rng.integers(1, 9))
            head_dim = int(rng.choice([64, 128]))
            base = 32 * int(rng.integers(1, 9))
            layout = rng.choice(list(Layout))
            ref = plan_bytes(uniform_plan(layers, base, 16, heads, head_dim, 64, layout), heads, head_dim)
            four = plan_bytes(uniform_plan(layers, base, 4, heads, head_dim, 64, layout), heads, head_dim)
            eight = plan_bytes(uniform_plan(layers, base, 8, heads, head_dim, 64, layout), heads, head_dim)
            assert 1.00 <= four / ref <= 1.07
            assert 1.00 <= eight / ref <= 1.04


class TestApplyOverrides:
    def base_plan(self, layers=16):
        return uniform_plan(layers, 128, 4, heads=1, head_dim=64)

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
