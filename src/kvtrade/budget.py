"""Memory-budget planning: per-layer (token count, bit width) allocations.

A plan fixes, for every layer, how many prompt tokens survive eviction and
at what precision they are stored. The central move is trading precision
for tokens at a fixed byte budget: relative to a ``base_tokens`` @ 16-bit
reference, an 8-bit plan keeps 2x tokens and a 4-bit plan keeps 4x tokens.

Byte accounting is explicit rather than waved away: quantized layers are
charged via :func:`kvtrade.quant.quantized_bytes_for_shape` (codes plus
2 bytes of group metadata per group), full-precision K/V rows by
:func:`fp16_kv_bytes` at 2 bytes per element with no metadata. At group
size 64 the metadata keeps matched plans within 6.25% (4-bit) / 3.125%
(8-bit) of the 16-bit reference.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ContractViolation, is_number, require_int
from .quant import SUPPORTED_BITS, Layout, QuantConfig, quantized_bytes_for_shape

PLAN_BITS = (2, 4, 8, 16)
FULL_PRECISION_BITS = 16
BYTES_PER_FP16 = 2


def preserves_budget(bits: int, tokens_multiplier: int) -> bool:
    """Whether ``tokens_multiplier`` x the base tokens at ``bits`` cost what 1x at 16 bits does."""
    return bits * tokens_multiplier == FULL_PRECISION_BITS


def fp16_kv_bytes(tokens: int, heads: int, head_dim: int) -> int:
    """Bytes of ``tokens`` (>= 0) K and V rows on ``heads`` heads stored at 16 bits."""
    tokens, heads = require_int("tokens", tokens, 0), require_int("heads", heads, 1)
    return 2 * heads * tokens * require_int("head_dim", head_dim, 1) * BYTES_PER_FP16


@dataclass(frozen=True)
class BudgetPlan:
    """Per-layer (tokens, bits) allocation under one quantization setup.

    ``total_budget_bytes`` is the byte cost of the 16-bit reference this
    plan trades against (the budget denominator used for parity checks).
    ``outlier_threshold``, when set, stores values with a larger magnitude
    exactly beside the quantized groups (see ``QuantConfig``).
    """

    per_layer: tuple[tuple[int, int], ...]
    group_size: int
    layout: Layout
    total_budget_bytes: int
    outlier_threshold: float | None = None

    def __post_init__(self) -> None:
        # QuantConfig checks the setup every layer shares, also when no layer quantizes
        QuantConfig(SUPPORTED_BITS[0], self.group_size, self.layout, self.outlier_threshold)
        if not self.per_layer:
            raise ContractViolation("a plan needs at least one layer")
        for tokens, bits in self.per_layer:
            if require_int("bits", bits, 0) not in PLAN_BITS:
                raise ContractViolation(f"bits must be one of {PLAN_BITS}, got {bits}")
            require_int("tokens", tokens, 1)

    @property
    def layers(self) -> int:
        return len(self.per_layer)

    def quant_config(self, layer: int):
        """(K config, V config) for a layer, or None at 16-bit.

        ``per_channel`` plans quantize keys along the token axis and values
        per token (the KIVI split); ``per_token`` plans use per-token groups
        for both.
        """
        tokens, bits = self.per_layer[layer]
        if bits == FULL_PRECISION_BITS:
            return None
        k_cfg = QuantConfig(bits, self.group_size, self.layout, self.outlier_threshold)
        v_cfg = QuantConfig(bits, self.group_size, Layout.PER_TOKEN, self.outlier_threshold)
        return k_cfg, v_cfg


@dataclass(frozen=True)
class LayerOverride:
    """Reconfigure layers [start, end) to ``tokens_multiplier`` x base tokens at ``bits``.

    Only budget-preserving combinations (:func:`preserves_budget`) of a
    plan width are accepted: 1x@16, 2x@8, 4x@4 and 8x@2.
    """

    start: int
    end: int
    tokens_multiplier: int
    bits: int

    def __post_init__(self) -> None:
        require_int("start", self.start, 0)
        require_int("end", self.end, self.start + 1)
        require_int("tokens_multiplier", self.tokens_multiplier, 1)
        if require_int("bits", self.bits, 0) not in PLAN_BITS:
            raise ContractViolation(f"override bits must be one of {PLAN_BITS}, got {self.bits}")
        if not preserves_budget(self.bits, self.tokens_multiplier):
            raise ContractViolation(f"override {self.bits}x{self.tokens_multiplier} changes the budget")


def plan_for_tokens(
    tokens_per_layer,
    bits: int,
    heads: int,
    head_dim: int,
    group_size: int = 64,
    layout: Layout = Layout.PER_TOKEN,
    outlier_threshold: float | None = None,
) -> BudgetPlan:
    """Plan with explicit per-layer token counts (pyramid allocations etc.); a
    ``tokens_per_layer`` that is not a sequence raises ContractViolation."""
    try:
        tokens = list(tokens_per_layer)
    except TypeError:
        raise ContractViolation(f"tokens_per_layer must be a sequence, got {tokens_per_layer!r}") from None
    plan = BudgetPlan(tuple((t, bits) for t in tokens), group_size, layout, 0, outlier_threshold)
    base_total = sum(t for t, _ in plan.per_layer) * bits // FULL_PRECISION_BITS
    return replace(plan, total_budget_bytes=fp16_kv_bytes(base_total, heads, head_dim))


def pyramid_allocation(
    layers: int,
    total_tokens: int,
    min_fraction: float,
    min_tokens: int = 1,
) -> list[int]:
    """Linearly decreasing per-layer token counts summing to ``total_tokens``.

    Layer 0 gets ``2*avg - min_fraction*avg`` and the last layer
    ``min_fraction*avg``; intermediate layers interpolate. Counts are
    rounded to nearest and the residue is settled on the earliest layers
    (added there, or removed from the latest layers when negative, which
    keeps the sequence non-increasing).
    """
    require_int("layers", layers, 1)
    require_int("total_tokens", total_tokens, 0)
    require_int("min_tokens", min_tokens, 0)
    if not (is_number(min_fraction) and 0 < min_fraction <= 1):
        raise ContractViolation(f"min_fraction must be a number in (0, 1], got {min_fraction!r}")
    if layers == 1:
        counts = [total_tokens]
    else:
        avg = total_tokens / layers
        beta_min = min_fraction * avg
        beta_max = 2 * avg - beta_min
        raw = np.linspace(beta_max, beta_min, layers)
        counts = [int(c) for c in np.rint(raw)]
        residue = total_tokens - sum(counts)
        if residue > 0:
            for i in range(residue):
                counts[i] += 1
        elif residue < 0:
            for i in range(-residue):
                counts[layers - 1 - i] -= 1
    if min(counts) < min_tokens:
        raise ContractViolation(
            f"pyramid gives a layer {min(counts)} tokens, below the minimum {min_tokens}"
        )
    return counts


def plan_bytes(plan: BudgetPlan, heads: int, head_dim: int) -> int:
    """Accounted bytes of a fully populated plan (K and V, all heads).

    Quantized layers follow the group accounting of the quant module under
    the layer's ``quant_config``; 16-bit layers are charged by
    :func:`fp16_kv_bytes`. ``heads`` and ``head_dim`` must be integers >= 1.
    """
    heads, head_dim = require_int("heads", heads, 1), require_int("head_dim", head_dim, 1)
    total = 0
    for layer, (tokens, _bits) in enumerate(plan.per_layer):
        cfgs = plan.quant_config(layer)
        if cfgs is None:
            total += fp16_kv_bytes(tokens, heads, head_dim)
        else:
            total += heads * sum(quantized_bytes_for_shape(tokens, head_dim, c) for c in cfgs)
    return total


def apply_overrides(plan: BudgetPlan, overrides) -> BudgetPlan:
    """Return a plan with ranges reconfigured; layers outside are untouched.

    Each layer's implied 16-bit-equivalent base count is preserved, so the
    override swaps precision for tokens at (metadata aside) constant bytes.
    """
    overrides = list(overrides)
    spans = sorted((o.start, o.end) for o in overrides)
    for (s0, e0), (s1, _) in zip(spans, spans[1:]):
        if s1 < e0:
            raise ContractViolation("override ranges overlap")
    if spans and spans[-1][1] > plan.layers:
        raise ContractViolation("override range exceeds layer count")

    per_layer = list(plan.per_layer)
    for o in overrides:
        for layer in range(o.start, o.end):
            tokens, bits = per_layer[layer]
            base, rem = divmod(tokens * bits, FULL_PRECISION_BITS)
            if rem:
                raise ContractViolation(
                    f"layer {layer} tokens {tokens}@{bits}-bit has no whole 16-bit base"
                )
            per_layer[layer] = (base * o.tokens_multiplier, o.bits)
    return replace(plan, per_layer=tuple(per_layer))
