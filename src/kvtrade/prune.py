"""Prefill-time token eviction policies.

Each policy maps (attention statistics, token budget) to the set of token
indices whose K/V entries survive compression, per layer and per head.
Four scoring rules are implemented:

* ``streaming_llm``: initial sink tokens plus a recent window, no scores.
* ``h2o``: cumulative attention over all query rows (heavy hitters).
* ``snapkv``: attention from a trailing observation window, max-pooled over
  key positions.
* ``pyramidkv``: snapkv mechanics with an 8-token window; its per-layer
  budgets come from the pyramid allocation in :mod:`kvtrade.budget`.

Eviction happens once, at prefill; decode-time tokens are always appended
and never evicted. Scoring always sees full-precision prefill attention,
never quantized values.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ContractViolation
from .tensor import Matrix


class PolicyKind(str, Enum):
    STREAMING_LLM = "streaming_llm"
    H2O = "h2o"
    SNAPKV = "snapkv"
    PYRAMIDKV = "pyramidkv"


DEFAULT_RECENT_WINDOW = 32
PYRAMIDKV_RECENT_WINDOW = 8


@dataclass(frozen=True)
class PolicyConfig:
    kind: PolicyKind
    recent_window: int | None = None  # policy default when None
    pool_width: int = 7

    def __post_init__(self) -> None:
        if self.recent_window is not None and self.recent_window < 1:
            raise ContractViolation("recent_window must be >= 1")
        if self.pool_width < 1 or self.pool_width % 2 == 0:
            raise ContractViolation("pool_width must be an odd count >= 1")

    @property
    def window(self) -> int:
        if self.recent_window is not None:
            return self.recent_window
        if self.kind == PolicyKind.PYRAMIDKV:
            return PYRAMIDKV_RECENT_WINDOW
        return DEFAULT_RECENT_WINDOW


@dataclass(frozen=True)
class ScoreContext:
    """Prefill attention probabilities for one (layer, head).

    ``attn_probs`` is queries x keys with causal support: row i is a
    probability distribution over keys 0..i and exactly zero beyond.
    """

    attn_probs: Matrix
    seq_len: int
    layer_index: int = 0
    head_index: int = 0

    def __post_init__(self) -> None:
        p = self.attn_probs
        if p.ndim != 2 or p.shape[0] != self.seq_len or p.shape[1] != self.seq_len:
            raise ContractViolation(
                f"attn_probs must be {self.seq_len}x{self.seq_len}, got {p.shape}"
            )
        sums = p.sum(axis=1)
        if np.abs(sums - 1.0).max() > 1e-5:
            raise ContractViolation("attention rows must sum to 1")
        if np.triu(p, k=1).any():
            raise ContractViolation("attention must have causal (lower-triangular) support")


@dataclass(frozen=True)
class PruneDecision:
    """Sorted, unique token indices retained under a budget."""

    retained: tuple[int, ...]
    budget: int

    def __post_init__(self) -> None:
        r = self.retained
        if any(b <= a for a, b in zip(r, r[1:])):
            raise ContractViolation("retained indices must be strictly increasing")


def top_k_indices(scores, k: int) -> list[int]:
    """Indices of the k largest scores, ties broken toward the smaller index.

    The result is sorted ascending.
    """
    s = np.asarray(scores, dtype=np.float64).reshape(-1)
    if k > s.size:
        raise ContractViolation(f"k={k} exceeds {s.size} scores")
    if k == 0:
        return []
    # stable sort on negated scores keeps earlier indices first among ties
    order = np.argsort(-s, kind="stable")[:k]
    return sorted(int(i) for i in order)


def _decision(indices, budget: int) -> PruneDecision:
    return PruneDecision(tuple(sorted(int(i) for i in set(indices))), budget)


def score_streaming(n: int, budget: int, cfg: PolicyConfig) -> PruneDecision:
    """Attention sinks (earliest tokens) plus the recent window."""
    w = cfg.window
    if budget < w:
        raise ContractViolation(f"budget {budget} below recent window {w}")
    if budget >= n:
        return _decision(range(n), budget)
    sinks = range(budget - w)
    recent = range(n - w, n)
    return _decision(list(sinks) + list(recent), budget)


def score_h2o(ctx: ScoreContext, budget: int, cfg: PolicyConfig) -> PruneDecision:
    """Cumulative-attention scoring over all query rows."""
    w = cfg.window
    if budget < w:
        raise ContractViolation(f"budget {budget} below recent window {w}")
    n = ctx.seq_len
    if budget >= n:
        return _decision(range(n), budget)
    scores = ctx.attn_probs.astype(np.float64).sum(axis=0)
    picks = top_k_indices(scores[: n - w], budget - w)
    return _decision(picks + list(range(n - w, n)), budget)


def _max_pool_1d(scores: np.ndarray, width: int) -> np.ndarray:
    """Centered max pooling over key positions; windows truncate at the edges."""
    if width == 1 or scores.size == 0:
        return scores
    half = width // 2
    padded = np.pad(scores, half, mode="constant", constant_values=-np.inf)
    windows = np.lib.stride_tricks.sliding_window_view(padded, width)
    return windows.max(axis=1)


def score_snapkv(ctx: ScoreContext, budget: int, cfg: PolicyConfig) -> PruneDecision:
    """Observation-window scoring with max-pooled smoothing.

    The last ``recent_window`` query rows score every earlier key by summed
    attention; scores are smoothed by centered max pooling of ``pool_width``
    over the candidate region before top-k selection. The window itself is
    always retained.
    """
    w = cfg.window
    if budget < w:
        raise ContractViolation(f"budget {budget} below recent window {w}")
    n = ctx.seq_len
    if budget >= n:
        return _decision(range(n), budget)
    if n <= w:
        raise ContractViolation(f"seq_len {n} must exceed recent window {w}")
    obs = ctx.attn_probs[n - w :, :].astype(np.float64)
    raw = obs.sum(axis=0)[: n - w]
    pooled = _max_pool_1d(raw, cfg.pool_width)
    picks = top_k_indices(pooled, budget - w)
    return _decision(picks + list(range(n - w, n)), budget)


_SCORERS = {
    PolicyKind.H2O: score_h2o,
    PolicyKind.SNAPKV: score_snapkv,
    PolicyKind.PYRAMIDKV: score_snapkv,  # per-layer budgets come from the pyramid plan
}


def decide(policy: PolicyConfig, ctx: ScoreContext | None, n: int, budget: int) -> PruneDecision:
    """Dispatch to the policy's scoring rule.

    ``streaming_llm`` needs no attention statistics; the score-based rules
    require a ScoreContext.
    """
    if policy.kind == PolicyKind.STREAMING_LLM:
        return score_streaming(n, budget, policy)
    if ctx is None:
        raise ContractViolation(f"{policy.kind.value} requires a ScoreContext")
    return _SCORERS[policy.kind](ctx, budget, policy)
