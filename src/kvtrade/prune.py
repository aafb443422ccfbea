"""Prefill-time token eviction policies.

Each policy maps (attention statistics, token budget) to the set of token
indices whose K/V entries survive compression, per layer and per head.
Every policy keeps tokens by one rule (``_keep``): a prompt length ``n``
that is not an integer >= 1, or a budget that is not an integer of at least
the recent window, is a contract violation, a budget of
at least the prompt length keeps every token, and otherwise the recent
window survives plus the ``budget - window`` best-scoring earlier tokens
(ties toward the earlier token). The policies differ only in how they score
those earlier candidates:

* ``streaming_llm``: earlier is better, so the initial sink tokens survive.
* ``h2o``: cumulative attention over all query rows (heavy hitters).
* ``snapkv``: attention from a trailing observation window, max-pooled over
  key positions.
* ``pyramidkv``: snapkv mechanics with an 8-token window; its per-layer
  budgets come from the pyramid allocation in :mod:`kvtrade.budget`.

Eviction happens once, at prefill; decode-time tokens are always appended
and never evicted. Scoring sees two statistics of the full-precision prefill
attention, never quantized values: each key's column sum over all query rows
(h2o) and the last ``window`` query rows (snapkv, pyramidkv). Prefill
streams its attention and keeps only these, so no n x n matrix is needed.
Prefill's statistics are causal by construction (it masks future keys with
-inf); ``ScoreContext`` checks the statistics it is given, from prefill or
from anywhere else, before a scorer reads them.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ContractViolation, require_int, require_type
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
        require_type("kind", self.kind, PolicyKind)
        if self.recent_window is not None:
            require_int("recent_window", self.recent_window, 1)
        if require_int("pool_width", self.pool_width, 1) % 2 == 0:
            raise ContractViolation(f"pool_width must be odd, got {self.pool_width}")

    @property
    def window(self) -> int:
        if self.recent_window is not None:
            return self.recent_window
        if self.kind == PolicyKind.PYRAMIDKV:
            return PYRAMIDKV_RECENT_WINDOW
        return DEFAULT_RECENT_WINDOW

    @property
    def window_rows(self) -> int:
        """Trailing prefill query rows the policy's scorer reads (none for
        streaming_llm and h2o)."""
        return self.window if self.kind in (PolicyKind.SNAPKV, PolicyKind.PYRAMIDKV) else 0


@dataclass(frozen=True, eq=False)
class ScoreContext:
    """The prefill attention statistics eviction reads, for one (layer, head).

    ``column_sums`` (float64, length n) is each key's attention summed over
    all n query rows. ``window_probs`` holds the last w <= n query rows of
    the causal probabilities: query row i is a distribution over keys 0..i
    and exactly zero beyond. Statistics that break this contract (a row
    off 1 by more than 1e-5, weight past a row's diagonal, column sums that
    are negative or do not total n), statistics that are not arrays of
    numbers, or a ``seq_len`` that is not an integer >= 1, raise
    ContractViolation.
    """

    column_sums: np.ndarray
    window_probs: Matrix
    seq_len: int

    def __post_init__(self) -> None:
        n = require_int("seq_len", self.seq_len, 1)
        sums, p = self.column_sums, self.window_probs
        if not all(isinstance(a, np.ndarray) and a.dtype.kind in "biuf" for a in (sums, p)):
            raise ContractViolation("column sums and window rows must be arrays of numbers")
        if sums.shape != (n,) or p.ndim != 2 or p.shape[0] > n or p.shape[1] != n:
            raise ContractViolation(
                f"statistics for n={n} need column sums of shape ({n},) and at most "
                f"{n} window rows of {n}; got {sums.shape} and {p.shape}"
            )
        if not (np.isfinite(sums).all() and np.isfinite(p).all()):
            raise ContractViolation("attention statistics must be finite")
        if np.abs(p.sum(axis=1) - 1.0).max(initial=0.0) > 1e-5:
            raise ContractViolation("attention rows must sum to 1")
        if np.triu(p[:, n - p.shape[0] :], k=1).any():  # window row j is query row n - w + j
            raise ContractViolation("attention must have causal (lower-triangular) support")
        if sums.min(initial=0.0) < 0 or abs(sums.sum() - n) > n * 1e-5:
            raise ContractViolation(f"column sums must be >= 0 and total {n}")


@dataclass(frozen=True)
class PruneDecision:
    """Sorted, unique token indices retained under a budget.

    ``retained`` must be strictly increasing, or ContractViolation is
    raised. The check is one ``any(map(operator.le, r[1:], r))`` pass, which
    compares each index with the one before it without running Python
    bytecode per index.
    """

    retained: tuple[int, ...]

    def __post_init__(self) -> None:
        r = require_type("retained", self.retained, tuple)
        try:
            increasing = not any(map(operator.le, r[1:], r))
        except (TypeError, ValueError):  # items that do not compare as numbers
            increasing = False
        if not increasing:
            raise ContractViolation("retained indices must be strictly increasing")


def top_k_indices(scores, k: int) -> list[int]:
    """Indices of the k largest scores, ties broken toward the smaller index.

    The result is sorted ascending; scores that are not numbers or not finite
    raise ContractViolation.
    """
    try:
        s = np.asarray(scores)
    except ValueError:  # a ragged sequence, such as [1, [2]]
        raise ContractViolation("scores must be numbers, got a ragged sequence") from None
    if s.dtype.kind not in "biuf":
        raise ContractViolation(f"scores must be numbers, got dtype {s.dtype}")
    s = s.astype(np.float64, copy=False).reshape(-1)
    if require_int("k", k, 0) > s.size:
        raise ContractViolation(f"k={k} outside [0, {s.size}], the count of scores")
    if not np.isfinite(s).all():
        raise ContractViolation("scores must be finite")
    if k == 0:
        return []
    # stable sort on negated scores keeps earlier indices first among ties
    order = np.argsort(-s, kind="stable")[:k]
    return np.sort(order).tolist()


def _keep(n: int, budget: int, cfg: PolicyConfig, candidate_scores) -> PruneDecision:
    """The keep rule of every policy (see the module docstring).

    ``candidate_scores(c)`` scores the ``c = n - window`` candidates; it is
    called only when tokens are evicted.
    """
    w = require_type("cfg", cfg, PolicyConfig).window
    require_int("n", n, 1)
    require_int("budget", budget, w)
    if budget >= n:
        return PruneDecision(tuple(range(n)))
    picks = top_k_indices(candidate_scores(n - w), budget - w)
    return PruneDecision(tuple(picks) + tuple(range(n - w, n)))


def score_streaming(n: int, budget: int, cfg: PolicyConfig) -> PruneDecision:
    """Attention sinks (earliest tokens) plus the recent window."""
    return _keep(n, budget, cfg, lambda c: -np.arange(c))


def score_h2o(ctx: ScoreContext, budget: int, cfg: PolicyConfig) -> PruneDecision:
    """Cumulative-attention scoring over all query rows."""
    require_type("ctx", ctx, ScoreContext)
    return _keep(ctx.seq_len, budget, cfg, lambda c: ctx.column_sums[:c])


def _max_pool_1d(scores: np.ndarray, width: int) -> np.ndarray:
    """Centered max pooling over key positions; windows truncate at the edges.

    Output j is the max of ``scores[max(0, j - width // 2) : j + width // 2 + 1]``
    for an odd ``width``. It is built as ``width // 2`` in-place
    ``np.maximum`` steps, each folding in the scores one position further
    left and right; a shifted slice simply ends at the array's edge, so a
    window is cut there as it would be by -inf padding. Max is exact, so
    the result holds the same bits as the window maxima, ties included.
    """
    pooled = scores.copy()
    for d in range(1, width // 2 + 1):
        np.maximum(pooled[d:], scores[:-d], out=pooled[d:])
        np.maximum(pooled[:-d], scores[d:], out=pooled[:-d])
    return pooled


def score_snapkv(ctx: ScoreContext, budget: int, cfg: PolicyConfig) -> PruneDecision:
    """Observation-window scoring with max-pooled smoothing.

    The last ``recent_window`` query rows score every earlier key by summed
    attention; scores are smoothed by centered max pooling of ``pool_width``
    over the candidate region before top-k selection. The window itself is
    always retained. The context must be a ScoreContext holding the last
    ``recent_window`` rows (or all n when the window is longer), or
    ContractViolation is raised.
    """
    held = require_type("ctx", ctx, ScoreContext).window_probs.shape[0]
    w = require_type("cfg", cfg, PolicyConfig).window
    if held < min(w, ctx.seq_len):
        raise ContractViolation(f"{cfg.kind.value} reads the last {w} query rows; the context holds {held}")

    def pooled(c: int) -> np.ndarray:  # the window's w = n - c query rows start at row c
        raw = ctx.window_probs[held - w :, :].astype(np.float64).sum(axis=0)[:c]
        return _max_pool_1d(raw, cfg.pool_width)

    return _keep(ctx.seq_len, budget, cfg, pooled)


_SCORERS = {
    PolicyKind.H2O: score_h2o,
    PolicyKind.SNAPKV: score_snapkv,
    PolicyKind.PYRAMIDKV: score_snapkv,  # per-layer budgets come from the pyramid plan
}


def decide(policy: PolicyConfig, ctx: ScoreContext | None, n: int, budget: int) -> PruneDecision:
    """Dispatch to the policy's scoring rule.

    ``streaming_llm`` needs no attention statistics; the score-based rules
    require a ScoreContext for the same ``n`` tokens; ``ctx`` is None or a
    ScoreContext under any policy, and ``n`` an integer >= 1.
    """
    require_type("policy", policy, PolicyConfig)
    require_type("ctx", ctx, (ScoreContext, type(None)))
    require_int("n", n, 1)
    if policy.kind == PolicyKind.STREAMING_LLM:
        return score_streaming(n, budget, policy)
    if ctx is None:
        raise ContractViolation(f"{policy.kind.value} requires a ScoreContext")
    if ctx.seq_len != n:
        raise ContractViolation(f"statistics for n={ctx.seq_len} cannot score {n} tokens")
    return _SCORERS[policy.kind](ctx, budget, policy)
