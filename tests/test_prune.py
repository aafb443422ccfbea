import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kvtrade.errors import ContractViolation
from kvtrade.prune import (
    PolicyConfig,
    PolicyKind,
    PruneDecision,
    ScoreContext,
    decide,
    score_h2o,
    score_snapkv,
    score_streaming,
    top_k_indices,
)
from oracles import context_from_probs

# ---------------------------------------------------------------------------
# Brute-force oracle: full sort with explicit tie-breaks, explicit window
# unions, loop-based pooling. Kept deliberately independent of the library's
# argsort/vectorized implementations.
# ---------------------------------------------------------------------------


def oracle_top_k(scores, k):
    ranked = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    return sorted(ranked[:k])


def oracle_streaming(n, budget, recent):
    if budget >= n:
        return list(range(n))
    return sorted(set(range(budget - recent)) | set(range(n - recent, n)))


def oracle_h2o(attn, budget, recent):
    n = attn.shape[0]
    if budget >= n:
        return list(range(n))
    scores = [float(sum(attn[i][j] for i in range(n))) for j in range(n - recent)]
    return sorted(set(oracle_top_k(scores, budget - recent)) | set(range(n - recent, n)))


def oracle_snapkv(attn, budget, recent, pool):
    n = attn.shape[0]
    if budget >= n:
        return list(range(n))
    cand = n - recent
    raw = [float(sum(attn[i][j] for i in range(n - recent, n))) for j in range(cand)]
    half = pool // 2
    pooled = [
        max(raw[max(0, j - half) : min(cand, j + half + 1)]) for j in range(cand)
    ]
    return sorted(set(oracle_top_k(pooled, budget - recent)) | set(range(n - recent, n)))


def random_context(rng, n, tie_rich=False):
    """Random causal attention; tie_rich uses one-hot rows so scores collide."""
    if tie_rich:
        attn = np.zeros((n, n), dtype=np.float32)
        for i in range(n):
            attn[i, rng.integers(0, i + 1)] = 1.0
    else:
        logits = rng.normal(size=(n, n))
        mask = np.triu(np.ones((n, n), dtype=bool), k=1)
        logits[mask] = -np.inf
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        attn = (e / e.sum(axis=1, keepdims=True)).astype(np.float32)
    return context_from_probs(attn, n)


class TestTopK:
    def test_hand_example(self):
        assert top_k_indices([0.1, 0.9, 0.3], 2) == [1, 2]

    def test_tie_takes_smaller_index(self):
        assert top_k_indices([0.5, 0.5, 0.1], 1) == [0]

    def test_k_equals_length(self):
        assert top_k_indices([3.0, 1.0, 2.0], 3) == [0, 1, 2]

    def test_k_too_large(self):
        with pytest.raises(ContractViolation):
            top_k_indices([1.0], 2)

    def test_negative_k_rejected(self):
        # a negative slice bound would keep all but the last -k indices
        with pytest.raises(ContractViolation):
            top_k_indices([1.0, 2.0, 3.0], -1)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_scores_rejected(self, bad):
        # NaN would silently rank below every real score
        with pytest.raises(ContractViolation, match="scores must be finite"):
            top_k_indices([bad, 1.0, 2.0], 1)

    def test_against_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(2000):
            n = int(rng.integers(1, 40))
            # coarse lattice scores create plenty of ties
            scores = (rng.integers(0, 6, size=n) / 2.0).tolist()
            k = int(rng.integers(0, n + 1))
            assert top_k_indices(scores, k) == oracle_top_k(scores, k)

    @given(st.lists(st.floats(-10, 10, allow_nan=False), min_size=1, max_size=30), st.data())
    def test_oracle_property(self, scores, data):
        k = data.draw(st.integers(0, len(scores)))
        assert top_k_indices(scores, k) == oracle_top_k(scores, k)


class TestStreaming:
    CFG = PolicyConfig(PolicyKind.STREAMING_LLM, recent_window=4)

    def test_hand_example(self):
        d = score_streaming(10, 6, self.CFG)
        assert d.retained == (0, 1, 6, 7, 8, 9)

    def test_budget_exceeds_length(self):
        d = score_streaming(5, 8, self.CFG)
        assert d.retained == (0, 1, 2, 3, 4)

    def test_zero_sink_slots(self):
        cfg = PolicyConfig(PolicyKind.STREAMING_LLM, recent_window=32)
        d = score_streaming(100, 32, cfg)
        assert d.retained == tuple(range(68, 100))

    def test_budget_below_window(self):
        with pytest.raises(ContractViolation):
            score_streaming(10, 3, self.CFG)


class TestH2O:
    def test_identity_attention_ties(self):
        # every key accumulates exactly 1.0: ties keep lowest indices
        ctx = context_from_probs(np.eye(8, dtype=np.float32), 8)
        d = score_h2o(ctx, 4, PolicyConfig(PolicyKind.H2O, recent_window=2))
        assert d.retained == (0, 1, 6, 7)

    def test_dominant_key_always_kept(self):
        n = 12
        attn = np.zeros((n, n), dtype=np.float32)
        attn[0, 0] = 1.0
        for i in range(1, n):
            attn[i, 3] = 1.0 if i >= 3 else 0.0
            if i < 3:
                attn[i, 0] = 1.0
        ctx = context_from_probs(attn, n)
        d = score_h2o(ctx, 5, PolicyConfig(PolicyKind.H2O, recent_window=2))
        assert 3 in d.retained

    def test_causal_uniform_cumulative_scores(self):
        # hand sum: scores = [1 + 1/2 + 1/3 + 1/4, 1/2 + 1/3 + 1/4, 1/3 + 1/4, 1/4]
        attn = (np.tril(np.ones((4, 4))) / np.arange(1, 5)[:, None]).astype(np.float32)
        scores = attn.astype(np.float64).sum(axis=0)
        expected = [25 / 12, 13 / 12, 7 / 12, 1 / 4]
        assert np.allclose(scores, expected, atol=1e-6)
        ctx = context_from_probs(attn, 4)
        d = score_h2o(ctx, 3, PolicyConfig(PolicyKind.H2O, recent_window=2))
        assert d.retained == (0, 2, 3)


class TestSnapKV:
    def test_pool_width_one_is_identity(self):
        rng = np.random.default_rng(4)
        ctx = random_context(rng, 20)
        cfg1 = PolicyConfig(PolicyKind.SNAPKV, recent_window=4, pool_width=1)
        d1 = score_snapkv(ctx, 10, cfg1)
        # manual unsmoothed selection
        raw = ctx.window_probs[16:, :].astype(np.float64).sum(axis=0)[:16]
        expected = sorted(set(oracle_top_k(raw.tolist(), 6)) | set(range(16, 20)))
        assert list(d1.retained) == expected

    def test_spike_survives_pooling(self):
        # a spike's pooled score equals the raw spike, so it is retained once
        # the candidate slots cover its pooled plateau (ties prefer lower
        # indices, so neighbors j-3..j-1 fill first)
        n = 40
        attn = np.zeros((n, n), dtype=np.float32)
        for i in range(n - 4):
            attn[i, i] = 1.0
        for i in range(n - 4, n):
            attn[i, 7] = 1.0  # observation rows all hit key 7
        ctx = context_from_probs(attn, n)
        cfg = PolicyConfig(PolicyKind.SNAPKV, recent_window=4, pool_width=7)
        d = score_snapkv(ctx, 8, cfg)
        assert 7 in d.retained
        assert d.retained[:4] == (4, 5, 6, 7)

    def test_edge_spike_survives_with_one_slot(self):
        n = 20
        attn = np.zeros((n, n), dtype=np.float32)
        for i in range(n - 4):
            attn[i, i] = 1.0
        for i in range(n - 4, n):
            attn[i, 0] = 1.0
        ctx = context_from_probs(attn, n)
        cfg = PolicyConfig(PolicyKind.SNAPKV, recent_window=4, pool_width=7)
        assert 0 in score_snapkv(ctx, 5, cfg).retained

    def test_hand_pooling_example(self):
        # obs-window scores over candidates [0, 0.9, 0, 0] pool to
        # [0.9, 0.9, 0.9, 0]; ties keep {0, 1} plus the window {4, 5}
        attn = np.zeros((6, 6), dtype=np.float32)
        for i in range(4):
            attn[i, : i + 1] = 1.0 / (i + 1)
        attn[4, 1] = 0.9
        attn[4, 4] = 0.1
        attn[5, 5] = 1.0
        ctx = context_from_probs(attn, 6)
        d = score_snapkv(ctx, 4, PolicyConfig(PolicyKind.SNAPKV, recent_window=2, pool_width=3))
        assert d.retained == (0, 1, 4, 5)

    def test_needs_room_beyond_window(self):
        ctx = context_from_probs(np.eye(4, dtype=np.float32), 4)
        with pytest.raises(ContractViolation):
            score_snapkv(ctx, 3, PolicyConfig(PolicyKind.SNAPKV, recent_window=4))


class TestPyramidKV:
    def test_same_mechanics_as_snapkv_with_window_8(self):
        rng = np.random.default_rng(8)
        ctx = random_context(rng, 30)
        cfg = PolicyConfig(PolicyKind.PYRAMIDKV)
        assert cfg.window == 8
        d = score_snapkv(ctx, 12, cfg)
        snap = score_snapkv(ctx, 12, PolicyConfig(PolicyKind.SNAPKV, recent_window=8))
        assert d.retained == snap.retained
        assert decide(cfg, ctx, 30, 12) == d


class TestPolicyProperties:
    POLICIES = [
        PolicyConfig(PolicyKind.STREAMING_LLM, recent_window=3),
        PolicyConfig(PolicyKind.H2O, recent_window=3),
        PolicyConfig(PolicyKind.SNAPKV, recent_window=3, pool_width=3),
        PolicyConfig(PolicyKind.PYRAMIDKV, recent_window=3, pool_width=3),
    ]

    def test_size_sorted_unique_and_window_subset(self):
        rng = np.random.default_rng(10)
        for _ in range(60):
            n = int(rng.integers(5, 60))
            ctx = random_context(rng, n, tie_rich=bool(rng.integers(0, 2)))
            budget = int(rng.integers(3, n + 4))
            for cfg in self.POLICIES:
                d = decide(cfg, ctx, n, budget)
                r = list(d.retained)
                assert len(r) == min(budget, n)
                assert r == sorted(set(r))
                assert all(0 <= i < n for i in r)
                window = set(range(n - cfg.window, n)) if budget < n else set(range(n))
                assert window <= set(r)

    def test_score_monotonicity_enters_retained(self):
        # pushing enough mass onto an evicted key pulls it into the set
        rng = np.random.default_rng(12)
        n, recent, budget = 30, 3, 8
        ctx = random_context(rng, n)
        for kind, scorer in ((PolicyKind.H2O, score_h2o), (PolicyKind.SNAPKV, score_snapkv)):
            cfg = PolicyConfig(kind, recent_window=recent, pool_width=1)
            base = scorer(ctx, budget, cfg)
            victim = next(j for j in range(n - recent) if j not in base.retained)
            attn = ctx.window_probs.copy()
            attn[:, : n - recent] *= 0.01
            attn[:, victim] = 0.0
            # dump almost all of each row's candidate mass on the victim
            row_mass = 1.0 - attn.sum(axis=1)
            for i in range(victim, n):
                attn[i, victim] = row_mass[i]
            for i in range(victim):
                attn[i, i] += row_mass[i]
            boosted = context_from_probs(attn / attn.sum(axis=1, keepdims=True), n)
            assert victim in scorer(boosted, budget, cfg).retained

    def test_scale_invariance_of_selection(self):
        rng = np.random.default_rng(14)
        n = 24
        ctx = random_context(rng, n)
        cfg = PolicyConfig(PolicyKind.H2O, recent_window=3)
        base = score_h2o(ctx, 9, cfg)
        # positive scaling of all scores leaves top-k unchanged; emulate by
        # scaling the score vector fed to top_k_indices
        scores = ctx.window_probs.astype(np.float64).sum(axis=0)[: n - 3]
        for factor in (0.001, 3.0, 1e6):
            assert top_k_indices(scores * factor, 6) == top_k_indices(scores, 6)
        assert base.retained == score_h2o(ctx, 9, cfg).retained

    def test_oracle_agreement_random_contexts(self):
        # trimmed version of the acceptance sweep; the full 10k-case run
        # lives in test_acceptance.py
        rng = np.random.default_rng(16)
        for _ in range(300):
            n = int(rng.integers(5, 64))
            tie_rich = bool(rng.integers(0, 2))
            ctx = random_context(rng, n, tie_rich)
            recent = int(rng.integers(1, min(n, 8)))
            budget = int(rng.integers(recent, n + 2))
            pool = int(rng.choice([1, 3, 7]))
            attn = ctx.window_probs
            streaming = PolicyConfig(PolicyKind.STREAMING_LLM, recent_window=recent)
            assert list(score_streaming(n, budget, streaming).retained) == oracle_streaming(
                n, budget, recent
            )
            h2o = PolicyConfig(PolicyKind.H2O, recent_window=recent)
            assert list(score_h2o(ctx, budget, h2o).retained) == oracle_h2o(
                attn, budget, recent
            )
            if n > recent:
                snap = PolicyConfig(PolicyKind.SNAPKV, recent_window=recent, pool_width=pool)
                assert list(score_snapkv(ctx, budget, snap).retained) == oracle_snapkv(
                    attn, budget, recent, pool
                )


@pytest.mark.parametrize("kind", ["bogus", "snapkv", None])
def test_policy_rejects_kind_outside_the_enum(kind):
    # a plain string, even a member's value, is not a PolicyKind
    with pytest.raises(ContractViolation, match="PolicyKind member"):
        PolicyConfig(kind)


@pytest.mark.parametrize("kind", [PolicyKind.H2O, PolicyKind.SNAPKV, PolicyKind.PYRAMIDKV])
def test_decide_without_a_score_context_rejected(kind):
    with pytest.raises(ContractViolation, match=f"{kind.value} requires a ScoreContext"):
        decide(PolicyConfig(kind, recent_window=4), None, 16, 8)
    # streaming_llm reads no statistics
    assert decide(PolicyConfig(PolicyKind.STREAMING_LLM, recent_window=4), None, 16, 8).retained


def test_prune_decision_rejects_disorder():
    with pytest.raises(ContractViolation):
        PruneDecision((3, 1, 2))


def test_context_rejects_non_causal():
    attn = np.full((3, 3), 1 / 3, dtype=np.float32)
    with pytest.raises(ContractViolation):
        context_from_probs(attn, 3)


class TestStatisticsRejects:
    """ScoreContext rejects bad statistics with ContractViolation, never IndexError."""

    N = 16

    def stats(self, window=4):
        ctx = random_context(np.random.default_rng(3), self.N)
        return ctx.column_sums.copy(), ctx.window_probs[self.N - window :].copy()

    @pytest.mark.parametrize("kind", [PolicyKind.SNAPKV, PolicyKind.PYRAMIDKV])
    def test_window_longer_than_rows_held(self, kind):
        from kvtrade.model import ModelConfig, prefill, random_model

        n = 64
        model = random_model(ModelConfig(1, 1, 8, 16, n, seed=0))
        res = prefill(model, list(range(16)) * 4, window=8)
        ctx = ScoreContext(res.column_sums[0][0], res.attn[0][0], n)
        policy = PolicyConfig(kind, recent_window=32)
        with pytest.raises(ContractViolation, match="last 32 query rows; the context holds 8"):
            decide(policy, ctx, n, 40)

    def test_column_sums_of_wrong_length(self):
        sums, rows = self.stats()
        with pytest.raises(ContractViolation, match="column sums of shape"):
            ScoreContext(sums[:-1], rows, self.N)

    def test_window_wider_than_n(self):
        sums, rows = self.stats()
        with pytest.raises(ContractViolation, match="window rows"):
            ScoreContext(sums, np.pad(rows, ((0, 0), (0, 1))), self.N)

    @pytest.mark.parametrize("where", ["sums", "rows"])
    def test_nan(self, where):
        sums, rows = self.stats()
        (sums if where == "sums" else rows)[2] = np.nan
        with pytest.raises(ContractViolation, match="finite"):
            ScoreContext(sums, rows, self.N)

    def test_window_row_not_summing_to_one(self):
        sums, rows = self.stats()
        rows[1] *= 0.5
        with pytest.raises(ContractViolation, match="sum to 1"):
            ScoreContext(sums, rows, self.N)

    def test_window_row_past_its_diagonal(self):
        sums, rows = self.stats()
        # window row 0 is query row n-4, over keys 0..n-4: move key 0's weight to key n-3
        rows[0, self.N - 3], rows[0, 0] = rows[0, 0], 0.0
        with pytest.raises(ContractViolation, match="causal"):
            ScoreContext(sums, rows, self.N)

    def test_negative_column_sum(self):
        sums, rows = self.stats()
        sums[1] += sums[0] + 0.5
        sums[0] = -0.5  # the total stays n
        with pytest.raises(ContractViolation, match="column sums must be >= 0"):
            ScoreContext(sums, rows, self.N)

    def test_column_sums_off_total(self):
        sums, rows = self.stats()
        sums[0] += 1e-3
        with pytest.raises(ContractViolation, match="total 16"):
            ScoreContext(sums, rows, self.N)
