import pytest

from kvtrade.errors import ContractViolation
from kvtrade.model import RecallVocab, build_recall_model
from kvtrade.tasks import gen_probe_prompt, gen_recall_task

VOCAB = RecallVocab(num_pairs=8, filler_vocab=16)


class TestGenRecallTask:
    def test_depth_zero_at_prompt_start(self):
        task = gen_recall_task(64, 1, [0.0], 0, VOCAB)
        q = task.queries[0]
        assert q.position == 0
        assert task.tokens[0] == q.key_token
        assert task.tokens[1] == q.value_token

    def test_depth_one_immediately_before_query(self):
        task = gen_recall_task(64, 1, [1.0], 0, VOCAB)
        q = task.queries[0]
        assert q.position == 62
        assert task.tokens[62] == q.key_token
        assert task.tokens[63] == q.value_token

    def test_placement_arithmetic(self):
        seq_len, n = 200, 10
        depths = [i / (n - 1) for i in range(n)]
        task = gen_recall_task(seq_len, n, depths, 3, VOCAB_10 := RecallVocab(10, 16))
        positions = [q.position for q in task.queries]
        assert positions == [int(d * (seq_len - 2)) for d in depths]

    def test_deterministic_per_seed(self):
        a = gen_recall_task(64, 4, [0.0, 0.3, 0.6, 1.0], 7, VOCAB)
        b = gen_recall_task(64, 4, [0.0, 0.3, 0.6, 1.0], 7, VOCAB)
        assert a.tokens == b.tokens
        assert a.queries == b.queries
        c = gen_recall_task(64, 4, [0.0, 0.3, 0.6, 1.0], 8, VOCAB)
        assert a.tokens != c.tokens

    def test_collisions_shift_forward(self):
        task = gen_recall_task(32, 3, [0.5, 0.5, 0.5], 0, VOCAB)
        positions = sorted(q.position for q in task.queries)
        assert positions == [15, 17, 19]

    def test_overcrowded_rejected(self):
        with pytest.raises(ContractViolation):
            gen_recall_task(10, 8, [i / 7 for i in range(8)], 0, VOCAB)
        with pytest.raises(ContractViolation):
            gen_recall_task(32, 3, [1.0, 1.0, 1.0], 0, VOCAB)

    def test_depth_count_must_match(self):
        with pytest.raises(ContractViolation):
            gen_recall_task(64, 3, [0.0, 1.0], 0, VOCAB)

    def test_tokens_come_from_model_vocab(self):
        _, vocab = build_recall_model(4, 64)
        task = gen_recall_task(64, 4, [0.0, 0.3, 0.6, 0.9], 1, vocab)
        assert all(0 <= t < vocab.size for t in task.tokens)
        keys = {q.key_token for q in task.queries}
        values = {q.value_token for q in task.queries}
        assert all(k < vocab.num_pairs for k in keys)
        assert all(vocab.num_pairs <= v < 2 * vocab.num_pairs for v in values)


def test_more_pairs_than_the_vocabulary_rejected():
    with pytest.raises(ContractViolation, match="more pairs than the model encodes"):
        gen_recall_task(64, 9, [0.5] * 9, 0, VOCAB)


def test_negative_seed_rejected():
    with pytest.raises(ContractViolation, match="seed must be an integer >= 0, got -1"):
        gen_recall_task(64, 3, [0.0, 0.5, 1.0], -1, VOCAB)
    with pytest.raises(ContractViolation, match="seed must be an integer >= 0, got -2"):
        gen_probe_prompt(16, 8, -2)
