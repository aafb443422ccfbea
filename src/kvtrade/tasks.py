"""Synthetic retrieval task generation.

The recall task buries key-value token pairs at requested depth fractions
inside a filler prompt; each key later arrives as a decode-time query and
the model must emit the paired value token. It is the desk-scale analog of
needle-retrieval probes: a needle survives compression exactly when its
cache entries do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, is_number, require_int, require_type
from .model import RecallVocab


@dataclass(frozen=True)
class RecallQuery:
    key_token: int
    value_token: int
    position: int  # index of the key token in the prompt


@dataclass
class RecallTask:
    tokens: list[int]
    queries: list[RecallQuery]


def gen_recall_task(
    seq_len: int,
    num_pairs: int,
    needle_depths,
    seed: int,
    vocab: RecallVocab,
) -> RecallTask:
    """Place one key-value pair per depth fraction among seeded filler tokens.

    A pair at depth d starts at floor(d * (seq_len - 2)); depth 0.0 is the
    prompt start and depth 1.0 sits immediately before the decode-time query.
    Colliding placements shift forward to the next free slot. Which pair
    identity lands at which depth is shuffled per seed. A ``seq_len`` that
    is not an integer >= 1, a ``num_pairs`` or ``seed`` not one >= 0, or
    ``needle_depths`` that are not a list or tuple, raise ContractViolation.
    """
    require_type("vocab", vocab, RecallVocab)
    seq_len, seed = require_int("seq_len", seq_len, 1), require_int("seed", seed, 0)
    num_pairs = require_int("num_pairs", num_pairs, 0)
    depths = require_type("needle_depths", needle_depths, (list, tuple))
    if len(depths) != num_pairs:
        raise ContractViolation(
            f"expected {num_pairs} depths, got {len(depths)}"
        )
    if 2 * num_pairs > seq_len:
        raise ContractViolation(
            f"overcrowded prompt: {num_pairs} pairs cannot fit in {seq_len} tokens"
        )
    if num_pairs > vocab.num_pairs:
        raise ContractViolation("task asks for more pairs than the model encodes")

    rng = np.random.default_rng([seed, seq_len, num_pairs])
    tokens = [vocab.filler(int(j)) for j in rng.integers(0, vocab.filler_vocab, seq_len)]
    order = rng.permutation(vocab.num_pairs)[:num_pairs]

    span = seq_len - 2
    occupied: set[int] = set()
    queries: list[RecallQuery] = []
    for depth, pair in zip(depths, order):
        if not (is_number(depth) and 0.0 <= depth <= 1.0):
            raise ContractViolation(f"depth must be a number in [0, 1], got {depth!r}")
        pos = min(int(math.floor(depth * span)), span)
        while pos <= span and (pos in occupied or pos + 1 in occupied):
            pos += 1
        if pos > span:
            raise ContractViolation(f"overcrowded prompt: no slot left at depth {depth}")
        occupied.update((pos, pos + 1))
        pair = int(pair)
        tokens[pos] = vocab.key(pair)
        tokens[pos + 1] = vocab.value(pair)
        queries.append(RecallQuery(vocab.key(pair), vocab.value(pair), pos))
    return RecallTask(tokens, queries)


def gen_probe_prompt(seq_len: int, vocab_size: int, seed: int) -> list[int]:
    """Seeded uniform-random prompt for logit-perturbation probes (seq_len >= 1,
    vocab_size >= 1, seed >= 0)."""
    seq_len, seed = require_int("seq_len", seq_len, 1), require_int("seed", seed, 0)
    vocab_size = require_int("vocab_size", vocab_size, 1)
    rng = np.random.default_rng([seed, seq_len])
    return [int(t) for t in rng.integers(0, vocab_size, seq_len)]
