import re
from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest

from kvtrade import sweep
from kvtrade.errors import ContractViolation
from kvtrade.model import RecallVocab, embed_token
from kvtrade.sweep import (
    CSV_COLUMNS,
    DEMO_CONFIG,
    ConfigError,
    SweepConfig,
    emit_csv,
    enumerate_grid,
    parse_config,
    parse_csv,
    rows_to_csv,
    run_sweep,
)
from kvtrade.tasks import gen_recall_task

SMALL = SweepConfig(
    task="recall",
    model="recall",
    seq_lens=(96,),
    seeds=(0,),
    policies=("snapkv",),
    bits=(16, 4),
    token_multipliers=(1, 4),
    paired_budget=True,
    base_tokens=24,
    full_cache_tokens=96,
    num_pairs=6,
    filler_vocab=16,
    recent_window=8,
)


class TestConfigParsing:
    def test_demo_parses(self):
        cfg = parse_config(DEMO_CONFIG)
        assert cfg.task == "recall"
        assert cfg.policies == ("snapkv", "streaming_llm")
        assert cfg.paired_budget is True

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("no_such_key = 1\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("seq_lens = twelve\n")

    def test_bad_policy_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("policies = maxkv\n")

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config("# hello\n\nseeds = 3, 4  # trailing\n")
        assert cfg.seeds == (3, 4)

    def test_override_specs(self):
        cfg = parse_config("overrides = none, 0-4@16x1;8-12@8x2\nlayers = 16\nmodel = random\ntask = random_probe\nd_model = 16\nvocab = 16\n")
        assert cfg.overrides == ("none", "0-4@16x1;8-12@8x2")

    def test_bad_override_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("overrides = 0-4@16x4\n")

    def test_validate_lists_problems(self):
        with pytest.raises(ConfigError) as caught:
            SweepConfig(task="nope", policies=())
        problems = str(caught.value).split("; ")
        assert any("task" in p for p in problems)
        assert any("grid" in p for p in problems)

    def test_validate_flags_group_size_below_one(self):
        with pytest.raises(ConfigError, match="group_sizes"):
            SweepConfig(group_sizes=(0,))
        SweepConfig(group_sizes=(1, 64))

    @pytest.mark.parametrize(
        "kwargs, word",
        [
            (dict(task="random_probe", model="random", probe_steps=0), "probe_steps"),
            (dict(full_cache_tokens=0), "full_cache_tokens"),
            (dict(full_cache_tokens=-5), "full_cache_tokens"),
            (dict(seeds=(0, -1)), "seeds"),
            (dict(num_pairs=0), "num_pairs"),
            (dict(recent_window=0), "recent_window"),
            (dict(pool_width=4), "pool_width"),
            (dict(base_tokens=0), "base_tokens"),
            (dict(filler_vocab=0), "filler_vocab"),
            (dict(task="random_probe", model="random", heads=3, d_model=32), "divide"),
            (dict(task="random_probe", model="random", vocab=0), "vocab must be an integer >= 1, got 0"),
            (dict(task="random_probe", model="random", layers=0), "layers must be an integer >= 1, got 0"),
            (dict(layouts=("bogus",)), "layout"),
            (dict(task="random_prob"), "task"),
            (dict(task="random_probe", model="randm"), "model"),
            # with no pairing filter, a multiplier below 1 would leave every layer no token
            (dict(paired_budget=False, token_multipliers=(0, 1)), "token_multipliers must be an integer >= 1, got 0"),
            (dict(paired_budget=False, token_multipliers=(-1,)), "token_multipliers must be an integer >= 1, got -1"),
            # the recall model has one layer, a random one ``layers``
            (dict(overrides=("0-4@8x2",)), "override range exceeds layer count"),
            (dict(task="random_probe", model="random", layers=4, overrides=("none", "2-5@8x2")),
             "override range exceeds layer count"),
            (dict(task="random_probe", model="random", layers=4, overrides=("0-2@8x2;1-3@16x1",)),
             "override ranges overlap"),
            (dict(seq_lens=(3,)), "seq_lens must be an integer >= 4, got 3"),
            (dict(pyramid_min_fraction=0.0), "pyramid_min_fraction"),
            (dict(pyramid_min_fraction=1.5), "pyramid_min_fraction"),
        ],
        ids=["probe_steps", "full_cache_zero", "full_cache_negative", "seed", "num_pairs",
             "recent_window", "pool_width", "base_tokens", "filler_vocab", "random_heads",
             "random_vocab", "random_layers", "layout", "task_typo", "model_typo",
             "token_multiplier_zero", "token_multiplier_negative", "override_past_recall_layers",
             "override_past_random_layers", "override_overlap", "seq_len_3",
             "pyramid_fraction_0", "pyramid_fraction_past_1"],
    )
    def test_validate_flags_configs_that_crash_or_mislead(self, kwargs, word):
        with pytest.raises(ConfigError, match=word):
            SweepConfig(**kwargs)

    # each tuple-typed key given one value of its items, as a caller building a config in code might
    @pytest.mark.parametrize("key, value", [
        ("seq_lens", 64), ("seeds", 0), ("policies", "snapkv"), ("bits", 4), ("token_multipliers", 1),
        ("group_sizes", 64), ("layouts", "per_token"), ("overrides", "none"), ("needle_depths", 0.5),
        ("bits", [4, 8, 16]),
    ])
    def test_axis_that_is_not_a_tuple_rejected(self, key, value):
        with pytest.raises(ConfigError, match=rf"^{key} must be a tuple, got {re.escape(repr(value))}$"):
            SweepConfig(**{key: value})

    @pytest.mark.parametrize("value", [5, 2.5, None, b"out.csv"])
    def test_output_that_is_not_a_path_rejected(self, value, tmp_path):
        with pytest.raises(ConfigError, match=rf"^output must be a path, got {re.escape(repr(value))}$"):
            SweepConfig(output=value)
        assert SweepConfig(output=tmp_path / "out.csv").output == tmp_path / "out.csv"

    def test_validate_flags_needles_with_no_slot_left(self):
        # both pairs ask for depth 1.0: the second has no slot after the first
        with pytest.raises(ConfigError, match="no slot left at depth 1.0"):
            SweepConfig(num_pairs=2, needle_depths=(1.0, 1.0))

    def test_validate_flags_a_recall_setting_exactly_when_the_task_generator_raises(self):
        rng = np.random.default_rng(11)
        outcomes = set()
        for _ in range(300):
            pairs = int(rng.integers(0, 7))
            n = int(rng.integers(4, 24))
            if rng.random() < 0.25:
                depths = ()
            else:
                count = max(0, pairs + int(rng.choice([-1, 0, 0, 0, 1])))
                # crowd the depths toward the end and sometimes past [0, 1]
                depths = tuple(float(d) for d in rng.choice([0.0, 0.5, 0.9, 1.0, 1.2, -0.1], count))
            kwargs = dict(seq_lens=(n,), num_pairs=pairs, needle_depths=depths,
                          filler_vocab=int(rng.integers(0, 4)))
            try:
                # the depths the config would use, by its own rule
                gen_recall_task(n, pairs, SweepConfig.depths(SimpleNamespace(**kwargs)),
                                int(rng.integers(0, 1000)), RecallVocab(pairs, kwargs["filler_vocab"]))
                raised = False
            except ContractViolation:
                raised = True
            try:
                SweepConfig(**kwargs)
                flagged = False
            except ConfigError as exc:
                assert all(p.startswith("recall task") for p in str(exc).split("; ")), exc
                flagged = True
            assert flagged == raised, (pairs, n, depths, kwargs["filler_vocab"])
            outcomes.add(raised)
        assert outcomes == {True, False}

    @pytest.mark.parametrize(
        "text", ["seq_lens =\n", "overrides =\n", "bits = 2\n"], ids=["seq_lens", "overrides", "paired"]
    )
    def test_empty_grid_rejected(self, text):
        with pytest.raises(ConfigError, match="grid"):
            parse_config(text)

    def test_line_without_equals_rejected(self):
        with pytest.raises(ConfigError, match="line 2: expected 'key = value'"):
            parse_config("seeds = 1\nseq_lens 64\n")

    def test_repeated_key_rejected(self):
        with pytest.raises(ConfigError, match="line 2: repeated key 'seeds'"):
            parse_config("seeds = 1\nseeds = 2\n")

    def test_bad_bool_names_the_choices(self):
        with pytest.raises(ConfigError, match="line 1: bad value for paired_budget: expected true/false"):
            parse_config("paired_budget = yes\n")

    def test_every_field_parses(self):
        expected = SweepConfig(
            task="random_probe", model="random", weights_file="w.bin", seq_lens=(32, 48),
            seeds=(3, 4), policies=("h2o", "pyramidkv"), bits=(2, 8), token_multipliers=(8, 2),
            paired_budget=False, group_sizes=(16, 32), layouts=("per_channel", "per_token_outlier"),
            overrides=("none", "0-1@8x2"), base_tokens=12, full_cache_tokens=48, num_pairs=3,
            needle_depths=(0.1, 0.5, 0.9), filler_vocab=20, question_in_prompt=True, probe_steps=5, layers=2, heads=2,
            d_model=16, vocab=40, context_limit=64, pyramid_min_fraction=0.5, recent_window=6,
            pool_width=5, output="out.csv",
        )
        for f in fields(SweepConfig):
            assert getattr(expected, f.name) != f.default, f.name
        text = {
            "seq_lens": "32, 48", "seeds": "3,4", "policies": "h2o, pyramidkv", "bits": "2, 8",
            "token_multipliers": "8, 2", "paired_budget": "FALSE", "group_sizes": "16, 32",
            "layouts": "per_channel, per_token_outlier", "overrides": "none, 0-1@8x2",
            "needle_depths": "0.1, 0.5, 0.9", "pyramid_min_fraction": "0.5",
        }
        lines = {f.name: text.get(f.name, str(getattr(expected, f.name))) for f in fields(SweepConfig)}
        parsed = parse_config("".join(f"{k} = {v}\n" for k, v in lines.items()))
        for f in fields(SweepConfig):
            assert getattr(parsed, f.name) == getattr(expected, f.name), f.name

        lines.update(needle_depths="", recent_window="")
        parsed = parse_config("".join(f"{k} = {v}\n" for k, v in lines.items()))
        assert parsed == replace(expected, needle_depths=(), recent_window=None)


class TestGrid:
    def test_paired_filter(self):
        points = enumerate_grid(SMALL)
        assert [(p.bits, p.token_multiplier) for p in points] == [(16, 1), (4, 4)]

    def test_unpaired_cross_product(self):
        cfg = SweepConfig(
            task="random_probe", model="random", paired_budget=False,
            bits=(16, 4), token_multipliers=(1, 4), d_model=16, vocab=16,
        )
        points = enumerate_grid(cfg)
        assert len(points) == 4

    def test_indices_are_stable(self):
        points = enumerate_grid(SMALL)
        assert [p.index for p in points] == list(range(len(points)))

    def test_unpaired_order_is_axis_major(self):
        cfg = SweepConfig(
            task="random_probe", model="random", paired_budget=False,
            policies=("h2o", "snapkv"), bits=(16, 4), token_multipliers=(1, 4),
            group_sizes=(32, 64), layouts=("per_token", "per_channel"),
            overrides=("none", "0-1@8x2"), seq_lens=(24, 16), seeds=(1, 0),
        )
        expected = [
            (p, b, m, g, s, o, n, seed)
            for p in cfg.policies
            for b in cfg.bits
            for m in cfg.token_multipliers
            for g in cfg.group_sizes
            for s in cfg.layouts
            for o in cfg.overrides
            for n in cfg.seq_lens
            for seed in cfg.seeds
        ]
        points = enumerate_grid(cfg)
        assert len(expected) == 256
        assert [
            (p.policy, p.bits, p.token_multiplier, p.group_size, p.layout, p.override_id, p.seq_len, p.seed)
            for p in points
        ] == expected
        assert [p.index for p in points] == list(range(256))


class TestRunSweep:
    def test_recall_rows(self):
        rows, skips = run_sweep(SMALL)
        assert not skips
        assert len(rows) == 2
        by_bits = {r.bits: r for r in rows}
        # 4x tokens at 4-bit covers the whole 96-token prompt
        assert by_bits[4].accuracy == 1.0
        assert by_bits[16].accuracy < 1.0
        assert by_bits[4].budget_ratio_raw == pytest.approx(by_bits[16].budget_ratio_raw)
        for r in rows:
            assert 0.0 <= r.accuracy <= 1.0
            assert r.bytes > 0

    def test_lossless_point_matches_dense(self):
        cfg = SweepConfig(
            task="recall", model="recall", seq_lens=(64,), seeds=(0,),
            policies=("streaming_llm",), bits=(16,), token_multipliers=(1,),
            base_tokens=64, full_cache_tokens=64, num_pairs=4, filler_vocab=16,
        )
        rows, skips = run_sweep(cfg)
        assert not skips
        assert rows[0].accuracy == 1.0
        assert rows[0].logit_perturb == 0.0
        assert rows[0].budget_ratio_meta == 1.0

    def test_needle_outside_sink_and_recent_fails(self):
        cfg = SweepConfig(
            task="recall", model="recall", seq_lens=(128,), seeds=(0,),
            policies=("streaming_llm",), bits=(16,), token_multipliers=(1,),
            base_tokens=40, full_cache_tokens=128, num_pairs=1,
            needle_depths=(0.1,), filler_vocab=16,
        )
        rows, _ = run_sweep(cfg)
        # needle at depth 0.1 of 128 sits past the 8 sink slots and before
        # the 32 recent slots: evicted, so retrieval fails
        assert rows[0].accuracy == 0.0

    def test_infeasible_points_become_skips(self):
        cfg = SweepConfig(
            task="recall", model="recall", seq_lens=(64,), seeds=(0,),
            policies=("snapkv",), bits=(16,), token_multipliers=(1,),
            base_tokens=8, full_cache_tokens=64, num_pairs=4, filler_vocab=16,
        )
        rows, skips = run_sweep(cfg)
        assert not rows
        assert len(skips) == 1
        assert "below" in skips[0].reason

    def test_random_probe_task(self):
        cfg = SweepConfig(
            task="random_probe", model="random", seq_lens=(24,), seeds=(0, 1),
            policies=("h2o",), bits=(8,), token_multipliers=(2,),
            base_tokens=8, full_cache_tokens=24, probe_steps=3,
            layers=2, heads=2, d_model=16, vocab=32, recent_window=4,
        )
        rows, skips = run_sweep(cfg)
        assert not skips
        assert len(rows) == 2
        for r in rows:
            assert 0.0 <= r.accuracy <= 1.0
            assert r.logit_perturb >= 0.0

    def test_determinism(self):
        a, _ = run_sweep(SMALL)
        b, _ = run_sweep(SMALL)
        assert rows_to_csv(a) == rows_to_csv(b)

    def test_invalid_config_rejected_before_any_point_runs(self, monkeypatch):
        def fail(*args):
            raise AssertionError("a point ran")

        monkeypatch.setattr(sweep, "run_point", fail)
        with pytest.raises(ConfigError, match="probe_steps"):
            run_sweep(SweepConfig(task="random_probe", model="random", probe_steps=0))

    def test_parallel_matches_serial(self):
        cfg = replace(SMALL, seeds=(0, 1))  # two prompts: one prompt runs in-process whatever parallel is
        serial, _ = run_sweep(cfg)
        parallel, _ = run_sweep(cfg, parallel=2)
        assert rows_to_csv(serial) == rows_to_csv(parallel)

    @pytest.mark.parametrize("seeds, parallel, workers", [
        ((0, 1), 64, 2), ((0, 1, 2), 2, 2), ((0,), 64, None), ((0, 1), 1, None),
    ])
    def test_pool_holds_no_more_processes_than_prompts(self, monkeypatch, seeds, parallel, workers):
        import concurrent.futures

        # a pool forks all its processes at the first submit: the fake records
        # its size and runs each prompt in this process, starting nothing
        sizes = []

        class Pool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
        cfg = replace(SMALL, seeds=seeds)
        rows, _ = run_sweep(cfg, parallel=parallel)
        assert sizes == ([] if workers is None else [workers])
        assert rows_to_csv(rows) == rows_to_csv(run_sweep(cfg)[0])

    @pytest.mark.parametrize("parallel", [0, -1, 1.5, True])
    def test_parallel_below_one_or_not_an_integer_rejected(self, parallel, monkeypatch):
        monkeypatch.setattr(sweep, "run_point", lambda *a: pytest.fail("a point ran"))
        with pytest.raises(ContractViolation, match="parallel must be an integer >= 1"):
            run_sweep(SMALL, parallel=parallel)

    def test_pyramid_policy_runs(self):
        cfg = SweepConfig(
            task="random_probe", model="random", seq_lens=(32,), seeds=(0,),
            policies=("pyramidkv",), bits=(8,), token_multipliers=(2,),
            base_tokens=12, full_cache_tokens=32, probe_steps=2,
            layers=4, heads=1, d_model=16, vocab=32, recent_window=4,
        )
        rows, skips = run_sweep(cfg)
        assert not skips and len(rows) == 1

    def test_override_axis(self):
        cfg = SweepConfig(
            task="random_probe", model="random", seq_lens=(32,), seeds=(0,),
            policies=("streaming_llm",), bits=(4,), token_multipliers=(4,),
            base_tokens=12, full_cache_tokens=32, probe_steps=2,
            layers=8, heads=1, d_model=16, vocab=32, recent_window=4,
            overrides=("none", "0-4@16x1"),
        )
        rows, skips = run_sweep(cfg)
        assert not skips and len(rows) == 2
        assert rows[0].override_id == "none"
        assert rows[1].override_id == "0-4@16x1"
        assert rows[0].bytes != rows[1].bytes


class TestCsv:
    def test_header_only_when_empty(self):
        assert rows_to_csv([]) == ",".join(CSV_COLUMNS) + "\n"

    def test_header_is_the_documented_schema(self):
        assert rows_to_csv([]) == (
            "policy,bits,token_multiplier,tokens_per_layer,group_size,layout,override_id,"
            "seed,seq_len,accuracy,logit_perturb,bytes,budget_ratio_raw,budget_ratio_meta\n"
        )

    def test_fixed_column_count(self):
        rows, _ = run_sweep(SMALL)
        for line in rows_to_csv(rows).strip().splitlines():
            assert len(line.split(",")) == 14

    def test_round_trip(self):
        rows, _ = run_sweep(SMALL)
        parsed = parse_csv(rows_to_csv(rows))
        assert rows_to_csv(parsed) == rows_to_csv(rows)

    def test_emit_to_file(self, tmp_path):
        rows, _ = run_sweep(SMALL)
        path = tmp_path / "out.csv"
        emit_csv(rows, path)
        assert parse_csv(path.read_text())[0].policy == "snapkv"

    def test_unwritable_path_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            emit_csv([], tmp_path / "missing_dir" / "out.csv")

    @pytest.mark.parametrize("text", ["", "policy,bits\n", rows_to_csv([]).replace("seed,", "")],
                             ids=["empty", "short", "column-missing"])
    def test_wrong_header_rejected(self, text):
        with pytest.raises(ValueError, match="unexpected CSV header"):
            parse_csv(text)

    def test_wrong_column_count_rejected(self):
        header, row = rows_to_csv(run_sweep(SMALL)[0][:1]).splitlines()
        parse_csv(f"{header}\n{row}\n")
        with pytest.raises(ValueError, match="expected 14 columns, got 13"):
            parse_csv(f"{header}\n{row.rsplit(',', 1)[0]}\n")
        with pytest.raises(ValueError, match="expected 14 columns, got 15"):
            parse_csv(f"{header}\n{row},1\n")


class TestQuestionInPrompt:
    """``question_in_prompt`` appends the queried keys after the prompt, where a question sits."""

    CFG = SweepConfig(task="recall", model="recall", seq_lens=(512,), seeds=tuple(range(8)),
                      policies=("streaming_llm", "h2o", "snapkv"), bits=(4,), token_multipliers=(1, 2),
                      paired_budget=False, base_tokens=64, full_cache_tokens=512, num_pairs=16,
                      question_in_prompt=True)

    def test_the_prompt_ends_with_the_question_and_queries_decode_after_it(self):
        cfg = replace(SMALL, question_in_prompt=True)
        point = enumerate_grid(cfg)[0]
        model = sweep._build_model(cfg, point, None)
        prompt = sweep._build_prompt(cfg, point, model)
        task = gen_recall_task(96, 6, cfg.depths(), 0, RecallVocab(6, 16))
        keys = [q.key_token for q in task.queries]
        assert prompt.tokens.tolist() == task.tokens + keys
        # the model fits the longer prompt: its context limit grows by num_pairs
        assert model.config.context_limit == sweep._build_model(SMALL, point, None).config.context_limit + 6
        embedded = [embed_token(model, key, position=96 + 6) for key in keys]
        assert all(np.array_equal(h, want) for (h, _, _), want in zip(prompt.queries, embedded))
        sweep._PROMPTS.clear()

    def test_off_by_default_and_parsed(self):
        assert SweepConfig().question_in_prompt is False
        assert parse_config("question_in_prompt = true\n").question_in_prompt is True

    def test_window_policies_that_see_the_question_keep_more_needles(self):
        # at 4 bits, 512 tokens and 16 pairs, 64 and 128 kept tokens: SnapKV's observation window
        # holds the question, H2O's accumulated scores see part of it, StreamingLLM none of it
        rows, skips = run_sweep(self.CFG)
        assert not skips
        medians = {(policy, tokens): float(np.median([r.accuracy for r in rows
                                                       if r.policy == policy and r.tokens_per_layer == tokens]))
                   for policy in self.CFG.policies for tokens in (64, 128)}
        for tokens in (64, 128):
            assert medians["snapkv", tokens] > medians["h2o", tokens] > medians["streaming_llm", tokens], medians
        assert medians == {("streaming_llm", 64): 0.125, ("streaming_llm", 128): 0.25, ("h2o", 64): 0.25,
                           ("h2o", 128): 0.5625, ("snapkv", 64): 0.375, ("snapkv", 128): 0.9375}
        # without the question every policy keeps what StreamingLLM keeps
        without = run_sweep(replace(self.CFG, question_in_prompt=False))[0]
        by_policy = {policy: [(r.seed, r.tokens_per_layer, r.accuracy) for r in without if r.policy == policy]
                     for policy in self.CFG.policies}
        assert by_policy["snapkv"] == by_policy["h2o"] == by_policy["streaming_llm"]


class TestBudgetMatchedRows:
    def test_three_configurations_agree_within_seven_percent(self):
        # the paired grid emits one row per (bits, multiplier) at head_dim 64;
        # their metadata-inclusive budget ratios stay within 7% of each other
        cfg = SweepConfig(
            task="recall", model="recall", seq_lens=(512,), seeds=(0,),
            policies=("snapkv",), bits=(16, 8, 4), token_multipliers=(1, 2, 4),
            base_tokens=128, full_cache_tokens=512, num_pairs=16, filler_vocab=32,
        )
        rows, skips = run_sweep(cfg)
        assert not skips and len(rows) == 3
        ratios = [r.budget_ratio_meta for r in rows]
        assert max(ratios) / min(ratios) <= 1.07
        raw = {r.budget_ratio_raw for r in rows}
        assert len(raw) == 1  # code payload is exactly budget-matched

    def test_two_bit_perturbs_more_than_four_bit(self):
        cfg = SweepConfig(
            task="random_probe", model="random", seq_lens=(48,), seeds=tuple(range(6)),
            policies=("streaming_llm",), bits=(2, 4), token_multipliers=(1,),
            paired_budget=False, base_tokens=64, full_cache_tokens=48,
            probe_steps=2, layers=2, heads=2, d_model=16, vocab=32,
            group_sizes=(8,), recent_window=4,
        )
        rows, skips = run_sweep(cfg)
        assert not skips
        import numpy as np

        med = {
            bits: float(np.median([r.logit_perturb for r in rows if r.bits == bits]))
            for bits in (2, 4)
        }
        assert med[2] > med[4]


class TestWeightsFile:
    def test_probe_sweep_from_saved_weights(self, tmp_path):
        from kvtrade.model import ModelConfig, random_model, save_weights

        model = random_model(ModelConfig(2, 2, 16, 32, 64, seed=5))
        path = tmp_path / "model.bin"
        save_weights(model, path)
        cfg = SweepConfig(
            task="random_probe", model="random", weights_file=str(path),
            seq_lens=(24,), seeds=(0,), policies=("streaming_llm",),
            bits=(8,), token_multipliers=(2,), base_tokens=8,
            full_cache_tokens=24, probe_steps=2, recent_window=4,
        )
        rows, skips = run_sweep(cfg)
        assert not skips and len(rows) == 1

    @pytest.mark.parametrize("parallel", [1, 2])
    def test_corrupt_weights_file_aborts_the_sweep(self, tmp_path, parallel):
        # stored-data corruption is a storage fault, not a skippable config
        from kvtrade.errors import IntegrityError
        from kvtrade.model import ModelConfig, random_model, save_weights

        path = tmp_path / "model.bin"
        save_weights(random_model(ModelConfig(1, 2, 16, 32, 64, seed=5)), path)
        cfg = SweepConfig(
            task="random_probe", model="random", weights_file=str(path),
            seq_lens=(24,), seeds=(0, 1), policies=("streaming_llm",),
            bits=(8,), token_multipliers=(2,), base_tokens=8,
            full_cache_tokens=24, probe_steps=2, recent_window=4,
        )
        path.write_bytes(path.read_bytes()[:-1])  # damaged after the config was built
        with pytest.raises(IntegrityError, match="truncated"):
            run_sweep(cfg, parallel=parallel)
        with pytest.raises(IntegrityError, match="truncated"):
            replace(cfg)  # building the config reads the file too

    def test_weights_file_loads_once_per_sweep(self, tmp_path, monkeypatch):
        from kvtrade.model import ModelConfig, random_model, save_weights

        path = tmp_path / "model.bin"
        save_weights(random_model(ModelConfig(1, 2, 16, 32, 64, seed=5)), path)
        calls = []
        load = sweep.load_weights
        monkeypatch.setattr(sweep, "load_weights", lambda p: calls.append(p) or load(p))
        sweep._weights_model.cache_clear()
        cfg = SweepConfig(
            task="random_probe", model="random", weights_file=str(path),
            seq_lens=(24,), seeds=(0, 1, 2), policies=("streaming_llm",),
            bits=(8,), token_multipliers=(2,), base_tokens=8,
            full_cache_tokens=24, probe_steps=2, recent_window=4,
        )
        rows, skips = run_sweep(cfg)
        assert len(rows) == 3 and not skips
        assert calls == [str(path)]

    def test_seq_len_past_the_files_context_limit_rejected(self, tmp_path):
        from kvtrade.model import ModelConfig, random_model, save_weights

        path = tmp_path / "model.bin"
        save_weights(random_model(ModelConfig(1, 2, 16, 32, 32, seed=5)), path)
        cfg = dict(
            task="random_probe", model="random", weights_file=str(path),
            seq_lens=(24, 64), seeds=(0,), policies=("streaming_llm",),
            bits=(8,), token_multipliers=(2,), base_tokens=8,
            full_cache_tokens=24, probe_steps=2, recent_window=4,
        )
        with pytest.raises(ConfigError, match="^seq_len 64 exceeds context_limit 32$"):
            SweepConfig(**cfg)

    def test_override_past_the_files_layers_rejected(self, tmp_path):
        # the file's two layers count, not the config's ``layers``
        from kvtrade.model import ModelConfig, random_model, save_weights

        path = tmp_path / "model.bin"
        save_weights(random_model(ModelConfig(2, 2, 16, 32, 64, seed=5)), path)
        cfg = dict(
            task="random_probe", model="random", weights_file=str(path), layers=4,
            seq_lens=(24,), seeds=(0,), policies=("streaming_llm",),
            bits=(8,), token_multipliers=(2,), base_tokens=8,
            full_cache_tokens=24, probe_steps=2, recent_window=4,
        )
        SweepConfig(**cfg, overrides=("none", "0-2@16x1"))
        with pytest.raises(ConfigError, match="^bad override '1-3@16x1': override range exceeds layer count$"):
            SweepConfig(**cfg, overrides=("none", "1-3@16x1"))

    @pytest.mark.parametrize("kind", ["float", "file descriptor"])
    def test_weights_file_that_is_not_a_path_rejected(self, tmp_path, kind):
        # open() would take an integer for a file descriptor, read it and close it
        from kvtrade.model import ModelConfig, random_model, save_weights

        path = tmp_path / "model.bin"
        save_weights(random_model(ModelConfig(1, 2, 16, 32, 64, seed=5)), path)
        cfg = dict(task="random_probe", model="random", seq_lens=(24,), seeds=(0,),
                   policies=("streaming_llm",), bits=(8,), token_multipliers=(2,), base_tokens=8,
                   full_cache_tokens=24, probe_steps=2, recent_window=4)
        assert SweepConfig(**cfg, weights_file=path).weights_file == path  # a path object is one
        with open(path, "rb") as fh:
            value = 3.5 if kind == "float" else fh.fileno()
            assert value not in (0, 1, 2)
            with pytest.raises(ConfigError, match=f"^weights_file must be a path, got {value}$"):
                SweepConfig(**cfg, weights_file=value)
            assert fh.read(4) == b"KVTW"  # the descriptor was neither read nor closed

    def test_recall_with_weights_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="recall"):
            SweepConfig(task="recall", model="recall", weights_file="w.bin")


class TestStrategies:
    def test_outlier_strategy_changes_bytes_not_structure(self):
        base = SweepConfig(
            task="recall", model="recall", seq_lens=(96,), seeds=(0,),
            policies=("snapkv",), bits=(4,), token_multipliers=(4,),
            base_tokens=24, full_cache_tokens=96, num_pairs=6, filler_vocab=16,
            layouts=("per_token", "per_token_outlier", "per_channel"),
        )
        rows, skips = run_sweep(base)
        assert not skips
        by_layout = {r.layout: r for r in rows}
        assert set(by_layout) == {"per_token", "per_token_outlier", "per_channel"}
        # the recall model's gain spikes exceed the threshold, so the outlier
        # run stores them exactly and pays the sidecar bytes
        assert by_layout["per_token_outlier"].bytes > by_layout["per_token"].bytes
        for r in rows:
            assert r.accuracy == 1.0  # full coverage at 4x


def _fields(outcome):
    """Every field of a row, or a skip's point and reason."""
    if isinstance(outcome, sweep.SweepSkip):
        return ("skip", outcome.point, outcome.reason)
    return tuple(getattr(outcome, f.name) for f in fields(outcome))


# two policies x paired bits x two seeds; each prompt's last point (16-bit,
# 1x the base tokens) is below the policy window and so skips for budget
SHARED = [
    SweepConfig(
        task="recall", model="recall", seq_lens=(96,), seeds=(0, 1),
        policies=("pyramidkv", "snapkv"), bits=(4, 16), token_multipliers=(4, 1),
        base_tokens=24, full_cache_tokens=96, num_pairs=6, filler_vocab=16,
    ),
    SweepConfig(
        task="random_probe", model="random", seq_lens=(40,), seeds=(0, 1),
        policies=("h2o", "snapkv"), bits=(4, 16), token_multipliers=(4, 1),
        base_tokens=6, full_cache_tokens=40, probe_steps=3, recent_window=8,
        layers=2, heads=2, d_model=16, vocab=32, group_sizes=(8,),
    ),
]


class TestPromptState:
    @pytest.mark.parametrize("cfg", SHARED, ids=["recall", "random_probe"])
    def test_sharing_changes_no_row(self, cfg):
        points = enumerate_grid(cfg)
        oracle = []
        for p in points:
            sweep._PROMPTS.clear()
            oracle.append(_fields(sweep.run_point(cfg, p)))
        sweep._PROMPTS.clear()
        assert all(o[0] == "skip" for o in oracle[-len(cfg.seeds):])
        assert [_fields(sweep.run_point(cfg, p)) for p in points] == oracle
        for parallel in (1, 2):
            rows, skips = run_sweep(cfg, parallel=parallel)
            assert [_fields(r) for r in rows] == [o for o in oracle if o[0] != "skip"]
            assert [_fields(s) for s in skips] == [o for o in oracle if o[0] == "skip"]

    @pytest.mark.parametrize("cfg", SHARED, ids=["recall", "random_probe"])
    def test_each_prompt_prefills_once_and_is_dropped_at_its_last_point(self, cfg, monkeypatch):
        calls = []
        prefill = sweep.prefill
        monkeypatch.setattr(sweep, "prefill", lambda *a: calls.append(a) or prefill(*a))
        points = enumerate_grid(cfg)
        assert isinstance(sweep.run_point(cfg, points[-1]), sweep.SweepSkip)
        sweep._PROMPTS.clear()
        calls.clear()
        for p in points:
            sweep.run_point(cfg, p)
        assert len(calls) == len(cfg.seeds)
        assert sweep._PROMPTS == {}
        run_sweep(cfg)
        assert len(calls) == 2 * len(cfg.seeds)
        assert sweep._PROMPTS == {}

    def test_recall_prompts_outlive_the_recall_model_cache(self, monkeypatch):
        # 9 lengths, each a prompt with two points, one per pass over the
        # lengths: each prompt is prefilled once, at its first point
        cfg = replace(SMALL, seq_lens=tuple(range(24, 42, 2)), num_pairs=2, filler_vocab=4,
                      base_tokens=6, full_cache_tokens=24, recent_window=2)
        calls = []
        prefill = sweep.prefill
        monkeypatch.setattr(sweep, "prefill", lambda *a: calls.append(a) or prefill(*a))
        outcomes = [sweep.run_point(cfg, p) for p in enumerate_grid(cfg)]
        assert len(outcomes) == 18 and all(isinstance(o, sweep.SweepRow) for o in outcomes)
        assert len(calls) == 9
        assert sweep._PROMPTS == {}

    @pytest.mark.parametrize("cfg", SHARED, ids=["recall", "random_probe"])
    def test_kept_state_is_read_only(self, cfg):
        # the K/V stacks, the contexts' views of the statistics and the queries
        sweep.run_point(cfg, enumerate_grid(cfg)[0])
        prompt = sweep._PROMPTS[(cfg.seq_lens[0], cfg.seeds[0])]
        arrays = [*prompt.keys, *prompt.values, *(a for h, _, ref in prompt.queries for a in (h, ref))]
        arrays += [a for row in prompt.contexts for ctx in row for a in (ctx.column_sums, ctx.window_probs)]
        assert len(arrays) > 2 * len(prompt.queries) and not any(a.flags.writeable for a in arrays)
        sweep._PROMPTS.clear()

    def test_another_config_drops_every_prompt(self):
        cfg = SHARED[0]
        sweep.run_point(cfg, enumerate_grid(cfg)[0])
        kept = sweep._PROMPTS[(96, 0)]
        sweep.run_point(SMALL, enumerate_grid(SMALL)[0])  # also seq_len 96, seed 0
        assert list(sweep._PROMPTS) == [(96, 0)]
        assert sweep._PROMPTS[(96, 0)] is not kept
        sweep._PROMPTS.clear()

    def test_prefill_failure_is_not_kept(self, tmp_path):
        # the weights file is rewritten after the config is built: the prompt
        # is now longer than the model's context
        import os

        from kvtrade.model import ModelConfig, random_model, save_weights

        path = tmp_path / "model.bin"
        save_weights(random_model(ModelConfig(2, 2, 16, 32, 64, seed=5)), path)
        cfg = replace(SHARED[1], weights_file=str(path))
        save_weights(random_model(ModelConfig(2, 2, 16, 32, 32, seed=5)), path)
        os.utime(path, ns=(1, 1))  # a new mtime, however coarse the clock
        outcomes = [sweep.run_point(cfg, p) for p in enumerate_grid(cfg)]
        assert {o.reason for o in outcomes} == {"prompt length 40 outside (0, 32]"}
        assert sweep._PROMPTS == {}

    def test_rewritten_weights_file_recomputes(self, tmp_path):
        import os

        from kvtrade.model import ModelConfig, random_model, save_weights

        path = tmp_path / "model.bin"
        save_weights(random_model(ModelConfig(2, 2, 16, 32, 64, seed=5)), path)
        cfg = replace(SHARED[1], model="random", weights_file=str(path), seeds=(0,))
        first, second = enumerate_grid(cfg)[:2]
        sweep.run_point(cfg, first)
        kept = sweep._PROMPTS[(40, 0)]
        save_weights(random_model(ModelConfig(2, 2, 16, 32, 64, seed=6)), path)
        os.utime(path, ns=(1, 1))  # a new mtime, however coarse the clock
        shared = _fields(sweep.run_point(cfg, second))
        assert sweep._PROMPTS[(40, 0)] is not kept
        sweep._PROMPTS.clear()
        assert shared == _fields(sweep.run_point(cfg, second))
        sweep._PROMPTS.clear()


def test_import_does_not_load_multiprocessing():
    import os
    import subprocess
    import sys

    import kvtrade

    src = os.path.dirname(os.path.dirname(kvtrade.__file__))
    # prefill imports concurrent.futures only when it runs head workers
    code = "import sys, kvtrade; sys.exit('multiprocessing' in sys.modules or 'concurrent.futures' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


class TestUnvalidatedConfigSkips:
    """A value that would skip every point of a policy or seed fails the config's construction.

    The functions behind it still raise ContractViolation for direct callers.
    """

    def test_unknown_policy_is_a_contract_violation(self):
        with pytest.raises(ContractViolation, match="unknown policy 'maxkv'"):
            SMALL.policy("maxkv")
        with pytest.raises(ConfigError, match="^policy maxkv: unknown policy 'maxkv'$"):
            replace(SMALL, policies=("maxkv",))

    def test_unknown_policy_skips_its_points(self):
        with pytest.raises(ConfigError, match="^policy bogus: unknown policy 'bogus'$"):
            replace(SHARED[1], policies=("bogus", "snapkv"), seeds=(0,))

    @pytest.mark.parametrize("cfg", SHARED, ids=["recall", "random_probe"])
    def test_negative_seed_skips_its_points(self, cfg):
        with pytest.raises(ConfigError, match="^seeds must be an integer >= 0, got -1$"):
            replace(cfg, seeds=(-1,))

    def test_negative_seed_skips_a_weights_file_probe(self, tmp_path):
        from kvtrade.model import ModelConfig, random_model, save_weights

        path = tmp_path / "model.bin"
        save_weights(random_model(ModelConfig(2, 2, 16, 32, 64, seed=5)), path)
        with pytest.raises(ConfigError, match="^seeds must be an integer >= 0, got -1$"):
            replace(SHARED[1], model="random", weights_file=str(path), seeds=(-1,))
