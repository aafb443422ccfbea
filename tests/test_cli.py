import hashlib
import os
import subprocess
import sys

import pytest

import kvtrade
from kvtrade import cli
from kvtrade.cli import main
from kvtrade.sweep import parse_csv

DEMO_SHA256 = "e93c317278ebe77e8ceb649a229f8143664a5b059b9a5229c029b9e684464883"
GOOD_CONFIG = """\
task = recall
model = recall
seq_lens = 64
seeds = 0
policies = streaming_llm
bits = 16, 4
token_multipliers = 1, 4
base_tokens = 16
full_cache_tokens = 64
num_pairs = 4
filler_vocab = 16
recent_window = 4
"""


class TestRun:
    def test_run_writes_csv(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(GOOD_CONFIG)
        out = tmp_path / "result.csv"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        rows = parse_csv(out.read_text())
        assert len(rows) == 2
        assert "wrote 2 rows" in capsys.readouterr().out

    def test_verbose_skips_name_every_grid_field(self, tmp_path, capsys):
        # two points that differ only by override, both below the policy's window
        cfg = tmp_path / "skips.cfg"
        cfg.write_text(
            "task = random_probe\nmodel = random\nseq_lens = 32\nseeds = 0\n"
            "policies = snapkv\nbits = 4\ntoken_multipliers = 4\nbase_tokens = 2\n"
            "full_cache_tokens = 32\nprobe_steps = 2\nlayers = 2\nheads = 1\nd_model = 8\n"
            "vocab = 16\ncontext_limit = 64\nrecent_window = 15\noverrides = none, 0-1@8x2\n"
        )
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o.csv"), "--verbose"]) == 0
        lines = capsys.readouterr().err.splitlines()
        fields = "policy=snapkv bits=4 token_multiplier=4 group_size=64 layout=per_token"
        assert lines == [
            f"skipped {fields} override_id=none seq_len=32 seed=0: layer 0 budget 8 below policy minimum 15",
            f"skipped {fields} override_id=0-1@8x2 seq_len=32 seed=0: layer 0 budget 4 below policy minimum 15",
        ]

    def test_run_demo_config(self, tmp_path):
        out = tmp_path / "demo.csv"
        assert main(["run", "--config", "demo", "--out", str(out)]) == 0
        # the demo's bytes (ROADMAP rule 1); identical under 1 and 2 BLAS threads
        assert hashlib.sha256(out.read_bytes()).hexdigest() == DEMO_SHA256

    def test_missing_config_is_config_error(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "nope.cfg")]) == 2

    def test_invalid_config_is_config_error(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("task = juggling\n")
        assert main(["run", "--config", str(cfg)]) == 2

    def test_zero_probe_steps_is_config_error(self, tmp_path):
        cfg = tmp_path / "probe.cfg"
        cfg.write_text("task = random_probe\nmodel = random\nseq_lens = 24\nprobe_steps = 0\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out.csv")]) == 2
        assert not (tmp_path / "out.csv").exists()

    def test_zero_base_tokens_is_config_error(self, tmp_path):
        cfg = tmp_path / "base.cfg"
        cfg.write_text(GOOD_CONFIG.replace("base_tokens = 16", "base_tokens = 0"))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out.csv")]) == 2
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("parallel", ["0", "-1", "1.5"])
    def test_parallel_below_one_or_not_an_integer_is_config_error(self, tmp_path, capsys, parallel):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(GOOD_CONFIG)
        out = tmp_path / "out.csv"
        with pytest.raises(SystemExit) as exited:
            main(["run", "--config", str(cfg), "--out", str(out), "--parallel", parallel])
        assert exited.value.code == 2
        assert "--parallel" in capsys.readouterr().err
        assert not out.exists()

    def test_output_dir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("KVTRADE_OUT_DIR", str(tmp_path / "outputs"))
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(GOOD_CONFIG + "output = env_test.csv\n")
        assert main(["run", "--config", str(cfg)]) == 0
        assert (tmp_path / "outputs" / "env_test.csv").exists()


class TestValidate:
    def test_valid_exits_zero(self, tmp_path):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text(GOOD_CONFIG)
        assert main(["validate", "--config", str(cfg)]) == 0

    def test_2bit_override_is_valid(self, tmp_path):
        # 8x@2 is a paired grid point, so an override may use it too
        text = GOOD_CONFIG.replace("bits = 16, 4", "bits = 2, 16")
        text = text.replace("token_multipliers = 1, 4", "token_multipliers = 8, 1")
        cfg = tmp_path / "ok.cfg"
        cfg.write_text(text + "overrides = 0-1@2x8\n")
        assert main(["validate", "--config", str(cfg)]) == 0

    def test_invalid_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("bits = 5\n")
        assert main(["validate", "--config", str(cfg)]) == 2
        assert "invalid" in capsys.readouterr().err


def test_damaged_weights_file_is_runtime_error(tmp_path, capsys):
    from kvtrade.model import ModelConfig, random_model, save_weights

    path = tmp_path / "model.bin"
    save_weights(random_model(ModelConfig(1, 2, 16, 32, 64, seed=5)), path)
    path.write_bytes(path.read_bytes()[:-1])
    cfg = tmp_path / "weights.cfg"
    cfg.write_text(
        f"task = random_probe\nmodel = random\nweights_file = {path}\nseq_lens = 24\n"
        "policies = streaming_llm\nbits = 8\ntoken_multipliers = 2\nbase_tokens = 8\n"
        "full_cache_tokens = 24\nprobe_steps = 2\nrecent_window = 4\n"
    )
    for args in (["run", "--out", str(tmp_path / "o.csv")], ["validate"]):
        assert main(args + ["--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "runtime error" in err and "truncated" in err


class TestDemo:
    def test_demo_prints_table(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "policy" in out.splitlines()[0]
        assert any("snapkv" in line for line in out.splitlines())

    def test_demo_out_prints_its_skips_and_csv_path(self, tmp_path, capsys, monkeypatch):
        # a window of 20 skips the 16-token 1x point and keeps the 64-token 4x one
        monkeypatch.setattr(cli, "DEMO_CONFIG", GOOD_CONFIG.replace("recent_window = 4", "recent_window = 20"))
        out = tmp_path / "demo.csv"
        assert main(["demo", "--out", str(out)]) == 0
        assert capsys.readouterr().out.splitlines()[-2:] == ["(1 grid points skipped)", f"wrote {out}"]
        assert len(parse_csv(out.read_text())) == 1


def test_console_entry_point(tmp_path):
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(kvtrade.__file__))}
    proc = subprocess.run(
        [sys.executable, "-m", "kvtrade.cli", "validate", "--config", "demo"],
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "ok"
