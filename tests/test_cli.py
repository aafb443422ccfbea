import subprocess
import sys

from kvtrade.cli import main
from kvtrade.sweep import parse_csv

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

    def test_run_demo_config(self, tmp_path):
        out = tmp_path / "demo.csv"
        assert main(["run", "--config", "demo", "--out", str(out)]) == 0
        assert out.exists()

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

    def test_invalid_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("bits = 5\n")
        assert main(["validate", "--config", str(cfg)]) == 2
        assert "invalid" in capsys.readouterr().err


class TestDemo:
    def test_demo_prints_table(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "policy" in out.splitlines()[0]
        assert any("snapkv" in line for line in out.splitlines())


def test_console_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "kvtrade.cli", "validate", "--config", "demo"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "ok"
