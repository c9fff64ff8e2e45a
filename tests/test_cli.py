"""Command-line surface: config handling, exit codes, artifacts."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ls3dconv import cli
from ls3dconv.cli import (ABLATION_VARIANTS, EXIT_CONFIG, EXIT_IO, EXIT_OK,
                          EXIT_SHAPE, load_config, main, map_in_workers)
from ls3dconv.errors import ConfigError

TINY = [
    "--set", "net.channels=4",
    "--set", "train.epochs=1",
    "--set", "train.clips=2",
    "--set", "train.eval_clips=1",
    "--set", "train.eval_every=0",
    "--set", "data.size=16",
    "--set", "data.motion=2.0",
]


class TestConfig:
    def test_defaults_resolve(self):
        cfg = load_config(None, [])
        assert cfg["net.num_resblocks"] == 6
        assert cfg["train.learning_rate"] == pytest.approx(1e-3)

    def test_unknown_key_named_in_error(self):
        with pytest.raises(ConfigError, match="net.numblocks"):
            load_config(None, ["net.numblocks=4"])

    def test_file_parsing_with_comments(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("# a comment\nnet.channels = 8  # trailing\n\ntrain.seed=3\n")
        cfg = load_config(str(p), [])
        assert cfg["net.channels"] == 8 and cfg["train.seed"] == 3

    def test_override_wins_over_file(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("net.channels = 8\n")
        cfg = load_config(str(p), ["net.channels=12"])
        assert cfg["net.channels"] == 12

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError, match="net.channels"):
            load_config(None, ["net.channels=many"])

    def test_unknown_key_exit_code(self, tmp_path, capsys):
        for key in ("net.numblocks=4", "data.background_freq=0.5"):
            code = main(["train", "--set", key, "--out", str(tmp_path)])
            assert code == EXIT_CONFIG
            assert key.split("=")[0] in capsys.readouterr().err

    def test_num_frames_rejected_for_interpolation(self, tmp_path, capsys):
        with pytest.raises(ConfigError, match="data.num_frames"):
            load_config(None, ["data.num_frames=9"])
        code = main(["train", *TINY, "--set", "data.num_frames=9", "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert "data.num_frames" in capsys.readouterr().err
        cfg = load_config(None, ["net.task=denoise", "data.num_frames=9"])
        assert cfg["data.num_frames"] == 9


class TestTrainCommand:
    def test_artifacts_and_echo(self, tmp_path, capsys):
        code = main(["train", *TINY, "--out", str(tmp_path), "--seed", "1"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "# resolved configuration" in out
        assert "train.seed = 1" in out
        for name in ("checkpoint.ls3d", "loss.csv", "eval.csv"):
            assert (tmp_path / name).exists()
            assert str(tmp_path / name) in out

    def test_determinism_byte_identical_loss_csv(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["train", *TINY, "--out", str(a), "--seed", "5"]) == EXIT_OK
        assert main(["train", *TINY, "--out", str(b), "--seed", "5"]) == EXIT_OK
        assert (a / "loss.csv").read_bytes() == (b / "loss.csv").read_bytes()

    def test_loss_csv_independent_of_blas_threads(self, tmp_path):
        """One BLAS thread or two give the same loss.csv bytes. 32 channels
        make the GEMMs large enough for OpenBLAS to split them over threads."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        csvs = []
        for threads in ("1", "2"):
            out = tmp_path / threads
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
            proc = subprocess.run(
                [sys.executable, "-m", "ls3dconv", "train", *TINY, "--set", "net.channels=32",
                 "--seed", "3", "--out", str(out)],
                env=env, capture_output=True, text=True, timeout=600)
            assert proc.returncode == EXIT_OK, proc.stderr
            csvs.append((out / "loss.csv").read_bytes())
        assert csvs[0] == csvs[1]

    def test_shape_error_exit_code(self, tmp_path):
        code = main(["train", *TINY, "--set", "data.size=30", "--out", str(tmp_path)])
        assert code == EXIT_SHAPE


class TestEvalCommand:
    def test_eval_roundtrip(self, tmp_path):
        assert main(["train", *TINY, "--out", str(tmp_path)]) == EXIT_OK
        code = main(["eval", *TINY, "--out", str(tmp_path)])
        assert code == EXIT_OK

    def test_eval_csv_matches_train(self, tmp_path):
        """train and eval score the same held-out set the same way."""
        trained, evaluated = tmp_path / "train", tmp_path / "eval"
        assert main(["train", *TINY, "--out", str(trained), "--seed", "1"]) == EXIT_OK
        code = main(["eval", *TINY, "--out", str(evaluated), "--seed", "1",
                     "--set", f"eval.checkpoint={trained / 'checkpoint.ls3d'}"])
        assert code == EXIT_OK
        assert (trained / "eval.csv").read_bytes() == (evaluated / "eval.csv").read_bytes()

    def test_missing_checkpoint_is_io_error(self, tmp_path):
        code = main(["eval", *TINY, "--out", str(tmp_path),
                     "--set", "eval.checkpoint=/nonexistent.ls3d"])
        assert code == EXIT_IO


class TestGradcheckCommand:
    def test_passes_and_prints_error(self, tmp_path, capsys):
        code = main(["gradcheck", "--out", str(tmp_path)])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "max relative error" in out
        assert "overall: pass" in out


class TestAblateCommand:
    def test_seven_variant_rows(self, tmp_path):
        code = main(["ablate", *TINY, "--set", "ablate.seeds=1",
                     "--set", "train.epochs=1", "--out", str(tmp_path)])
        assert code == EXIT_OK
        with open(tmp_path / "ablation.csv") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 7
        assert [r["variant"] for r in rows] == [v for v, _ in ABLATION_VARIANTS]

    def test_shared_block_set_trained_once(self, tmp_path, monkeypatch):
        """res5,6 and 2-LS3D share blocks 5,6: 6 trainings per seed, not 7."""
        calls = []
        real = cli.train_loop

        def counting(net, config):
            calls.append(config.seed)
            return real(net, config)

        monkeypatch.setattr(cli, "train_loop", counting)
        code = main(["ablate", *TINY, "--set", "ablate.seeds=2", "--out", str(tmp_path)])
        assert code == EXIT_OK
        assert len(calls) == 12
        with open(tmp_path / "ablation.csv") as f:
            rows = {r["variant"]: r for r in csv.DictReader(f)}
        assert len(rows) == 7
        assert rows["res5,6"]["psnr_db"] == rows["2-LS3D"]["psnr_db"]
        assert rows["res5,6"]["ssim"] == rows["2-LS3D"]["ssim"]

    def test_parallel_matches_variant_list(self, tmp_path):
        """--threads 2 writes the same ablation.csv bytes as --threads 1."""
        for threads in ("1", "2"):
            code = main(["ablate", *TINY, "--set", "ablate.seeds=1", "--threads", threads,
                         "--out", str(tmp_path / threads)])
            assert code == EXIT_OK
        parallel = (tmp_path / "2" / "ablation.csv").read_bytes()
        assert parallel == (tmp_path / "1" / "ablation.csv").read_bytes()
        assert len(parallel.decode().splitlines()) == 1 + 7

    def test_workers_get_one_blas_thread(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        seen = map_in_workers(os.getenv, ["OPENBLAS_NUM_THREADS"] * 2, workers=2)
        assert seen == ["1", "1"]
        assert os.environ["OPENBLAS_NUM_THREADS"] == "2"


class TestVizCommand:
    def test_emits_pgms_and_csv(self, tmp_path, capsys):
        code = main(["viz", *TINY, "--out", str(tmp_path)])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        pgms = list(tmp_path.glob("sampling_frame*.pgm"))
        assert len(pgms) == 2  # two input frames
        assert (tmp_path / "sampling_top50.csv").exists()
        for p in pgms:
            assert str(p) in out


class TestBenchCommand:
    def test_reports_both_ops(self, tmp_path, capsys):
        """LS3D and plain conv, forward and backward, at the last block's shape."""
        code = main(["bench", *TINY, "--set", "bench.repeats=1", "--out", str(tmp_path)])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "shape (2,4,5,4,4)" in out
        with open(tmp_path / "bench.csv") as f:
            ops = [r["op"] for r in csv.DictReader(f)]
        assert ops == ["conv3d_forward", "conv3d_backward", "ls3d_forward", "ls3d_backward"]
