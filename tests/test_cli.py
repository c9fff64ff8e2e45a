"""Command-line surface: config handling, exit codes, artifacts."""

import csv
import io
import os
import subprocess
import sys
import zipfile
from pathlib import Path

import numpy as np
import pytest

from ls3dconv import cli
from ls3dconv.cli import (ABLATION_VARIANTS, EXIT_CONFIG, EXIT_IO, EXIT_OK,
                          EXIT_SHAPE, load_config, main, map_in_workers)
from ls3dconv.errors import ConfigError, ShapeError
from ls3dconv.fileio import load_named_tensors, save_named_tensors
from ls3dconv.net import ResBlock, build_net
from ls3dconv.train import make_dataset, save_checkpoint

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
        spec = cli.network_spec(cfg)
        assert spec.num_resblocks == 6 and spec.temporal_deconv_after == {2, 4}
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
        for key in ("net.numblocks=4", "data.background_freq=0.5", "net.encoder_relu=false",
                    "net.deconv_relu=false", "train.beta1=0.8", "train.beta2=0.99",
                    "train.eps=1e-6", "net.temporal_deconv_after=auto",
                    "net.num_resblocks=6", "net.branch_kernel=3"):
            code = main(["train", "--set", key, "--out", str(tmp_path)])
            assert code == EXIT_CONFIG
            assert key.split("=")[0] in capsys.readouterr().err

    def test_num_frames_rejected_for_interpolation(self, tmp_path, capsys):
        """Interpolation always trains on clean 5-frame clips."""
        for item in ("data.num_frames=9", "data.noise_sigma=25"):
            key = item.split("=")[0]
            with pytest.raises(ConfigError, match=key):
                load_config(None, [item])
            code = main(["train", *TINY, "--set", item, "--out", str(tmp_path)])
            assert code == EXIT_CONFIG
            assert key in capsys.readouterr().err
        cfg = load_config(None, ["net.task=denoise", "data.noise_sigma=25",
                                 "data.num_frames=7"])
        assert cfg["data.num_frames"] == 7

    def test_denoise_without_noise_rejected(self, tmp_path, capsys):
        """On clean clips the identity is the best denoiser, so there is
        nothing to learn."""
        out = tmp_path / "out"
        code = main(["train", *TINY, "--set", "net.task=denoise", "--out", str(out)])
        assert code == EXIT_CONFIG
        assert "data.noise_sigma" in capsys.readouterr().err
        assert not out.exists()
        cfg = load_config(None, ["net.task=denoise", "data.noise_sigma=0.5"])
        assert cfg["data.noise_sigma"] == 0.5

    def test_negative_learning_rate_exit_code(self, tmp_path, capsys):
        code = main(["train", *TINY, "--set", "train.learning_rate=-1", "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert "learning_rate" in capsys.readouterr().err

    def test_negative_eval_every_exit_code(self, tmp_path, capsys):
        """`epoch % -2 == 0` holds on even epochs, so a negative period
        would evaluate instead of failing."""
        out = tmp_path / "out"
        code = main(["train", *TINY, "--set", "train.eval_every=-2", "--out", str(out)])
        assert code == EXIT_CONFIG
        assert "eval_every" in capsys.readouterr().err
        assert not (out / "eval.csv").exists()

    @pytest.mark.parametrize("command, key", [
        ("train", "train.epochs"), ("train", "train.batch_size"), ("train", "train.clips"),
        ("train", "train.eval_clips"), ("ablate", "ablate.seeds"), ("bench", "bench.repeats"),
    ])
    def test_zero_count_rejected_before_any_work(self, tmp_path, capsys, command, key):
        out = tmp_path / "out"
        code = main([command, *TINY, "--set", f"{key}=0", "--out", str(out)])
        assert code == EXIT_CONFIG
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("item", ["train.learning_rate=-1", "train.eval_every=-2",
                                      "net.ls3d_blocks=7", "net.channels=0", "net.task=foo"])
    def test_spec_rule_rejected_before_any_work(self, tmp_path, capsys, item):
        """NetworkSpec and TrainConfig rules are checked before the output
        directory is made."""
        out = tmp_path / "out"
        code = main(["train", *TINY, "--set", item, "--out", str(out)])
        assert code == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("args", [["--config", "seed.cfg"], ["--set", "train.seed=-1"]])
    def test_negative_seed_rejected_before_any_work(self, tmp_path, capsys, monkeypatch,
                                                    args):
        """numpy seeds are non-negative: a negative one used to fail in the
        first random draw, with a traceback and an empty --out left behind."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "seed.cfg").write_text("train.seed = -1\n")
        out = tmp_path / "out"
        code = main(["train", *TINY, *args, "--out", str(out)])
        assert code == EXIT_CONFIG
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("items", [
        ["train.learning_rate=nan"], ["train.learning_rate=inf"], ["train.grad_clip=nan"],
        ["train.grad_clip=-1"], ["net.task=denoise", "data.noise_sigma=nan"],
        ["data.motion=nan"], ["data.num_objects=-3"],
    ], ids=lambda items: items[-1])
    def test_non_finite_or_negative_value_rejected_before_any_work(self, tmp_path, capsys,
                                                                    items):
        """Each of these used to train (a NaN learning rate, sigma or motion
        failed only later; a NaN or negative grad_clip switched clipping off;
        a negative object count meant none) instead of exiting 2."""
        out = tmp_path / "out"
        sets = [arg for item in items for arg in ("--set", item)]
        code = main(["train", *TINY, *sets, "--out", str(out)])
        assert code == EXIT_CONFIG
        field = items[-1].split("=")[0].split(".")[1]
        assert f"{field} must be" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("size", [8, 10])
    def test_size_below_ssim_window_rejected(self, tmp_path, capsys, size):
        """SSIM's window is 11 pixels wide: a smaller clip would train to the
        end and only then fail to score."""
        out = tmp_path / "out"
        with pytest.raises(ConfigError, match="data.size"):
            load_config(None, [f"data.size={size}"])
        code = main(["train", *TINY, "--set", f"data.size={size}", "--set", "data.motion=1",
                     "--out", str(out)])
        assert code == EXIT_CONFIG
        assert "data.size" in capsys.readouterr().err
        assert not out.exists()
        assert load_config(None, ["data.size=12", "data.motion=2"])["data.size"] == 12

    @pytest.mark.parametrize("command, size", [("bench", 14), ("train", 30), ("viz", 11)])
    def test_size_not_multiple_of_four_rejected_before_any_work(self, tmp_path, capsys,
                                                                command, size):
        """The net halves data.size twice and doubles it back: bench used to
        time a shape no forward reaches, and train to exit 3 after making
        --out."""
        out = tmp_path / "out"
        code = main([command, *TINY, "--set", f"data.size={size}", "--out", str(out)])
        assert code == EXIT_CONFIG
        assert "multiple of 4" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, size", [("train", 16), ("viz", 12), ("bench", 16)])
    def test_motion_above_clip_bound_rejected_before_any_work(self, tmp_path, capsys,
                                                              command, size):
        """An object moves at most data.size / data.num_frames pixels a frame:
        the default 4 is too fast at 16 (bound 3.2) and 12 (2.4). train and
        viz used to exit 3 on the first clip, leaving an empty --out."""
        out = tmp_path / "out"
        code = main([command, *TINY, "--set", f"data.size={size}", "--set", "data.motion=4",
                     "--out", str(out)])
        assert code == EXIT_CONFIG
        assert "data.motion = 4.0 exceeds" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_frames_rejected_before_any_work(self, tmp_path, capsys):
        """A denoise clip of no frames used to exit 3 on the first clip,
        leaving an empty --out."""
        out = tmp_path / "out"
        code = main(["train", *TINY, "--set", "net.task=denoise", "--set", "data.noise_sigma=25",
                     "--set", "data.num_frames=0", "--out", str(out)])
        assert code == EXIT_CONFIG
        assert "data.num_frames" in capsys.readouterr().err
        assert not out.exists()

    def test_motion_at_clip_bound_trains(self, tmp_path):
        """Motion equal to data.size / data.num_frames is allowed, as ClipSpec allows it."""
        code = main(["train", *TINY, "--set", "data.size=20", "--set", "data.motion=4",
                     "--out", str(tmp_path)])
        assert code == EXIT_OK

    def test_non_utf8_config_file_rejected_before_any_work(self, tmp_path, capsys):
        """A config file that is not UTF-8 used to end in a UnicodeDecodeError
        traceback, exit 1."""
        path = tmp_path / "run.cfg"
        path.write_bytes(b"net.channels = 8\n# \xff\n")
        out = tmp_path / "out"
        code = main(["train", "--config", str(path), "--out", str(out)])
        assert code == EXIT_CONFIG
        assert f"config file {path} is not UTF-8" in capsys.readouterr().err
        assert not out.exists()

    def test_every_key_is_read(self, tmp_path):
        """No key is accepted but never used: some command reads each one."""
        read = set()

        class Recording(dict):
            def __getitem__(self, key):
                read.add(key)
                return super().__getitem__(key)

        overrides = [arg for arg in TINY if arg != "--set"]
        cfg = Recording(load_config(None, [*overrides, "ablate.seeds=1", "bench.repeats=1"]))
        for cmd in (cli.cmd_train, cli.cmd_eval, cli.cmd_viz, cli.cmd_bench):
            assert cmd(cfg, tmp_path) == EXIT_OK
        assert cli.cmd_ablate(cfg, tmp_path) == EXIT_OK
        assert set(cli.SCHEMA) - read == set()


class TestTrainCommand:
    def test_artifacts_and_echo(self, tmp_path, capsys):
        code = main(["train", *TINY, "--out", str(tmp_path), "--set", "train.seed=1"])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "# resolved configuration" in out
        assert "train.seed = 1" in out
        for name in ("checkpoint.ls3d", "loss.csv", "eval.csv"):
            assert (tmp_path / name).exists()
            assert str(tmp_path / name) in out

    def test_determinism_byte_identical_loss_csv(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["train", *TINY, "--out", str(a), "--set", "train.seed=5"]) == EXIT_OK
        assert main(["train", *TINY, "--out", str(b), "--set", "train.seed=5"]) == EXIT_OK
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
                 "--set", "train.seed=3", "--out", str(out)],
                env=env, capture_output=True, text=True, timeout=600)
            assert proc.returncode == EXIT_OK, proc.stderr
            csvs.append((out / "loss.csv").read_bytes())
        assert csvs[0] == csvs[1]

    def test_eval_every_prints_epoch_scores_and_keeps_artifacts(self, tmp_path, capsys):
        """train.eval_every = 1 prints one held-out score line per epoch; the
        loss.csv, eval.csv and parameter bytes are those of eval_every = 0."""
        outs = {}
        for every in (0, 1):
            code = main(["train", *TINY, "--set", "train.epochs=3",
                         "--set", f"train.eval_every={every}", "--out", str(tmp_path / str(every))])
            assert code == EXIT_OK
            outs[every] = capsys.readouterr().out
        lines = [line for line in outs[1].splitlines() if line.startswith("epoch ")]
        assert [line.split(":")[0] for line in lines] == ["epoch 1", "epoch 2", "epoch 3"]
        assert all("eval PSNR" in line and "SSIM" in line for line in lines)
        assert not any(line.startswith("epoch ") for line in outs[0].splitlines())
        for name in ("loss.csv", "eval.csv"):
            assert (tmp_path / "0" / name).read_bytes() == (tmp_path / "1" / name).read_bytes()
        params = [{k: v for k, v in load_named_tensors(tmp_path / str(e) / "checkpoint.ls3d")
                   .items() if k.startswith("param/")} for e in (0, 1)]
        assert params[0].keys() == params[1].keys()
        for k in params[0]:
            assert params[0][k].tobytes() == params[1][k].tobytes()

    def test_shape_error_exit_code(self, tmp_path, capsys, monkeypatch):
        """A ShapeError raised while a command runs exits 3. No configuration
        reaches one since data.size must be a multiple of 4, so one is raised
        in the training loop's place."""
        def mismatched(net, config, abort_checkpoint_path=None):
            raise ShapeError("input must be (N, 3, T, H, W)")

        monkeypatch.setattr(cli, "train_loop", mismatched)
        code = main(["train", *TINY, "--out", str(tmp_path)])
        assert code == EXIT_SHAPE
        assert "shape/task error: input must be" in capsys.readouterr().err


class TestEvalCommand:
    def test_eval_roundtrip(self, tmp_path):
        assert main(["train", *TINY, "--out", str(tmp_path)]) == EXIT_OK
        code = main(["eval", *TINY, "--out", str(tmp_path)])
        assert code == EXIT_OK

    def test_eval_csv_matches_train(self, tmp_path):
        """train and eval score the same held-out set the same way."""
        trained, evaluated = tmp_path / "train", tmp_path / "eval"
        assert main(["train", *TINY, "--out", str(trained), "--set", "train.seed=1"]) == EXIT_OK
        code = main(["eval", *TINY, "--out", str(evaluated), "--set", "train.seed=1",
                     "--set", f"eval.checkpoint={trained / 'checkpoint.ls3d'}"])
        assert code == EXIT_OK
        assert (trained / "eval.csv").read_bytes() == (evaluated / "eval.csv").read_bytes()

    @pytest.mark.parametrize("where", ["tensor_name", "config_echo"])
    def test_non_utf8_byte_is_checkpoint_error(self, tmp_path, capsys, where):
        """A 0xFF byte in a tensor name inside the file makes the zip's local
        and central names differ; one in the config echo, written as a
        sound archive, fails the echo's UTF-8 check."""
        assert main(["train", *TINY, "--out", str(tmp_path)]) == EXIT_OK
        ckpt = tmp_path / "checkpoint.ls3d"
        if where == "tensor_name":
            data = bytearray(ckpt.read_bytes())
            data[data.index(b"param/enc1.weight")] = 0xFF
            ckpt.write_bytes(bytes(data))
            expected = str(ckpt)
        else:
            tensors = load_named_tensors(ckpt)
            tensors["config"][tensors["config"].tobytes().index(b"net.channels = 4")] = 0xFF
            save_named_tensors(ckpt, tensors)
            expected = "not UTF-8"
        assert main(["eval", *TINY, "--out", str(tmp_path)]) == EXIT_IO
        assert expected in capsys.readouterr().err

    @pytest.mark.parametrize("dims", [(2**32 - 1, 2**32 - 1), (2**32 - 1, 2**32 - 1, 0)],
                             ids=["wraps_int64", "zero_sized"])
    def test_dims_past_int64_is_checkpoint_error(self, tmp_path, capsys, dims):
        ckpt = tmp_path / "checkpoint.ls3d"
        header = io.BytesIO()
        np.lib.format.write_array_header_1_0(
            header, {"descr": "<f4", "fortran_order": False, "shape": dims})
        with zipfile.ZipFile(ckpt, "w") as archive:
            archive.writestr("a.npy", header.getvalue())
        assert main(["eval", *TINY, "--out", str(tmp_path)]) == EXIT_IO
        assert str(ckpt) in capsys.readouterr().err

    def test_checkpoint_of_another_net_is_checkpoint_error(self, tmp_path, capsys):
        """An all-LS3D run's checkpoint holds 24 offset and mask tensors a
        plain net does not have; eval must not score the plain net with the
        rest."""
        trained, evaluated = tmp_path / "train", tmp_path / "eval"
        assert main(["train", *TINY, "--set", "net.ls3d_blocks=all",
                     "--out", str(trained)]) == EXIT_OK
        code = main(["eval", *TINY, "--out", str(evaluated),
                     "--set", f"eval.checkpoint={trained / 'checkpoint.ls3d'}"])
        assert code == EXIT_IO
        assert ".offset.weight" in capsys.readouterr().err
        assert not (evaluated / "eval.csv").exists()

    @pytest.mark.parametrize("step", [np.nan, -1.0, 2.5], ids=["nan", "negative", "fraction"])
    def test_bad_step_is_checkpoint_error(self, tmp_path, capsys, step):
        assert main(["train", *TINY, "--out", str(tmp_path)]) == EXIT_OK
        ckpt = tmp_path / "checkpoint.ls3d"
        tensors = load_named_tensors(ckpt)
        tensors["step"] = np.array([step])
        save_named_tensors(ckpt, tensors)
        (tmp_path / "eval.csv").unlink()
        assert main(["eval", *TINY, "--out", str(tmp_path)]) == EXIT_IO
        assert "'step'" in capsys.readouterr().err
        assert not (tmp_path / "eval.csv").exists()

    @pytest.mark.parametrize("trained, evaluated, notes", [
        ([], [], []),
        ([], ["data.size=20"], ["data.size = 20, but {ckpt} was trained with 16"]),
        ([], ["data.motion=1", "data.num_objects=3"],
         ["data.motion = 1.0, but {ckpt} was trained with 2.0",
          "data.num_objects = 3, but {ckpt} was trained with 2"]),
        (["net.ls3d_blocks=all"], ["net.ls3d_blocks=1,2,3,4,5,6"], []),
    ], ids=["same", "size", "motion_and_objects", "same_blocks_spelt_otherwise"])
    def test_settings_unlike_checkpoint_noted(self, tmp_path, capsys, trained, evaluated,
                                              notes):
        """eval scores the held-out set its own data.* settings draw. A note
        names each net.* and data.* setting that differs from the one the
        checkpoint was trained with; exit code and eval.csv are as before."""
        ckpt = tmp_path / "train" / "checkpoint.ls3d"
        sets = [[arg for item in items for arg in ("--set", item)]
                for items in (trained, evaluated)]
        assert main(["train", *TINY, *sets[0], "--out", str(ckpt.parent)]) == EXIT_OK
        capsys.readouterr()
        code = main(["eval", *TINY, *sets[1], "--set", f"eval.checkpoint={ckpt}",
                     "--out", str(tmp_path / "eval")])
        assert code == EXIT_OK
        assert (tmp_path / "eval" / "eval.csv").exists()
        lines = capsys.readouterr().out.splitlines()
        assert [l for l in lines if l.startswith("note:")] == \
            [f"note: {note.format(ckpt=ckpt)}" for note in notes]

    @pytest.mark.parametrize("echo", ["diverged", ""], ids=["diverged", "library_saved"])
    def test_checkpoint_without_configuration_noted(self, tmp_path, capsys, echo):
        """The divergence abort checkpoint and one saved through the library
        without an echo record no settings to compare."""
        ckpt = tmp_path / "checkpoint.ls3d"
        net, _ = cli.configured_net(load_config(None, TINY[1::2]))
        save_checkpoint(ckpt, net, config_echo=echo)
        assert main(["eval", *TINY, "--out", str(tmp_path)]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert [l for l in lines if l.startswith("note:")] == \
            [f"note: {ckpt} holds no configuration; its net.* and data.* settings "
             "are not compared"]

    def test_missing_checkpoint_is_io_error(self, tmp_path):
        code = main(["eval", *TINY, "--out", str(tmp_path),
                     "--set", "eval.checkpoint=/nonexistent.ls3d"])
        assert code == EXIT_IO


class TestGradcheckCommand:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_passes_and_prints_error(self, tmp_path, capsys, seed):
        code = main(["gradcheck", "--set", f"train.seed={seed}", "--out", str(tmp_path)])
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
        """res5,6 and 2-LS3D resolve to one config: 6 trainings per seed, not 7.
        The trainings run in spawned workers, so the configs handed to the
        pool are what is counted."""
        jobs = []
        real = cli.map_in_workers

        def counting(fn, args, workers):
            jobs.extend(args)
            return real(fn, args, workers)

        monkeypatch.setattr(cli, "map_in_workers", counting)
        code = main(["ablate", *TINY, "--set", "ablate.seeds=2", "--out", str(tmp_path)])
        assert code == EXIT_OK
        assert len(jobs) == 12
        assert sorted(job["train.seed"] for job in jobs) == [0] * 6 + [1] * 6
        with open(tmp_path / "ablation.csv") as f:
            rows = {r["variant"]: r for r in csv.DictReader(f)}
        assert len(rows) == 7
        assert rows["res5,6"]["psnr_db"] == rows["2-LS3D"]["psnr_db"]
        assert rows["res5,6"]["ssim"] == rows["2-LS3D"]["ssim"]

    def test_parallel_matches_variant_list(self, tmp_path, monkeypatch):
        """A pool of two workers writes the same ablation.csv bytes as a pool of one."""
        for cores in (1, 2):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cores: set(range(n)))
            code = main(["ablate", *TINY, "--set", "ablate.seeds=1",
                         "--out", str(tmp_path / str(cores))])
            assert code == EXIT_OK
        parallel = (tmp_path / "2" / "ablation.csv").read_bytes()
        assert parallel == (tmp_path / "1" / "ablation.csv").read_bytes()
        assert len(parallel.decode().splitlines()) == 1 + 7

    @pytest.mark.parametrize("cores", [1, 3])
    def test_pool_sized_from_affinity(self, tmp_path, monkeypatch, cores):
        """ablate runs one worker per core of this process's affinity mask."""
        pools = []
        real = cli.map_in_workers

        def recording(fn, args, workers):
            pools.append(workers)
            return real(fn, args, workers)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
        monkeypatch.setattr(cli, "map_in_workers", recording)
        code = main(["ablate", *TINY, "--set", "ablate.seeds=1", "--out", str(tmp_path)])
        assert code == EXIT_OK
        assert pools == [cores]

    def test_runs_do_not_evaluate_during_training(self, tmp_path, monkeypatch):
        """ablation.csv holds only final scores, so every run is handed to the
        pool with train.eval_every = 0, whatever the command line set."""
        jobs = []

        def scoring(fn, args, workers):
            jobs.extend(args)
            return [(10.0, 0.5)] * len(args)

        monkeypatch.setattr(cli, "map_in_workers", scoring)
        code = main(["ablate", *TINY, "--set", "train.eval_every=2", "--set", "ablate.seeds=2",
                     "--out", str(tmp_path)])
        assert code == EXIT_OK
        assert len(jobs) == 12
        assert all(job["train.eval_every"] == 0 for job in jobs)

    def test_ablation_csv_independent_of_blas_threads(self, tmp_path):
        """At 32 channels the LS3D branch conv's input-gradient GEMM (K = 2187)
        rounds differently under one and two BLAS threads. Every training runs
        in a one-BLAS-thread worker, so pools of one and two workers write the
        same ablation.csv bytes even in a process with two BLAS threads."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "2",
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        # The pool size is set in the child by its affinity mask, which is
        # replaced there so that two workers run even on a one-core host.
        run = ("import os, sys; cores = int(sys.argv.pop(1)); "
               "os.sched_getaffinity = lambda pid: set(range(cores)); "
               "from ls3dconv.cli import main; sys.exit(main(sys.argv[1:]))")
        csvs = []
        for cores in ("1", "2"):
            out = tmp_path / cores
            proc = subprocess.run(
                [sys.executable, "-c", run, cores, "ablate", "--set", "ablate.seeds=1",
                 "--set", "train.epochs=1", "--set", "train.clips=4",
                 "--set", "train.eval_clips=2", "--set", "train.eval_every=0",
                 "--out", str(out)],
                env=env, capture_output=True, text=True, timeout=600)
            assert proc.returncode == EXIT_OK, proc.stderr
            csvs.append((out / "ablation.csv").read_bytes())
        assert csvs[0] == csvs[1]

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

    def test_all_zero_map_warned_once(self, tmp_path, capsys):
        """A net of zero weights reaches no input: `viz` prints one warning
        line and writes the (black) maps."""
        net = build_net(cli.network_spec(load_config(None, TINY[1::2])), seed=0)
        for p in net.parameters().values():
            p[...] = 0
        ckpt = tmp_path / "zero.ls3d"
        save_checkpoint(ckpt, net)
        code = main(["viz", *TINY, "--set", f"viz.checkpoint={ckpt}", "--out", str(tmp_path)])
        assert code == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out.count("warning: sampling map is all zero") == 1
        assert captured.err == ""
        assert (tmp_path / "sampling_frame0.pgm").read_bytes() == \
            b"P5\n16 16\n255\n" + bytes(16 * 16)

    def test_settings_unlike_checkpoint_noted(self, tmp_path, capsys):
        ckpt = tmp_path / "checkpoint.ls3d"
        assert main(["train", *TINY, "--out", str(tmp_path)]) == EXIT_OK
        capsys.readouterr()
        code = main(["viz", *TINY, "--set", "data.motion=1",
                     "--set", f"viz.checkpoint={ckpt}", "--out", str(tmp_path)])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert [l for l in lines if l.startswith("note:")] == \
            [f"note: data.motion = 1.0, but {ckpt} was trained with 2.0"]

    @pytest.mark.parametrize("key, value", [("viz.frame", 5), ("viz.row", 16),
                                            ("viz.col", -2)])
    def test_coordinate_outside_output_grid_exit_code(self, tmp_path, capsys, monkeypatch,
                                                      key, value):
        """Checked against the (5, 16, 16) output grid before any net is built."""
        monkeypatch.setattr(cli, "build_net", None)
        code = main(["viz", *TINY, "--set", f"{key}={value}", "--out", str(tmp_path)])
        assert code == EXIT_CONFIG
        assert f"{key} = {value}" in capsys.readouterr().err

    def test_coordinate_outside_output_grid_makes_no_out_dir(self, tmp_path, capsys):
        out = tmp_path / "new"
        code = main(["viz", *TINY, "--set", "viz.row=99", "--out", str(out)])
        assert code == EXIT_CONFIG
        assert "viz.row" in capsys.readouterr().err
        assert not out.exists()


class TestBenchCommand:
    def test_reports_both_ops(self, tmp_path, capsys):
        """LS3D and plain conv, forward and backward, at the last block's
        shape, with the MB each forward keeps for its backward."""
        code = main(["bench", *TINY, "--set", "bench.repeats=1", "--out", str(tmp_path)])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "shape (2,4,5,4,4)" in out
        assert out.count("minor faults/call") == 4
        assert out.count("MB saved") == 2
        with open(tmp_path / "bench.csv") as f:
            rows = list(csv.DictReader(f))
        assert [r["op"] for r in rows] == ["conv3d_forward", "conv3d_backward",
                                           "ls3d_forward", "ls3d_backward"]
        assert list(rows[0])[-2:] == ["minor_faults_per_call", "saved_mb"]
        assert all(float(r["minor_faults_per_call"]) >= 0 for r in rows)
        # (2,4,5,4,4): the conv keeps its input padded by 1, 2*7*6*6*4
        # floats; LS3D keeps its input, offsets, masks, frames padded by
        # (1,2,2), and per (point, tap) an int64 corner row, two float32
        # fractions and a column-buffer row of 4 floats.
        points, pairs = 2 * 5 * 4 * 4, 2 * 5 * 4 * 4 * 27
        assert float(rows[0]["saved_mb"]) == 4 * 2 * 7 * 6 * 6 * 4 / 1e6
        assert float(rows[2]["saved_mb"]) == 4 * (points * (4 + 54 + 27)
                                                  + 2 * 7 * 8 * 8 * 4 + pairs * (2 + 2 + 4)) / 1e6
        assert rows[1]["saved_mb"] == rows[3]["saved_mb"] == ""

    @pytest.mark.parametrize("args, shape", [
        (TINY, (2, 4, 5, 4, 4)),
        ([], (2, 32, 5, 8, 8)),
        (["--set", "net.task=denoise", "--set", "data.noise_sigma=25",
          "--set", "data.num_frames=3"], (2, 32, 3, 8, 8)),
    ], ids=["tiny", "default", "denoise"])
    def test_shape_is_last_block_input(self, tmp_path, capsys, args, shape):
        """The timed shape is the input of the net's last residual block in a
        forward pass over a batch of the configured clips."""
        cfg = load_config(None, args[1::2])
        tcfg = cli.train_config(cfg)
        net = build_net(cli.network_spec(cfg), seed=tcfg.seed)
        last = [layer for layer in net.layers if isinstance(layer, ResBlock)][-1]
        seen = []
        forward = last.forward
        last.forward = lambda x, keep_state=False: seen.append(x.shape) or forward(x, keep_state)
        clip = make_dataset(tcfg, 1, seed_base=0)[0].inputs
        net.forward(np.concatenate([clip] * tcfg.batch_size))
        assert seen == [shape]
        code = main(["bench", *args, "--set", "bench.repeats=1", "--out", str(tmp_path)])
        assert code == EXIT_OK
        assert f"shape ({','.join(map(str, shape))})" in capsys.readouterr().out
