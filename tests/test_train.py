"""Optimizer behavior, loop determinism, checkpoints."""

import io
import struct
import weakref
import zipfile

import numpy as np
import pytest

from ls3dconv import train
from ls3dconv.conv3d import Conv3dParams
from ls3dconv.errors import CheckpointError, ConfigError, NumericError, ShapeError
from ls3dconv.fileio import load_named_tensors, save_named_tensors
from ls3dconv.net import Conv3dLayer, NetworkSpec, build_net
from ls3dconv.train import (AdamState, TrainConfig, adam_step, clip_grad_norm,
                            load_checkpoint, save_checkpoint, train_loop,
                            write_loss_csv)


def small_interp_config(**kw):
    base = dict(epochs=2, batch_size=1, learning_rate=1e-3, seed=0,
                task="interpolate", clips=2, eval_clips=1, size=16,
                motion=2.0, eval_every=0)
    base.update(kw)
    return TrainConfig(**base)


def small_net(task="interpolate", seed=0, **kw):
    td = frozenset() if task == "denoise" else frozenset({1, 2})
    spec = NetworkSpec(channels=4, num_resblocks=2, ls3d_block_indices=frozenset({2}),
                       temporal_deconv_after=td, task=task, **kw)
    return build_net(spec, seed=seed)


class TestAdam:
    def _params(self, rng):
        return {"w": rng.standard_normal((3, 4)).astype(np.float32),
                "b": rng.standard_normal(4).astype(np.float32)}

    def test_zero_gradient_leaves_params_unchanged(self):
        rng = np.random.default_rng(0)
        params = self._params(rng)
        before = {k: v.copy() for k, v in params.items()}
        state = AdamState.init(params)
        grads = {k: np.zeros_like(v) for k, v in params.items()}
        adam_step(params, grads, state, small_interp_config())
        for k in params:
            np.testing.assert_array_equal(params[k], before[k])

    def test_constant_gradient_step_bounded_by_lr(self):
        """|update| stays within lr * (1 + slack) under a constant gradient."""
        rng = np.random.default_rng(1)
        params = {"w": rng.standard_normal(16).astype(np.float64)}
        grads = {"w": np.full(16, 0.37)}
        cfg = small_interp_config(learning_rate=1e-2)
        state = AdamState.init(params)
        for _ in range(50):
            before = params["w"].copy()
            adam_step(params, grads, state, cfg)
            step = np.abs(params["w"] - before)
            assert step.max() <= cfg.learning_rate * 1.2

    def test_deterministic(self):
        def run():
            rng = np.random.default_rng(2)
            params = self._params(rng)
            state = AdamState.init(params)
            cfg = small_interp_config()
            for i in range(5):
                grads = {k: np.full_like(v, 0.1 * (i + 1)) for k, v in params.items()}
                adam_step(params, grads, state, cfg)
            return params

        a, b = run(), run()
        for k in a:
            np.testing.assert_array_equal(a[k], b[k])

    def test_nonfinite_gradient_aborts_with_report(self):
        rng = np.random.default_rng(3)
        params = self._params(rng)
        state = AdamState.init(params)
        grads = {k: np.zeros_like(v) for k, v in params.items()}
        grads["w"].flat[5] = np.inf
        with pytest.raises(NumericError, match="w"):
            adam_step(params, grads, state, small_interp_config())

    def test_shape_mismatch_rejected(self):
        params = {"w": np.zeros((2, 2))}
        state = AdamState.init(params)
        with pytest.raises(ShapeError, match="w"):
            adam_step(params, {"w": np.zeros(3)}, state, small_interp_config())

    @pytest.mark.parametrize("bad,error", [("nan", NumericError), ("shape", ShapeError)])
    def test_bad_last_gradient_changes_nothing(self, bad, error):
        """Every gradient is checked before the first write: a bad gradient
        for the last parameter leaves the earlier parameters, every moment
        and the step count as they were."""
        rng = np.random.default_rng(4)
        params = self._params(rng)
        state = AdamState.init(params)
        cfg = small_interp_config()
        adam_step(params, {k: np.ones_like(v) for k, v in params.items()}, state, cfg)
        grads = {k: np.ones_like(v) for k, v in params.items()}
        if bad == "nan":
            grads["b"][-1] = np.nan
        else:
            grads["b"] = np.ones(5, dtype=np.float32)
        before = [{k: v.copy() for k, v in d.items()} for d in (params, state.m, state.v)]
        with pytest.raises(error, match="'b'"):
            adam_step(params, grads, state, cfg)
        assert state.step == 1
        for now, then in zip((params, state.m, state.v), before):
            for k in then:
                np.testing.assert_array_equal(now[k], then[k])

    def test_grad_clipping_rescales_global_norm(self):
        grads = {"a": np.full(4, 3.0), "b": np.full(9, 4.0)}
        total = clip_grad_norm(grads, max_norm=1.0)
        assert total == pytest.approx(np.sqrt(4 * 9 + 9 * 16))
        new_norm = np.sqrt(sum(float(np.sum(g ** 2)) for g in grads.values()))
        assert new_norm == pytest.approx(1.0)


class TestTrainLoop:
    def test_smoke_loss_decreases(self):
        net = small_net()
        cfg = small_interp_config(epochs=12, learning_rate=2e-3)
        result = train_loop(net, cfg)
        assert result.epoch_losses[-1] < result.epoch_losses[0]

    def test_lr_zero_freezes_everything(self):
        net = small_net()
        before = {k: v.copy() for k, v in net.parameters().items()}
        cfg = small_interp_config(learning_rate=0.0, epochs=2)
        result = train_loop(net, cfg)
        for k, v in net.parameters().items():
            np.testing.assert_array_equal(v, before[k])
        assert result.epoch_losses[0] == pytest.approx(result.epoch_losses[-1])

    def test_same_seed_identical_history(self):
        r1 = train_loop(small_net(seed=1), small_interp_config(epochs=3))
        r2 = train_loop(small_net(seed=1), small_interp_config(epochs=3))
        assert r1.loss_rows == r2.loss_rows

    @pytest.mark.parametrize("key", ["epochs", "batch_size", "clips", "eval_clips"])
    def test_zero_count_rejected(self, key):
        """eval_clips = 0 would train a full epoch, then divide by zero
        averaging the empty eval set."""
        with pytest.raises(ConfigError, match="must be positive"):
            small_interp_config(**{key: 0, "eval_every": 1})

    def test_task_mismatch_rejected(self):
        net = small_net(task="denoise")
        with pytest.raises(ShapeError, match="task"):
            train_loop(net, small_interp_config(task="interpolate"))

    def test_denoise_smoke(self):
        net = small_net(task="denoise")
        cfg = small_interp_config(task="denoise", epochs=6, num_frames=3,
                                  noise_sigma=25.0, learning_rate=2e-3)
        result = train_loop(net, cfg)
        assert result.epoch_losses[-1] < result.epoch_losses[0]

    def test_evaluate_rejects_nonfinite_prediction(self):
        """A NaN prediction would score as NaN; evaluate names the clip
        instead. The net is all plain convs, so the NaN input reaches the
        output rather than LS3D's own input check."""
        net = build_net(NetworkSpec(channels=4, num_resblocks=2,
                                    temporal_deconv_after=frozenset({1, 2})), seed=0)
        samples = train.make_dataset(small_interp_config(), 2, seed_base=5)
        assert len(train.evaluate(net, samples)) == 2
        samples[1].inputs[0, 0, 0, 0, 0] = np.nan
        with pytest.raises(NumericError, match="clip 1"):
            train.evaluate(net, samples)

    @pytest.mark.parametrize("eval_every,datasets", [(0, 1), (1, 2)])
    def test_eval_set_built_only_when_evaluating(self, monkeypatch, eval_every, datasets):
        built = []
        make_dataset = train.make_dataset

        def counting(*args, **kwargs):
            built.append(args)
            return make_dataset(*args, **kwargs)

        monkeypatch.setattr(train, "make_dataset", counting)
        result = train_loop(small_net(), small_interp_config(epochs=1, eval_every=eval_every))
        assert len(built) == datasets
        assert len(result.eval_history) == datasets - 1

    def test_no_gradient_outlives_its_step(self, monkeypatch):
        """When a step's keep-state forward starts, no gradient array of the
        step before is alive: neither the loss gradient nor the parameter
        gradients that the net and its layers handed to Adam."""
        refs = []
        l1_loss, adam_step = train.l1_loss, train.adam_step

        def recording_l1_loss(pred, target):
            loss, grad = l1_loss(pred, target)
            refs.append(weakref.ref(grad))
            return loss, grad

        def recording_adam_step(params, grads, state, config):
            refs.extend(weakref.ref(g) for g in grads.values())
            adam_step(params, grads, state, config)

        monkeypatch.setattr(train, "l1_loss", recording_l1_loss)
        monkeypatch.setattr(train, "adam_step", recording_adam_step)
        net = small_net()
        forward = net.forward
        alive = []

        def checking_forward(x, keep_state=False):
            if keep_state:
                alive.append(sum(ref() is not None for ref in refs))
            return forward(x, keep_state)

        net.forward = checking_forward
        train_loop(net, small_interp_config(epochs=2))
        assert len(refs) == 4 * (1 + len(net.parameters()))
        assert alive == [0, 0, 0, 0]

    def test_loss_csv_byte_identical_across_runs(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_loss_csv(p1, train_loop(small_net(seed=2),
                                      small_interp_config(epochs=2)).loss_rows)
        write_loss_csv(p2, train_loop(small_net(seed=2),
                                      small_interp_config(epochs=2)).loss_rows)
        assert p1.read_bytes() == p2.read_bytes()


def write_npy_header_archive(path, dims):
    """A .npz archive whose one member is an npy header declaring float32
    `dims`, with no data after it."""
    header = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        header, {"descr": "<f4", "fortran_order": False, "shape": dims})
    with zipfile.ZipFile(path, "w") as archive:
        archive.writestr("a.npy", header.getvalue())


def one_conv_layer(seed):
    rng = np.random.default_rng(seed)
    return Conv3dLayer(Conv3dParams(rng.standard_normal((2, 2, 1, 1, 1)).astype(np.float32),
                                    rng.standard_normal(2).astype(np.float32)), "conv")


def snapshot(net):
    return {k: v.copy() for k, v in net.parameters().items()}


def assert_params_equal(net, params):
    for k, v in net.parameters().items():
        assert v.dtype == params[k].dtype
        np.testing.assert_array_equal(v, params[k])


class TestCheckpoint:
    def test_roundtrip_bit_identical(self, tmp_path):
        net = small_net(seed=3)
        cfg = small_interp_config()
        result = train_loop(net, cfg)
        path = tmp_path / "ck.ls3d"
        save_checkpoint(path, net, result.adam_state, config_echo="k = v")
        net2 = small_net(seed=99)
        state, echo = load_checkpoint(path, net2)
        assert_params_equal(net2, net.parameters())
        assert echo == "k = v"
        assert state.step == result.adam_state.step
        for saved, loaded in ((result.adam_state.m, state.m), (result.adam_state.v, state.v)):
            assert saved.keys() == loaded.keys()
            for k in saved:
                assert loaded[k].dtype == saved[k].dtype
                np.testing.assert_array_equal(loaded[k], saved[k])
        x = np.random.default_rng(0).standard_normal((1, 3, 2, 16, 16)).astype(np.float32)
        np.testing.assert_array_equal(net.forward(x), net2.forward(x))

    def test_save_is_deterministic(self, tmp_path):
        """Every zip member is stamped 1980-01-01, so the same net and state
        write the same bytes whenever they are saved."""
        net = one_conv_layer(0)
        state = AdamState.init(net.parameters())
        state.step = 3
        a, b = tmp_path / "a.ls3d", tmp_path / "b.ls3d"
        save_checkpoint(a, net, state, config_echo="k = v")
        save_checkpoint(b, net, state, config_echo="k = v")
        assert a.read_bytes() == b.read_bytes()

    def test_zero_d_tensor_round_trips(self, tmp_path):
        path = tmp_path / "ck.ls3d"
        save_named_tensors(path, {"s": np.array(2.5, dtype=np.float32)})
        loaded = load_named_tensors(path)["s"]
        assert loaded.shape == () and loaded.dtype == np.float32 and loaded == 2.5

    def test_bit_flips_never_load_silently(self, tmp_path):
        """Flip one bit of every byte in turn (bit i % 8 of byte i). Each
        damaged file either fails to load, leaving the net untouched, or
        restores exactly what was saved: zip's CRC-32 covers every member."""
        net = one_conv_layer(0)
        state = AdamState.init(net.parameters())
        state.step = 3
        for moments in (state.m, state.v):
            for m in moments.values():
                m += 0.5
        path = tmp_path / "ck.ls3d"
        save_checkpoint(path, net, state, config_echo="k = v")
        good = path.read_bytes()
        saved = snapshot(net)
        fresh = one_conv_layer(1)
        before = snapshot(fresh)
        loaded = 0
        for i in range(len(good)):
            damaged = bytearray(good)
            damaged[i] ^= 1 << (i % 8)
            path.write_bytes(bytes(damaged))
            try:
                got_state, echo = load_checkpoint(path, fresh)
            except CheckpointError:
                assert_params_equal(fresh, before)
                continue
            loaded += 1
            assert_params_equal(fresh, saved)
            assert echo == "k = v" and got_state.step == 3
            for k in saved:
                np.testing.assert_array_equal(got_state.m[k], state.m[k])
                np.testing.assert_array_equal(got_state.v[k], state.v[k])
            for k, v in fresh.parameters().items():
                v[...] = before[k]
        assert loaded  # zipfile reads no member's timestamp, so those flips load

    def test_failed_save_keeps_previous_file(self, tmp_path):
        """A write that fails part-way leaves the old checkpoint loadable and
        no temporary file behind."""
        path = tmp_path / "ck.ls3d"
        save_named_tensors(path, {"a": np.arange(3, dtype=np.float32)})
        before = path.read_bytes()
        with pytest.raises(ValueError, match="allow_pickle"):
            save_named_tensors(path, {"a": np.ones(4, dtype=np.float32),
                                      "b": np.array([None, 1], dtype=object)})
        assert path.read_bytes() == before
        np.testing.assert_array_equal(load_named_tensors(path)["a"], np.arange(3))
        assert [p.name for p in tmp_path.iterdir()] == ["ck.ls3d"]

    def test_truncated_file_rejected_cleanly(self, tmp_path):
        net = small_net(seed=4)
        path = tmp_path / "ck.ls3d"
        save_checkpoint(path, net, AdamState.init(net.parameters()))
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        fresh = small_net(seed=5)
        before = snapshot(fresh)
        with pytest.raises(CheckpointError, match="not a readable checkpoint"):
            load_checkpoint(path, fresh)
        # no partial restore
        assert_params_equal(fresh, before)

    def test_old_format_file_rejected(self, tmp_path):
        """A file in the earlier hand-written format ("LS3D" magic, version
        1, one float32 tensor) is not a checkpoint any more."""
        path = tmp_path / "ck.ls3d"
        path.write_bytes(b"LS3D" + struct.pack("<IIH", 1, 1, 1) + b"a"
                         + struct.pack("<BIB", 1, 3, 0) + np.ones(3, "<f4").tobytes())
        fresh = small_net(seed=6)
        before = snapshot(fresh)
        with pytest.raises(CheckpointError, match=str(path)):
            load_checkpoint(path, fresh)
        assert_params_equal(fresh, before)

    def test_shape_mismatch_between_net_and_file(self, tmp_path):
        net = small_net(seed=7)
        path = tmp_path / "ck.ls3d"
        save_checkpoint(path, net, AdamState.init(net.parameters()))
        other_spec = NetworkSpec(channels=8, num_resblocks=2,
                                 temporal_deconv_after=frozenset({1, 2}))
        other = build_net(other_spec, seed=0)
        with pytest.raises(CheckpointError, match="shape"):
            load_checkpoint(path, other)

    @pytest.mark.parametrize("edit, named", [
        (lambda t: t.update({"param/extra.weight": np.zeros(2, np.float32)}),
         "param/extra.weight"),
        (lambda t: t.pop("adam.v/conv.bias"), "adam.v/conv.bias"),
        (lambda t: t.pop("step"), "'step'"),
        (lambda t: [t.pop(k) for k in list(t) if k.startswith("adam.") or k == "step"],
         "adam.m/conv.weight"),
        (lambda t: t.pop("config"), "config"),
    ], ids=["extra_param", "step_without_moments", "moments_without_step", "no_moments",
            "no_config"])
    def test_names_must_match_exactly(self, tmp_path, edit, named):
        """The checkpoint holds the net's parameters, both Adam moments of
        every parameter, `step` and the config echo: nothing more or less. A
        mismatch, such as a checkpoint without the moments, is rejected
        before the net is touched."""
        net = one_conv_layer(0)
        path = tmp_path / "ck.ls3d"
        save_checkpoint(path, net, AdamState.init(net.parameters()))
        tensors = load_named_tensors(path)
        edit(tensors)
        save_named_tensors(path, tensors)
        fresh = one_conv_layer(1)
        before = snapshot(fresh)
        with pytest.raises(CheckpointError, match=named):
            load_checkpoint(path, fresh)
        assert_params_equal(fresh, before)

    @pytest.mark.parametrize("step", [np.nan, -1.0, 2.5], ids=["nan", "negative", "fraction"])
    def test_step_must_be_a_whole_number(self, tmp_path, step):
        """A step that is not finite, integral and >= 0 is rejected, naming
        `step`, before the net is touched."""
        net = one_conv_layer(0)
        path = tmp_path / "ck.ls3d"
        save_checkpoint(path, net, AdamState.init(net.parameters()))
        tensors = load_named_tensors(path)
        tensors["step"] = np.array([step])
        save_named_tensors(path, tensors)
        fresh = one_conv_layer(1)
        before = snapshot(fresh)
        with pytest.raises(CheckpointError, match="'step'"):
            load_checkpoint(path, fresh)
        assert_params_equal(fresh, before)

    def test_bytes_past_declared_array_rejected(self, tmp_path):
        """A member whose npy header declares fewer elements than it holds,
        under a sound CRC-32, is damaged: the values past the header's
        count would otherwise be dropped without a word."""
        path = tmp_path / "ck.ls3d"
        save_named_tensors(path, {"a": np.arange(3, dtype=np.float32)})
        with zipfile.ZipFile(path) as archive:
            data = archive.read("a.npy")
        with zipfile.ZipFile(path, "w") as archive:
            archive.writestr("a.npy", data.replace(b"(3,)", b"(2,)"))
        with pytest.raises(CheckpointError, match="bytes past its array"):
            load_named_tensors(path)

    @pytest.mark.parametrize("dims", [(2**32 - 1, 2**32 - 1), (2**32 - 1, 2**32 - 1, 0)],
                             ids=["wraps_int64", "zero_sized"])
    def test_dims_past_int64_rejected(self, tmp_path, dims):
        """An npy header whose element count overflows int64 is a bad
        checkpoint, not a crash: (2**32-1)**2 wraps negative, and with a 0
        dim it has no data but a shape numpy cannot index."""
        path = tmp_path / "ck.ls3d"
        write_npy_header_archive(path, dims)
        with pytest.raises(CheckpointError, match="ValueError"):
            load_checkpoint(path, small_net(seed=8))
