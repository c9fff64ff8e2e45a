"""Clip generator: determinism, kinematics, value range, noise statistics."""

import math

import numpy as np
import pytest

from ls3dconv.errors import ShapeError
from ls3dconv.metrics import psnr
from ls3dconv.synthdata import (ClipSpec, ObjectSpec, add_gaussian_noise, gen_clip,
                                random_clip_spec)
from ls3dconv.train import TrainConfig, make_dataset


def single_rect_spec(start=(10.0, 10.0), velocity=(2.0, 0.0), num_frames=5):
    obj = ObjectSpec("rect", "checker", 4.0, velocity, start, (8.0, 8.0))
    return ClipSpec(size=(32, 32), num_frames=num_frames, objects=(obj,), seed=3)


class TestGenClip:
    def test_shape_dtype_range(self):
        frames = gen_clip(random_clip_spec(0))
        assert frames.shape == (1, 3, 5, 32, 32)
        assert frames.dtype == np.float32
        assert frames.min() >= 0.0 and frames.max() <= 1.0

    def test_deterministic(self):
        spec = random_clip_spec(42)
        np.testing.assert_array_equal(gen_clip(spec), gen_clip(spec))

    def test_static_scene_frames_identical(self):
        spec = single_rect_spec(velocity=(0.0, 0.0))
        frames = gen_clip(spec)
        for t in range(1, 5):
            np.testing.assert_array_equal(frames[:, :, t], frames[:, :, 0])

    def test_object_moves_at_stated_velocity(self):
        """Row 4 + 2 px/frame puts the rect center near row 10 by frame 3."""
        obj = ObjectSpec("rect", "checker", 4.0, (2.0, 0.0), (4.0, 16.0), (6.0, 6.0))
        bg = ClipSpec(size=(32, 32), num_frames=4, objects=(obj,), seed=0)
        frames = gen_clip(bg)
        plain = gen_clip(ClipSpec(size=(32, 32), num_frames=4, objects=(), seed=0))
        delta = np.abs(frames - plain).sum(axis=(0, 1, 4))  # (T, H) occupancy by row
        rows = np.arange(32, dtype=np.float64)
        centroids = [float((delta[t] * rows).sum() / delta[t].sum()) for t in range(4)]
        # displacement over 3 frames is 6 px; absolute position uses pixel
        # indices (continuous center c sits at index centroid c - 0.5)
        assert centroids[3] - centroids[0] == pytest.approx(6.0, abs=0.3)
        assert centroids[3] == pytest.approx(9.5, abs=0.5)

    def test_subpixel_motion_changes_frames_smoothly(self):
        obj = ObjectSpec("rect", "checker", 4.0, (0.0, 0.5), (16.0, 10.0), (8.0, 8.0))
        spec = ClipSpec(size=(32, 32), num_frames=3, objects=(obj,), seed=1)
        frames = gen_clip(spec)
        d01 = float(np.abs(frames[:, :, 1] - frames[:, :, 0]).mean())
        assert 0 < d01 < 0.05  # half-pixel step: visible but small

    def test_velocity_bound_enforced(self):
        with pytest.raises(ShapeError, match="velocity"):
            single_rect_spec(velocity=(50.0, 0.0))

    def test_degenerate_size_rejected(self):
        with pytest.raises(ShapeError, match="degenerate"):
            ClipSpec(size=(2, 32), num_frames=5, objects=())


class TestInterpolationSample:
    def test_inputs_are_end_frames_of_targets(self):
        """The targets are the whole 5-frame clip; the inputs are its frames
        0 and 4, bit for bit; the metrics score frames 1..3."""
        cfg = TrainConfig(task="interpolate", size=16, motion=2.0)
        samples = make_dataset(cfg, 3, seed_base=7)
        np.testing.assert_array_equal(samples[0].targets,
                                      gen_clip(random_clip_spec(7, size=16, motion=2.0)))
        for s in samples:
            assert s.targets.shape == (1, 3, 5, 16, 16)
            np.testing.assert_array_equal(s.inputs, s.targets[:, :, [0, 4]])
            assert s.eval_slice == slice(1, 4)


class TestGaussianNoise:
    def test_sigma_zero_is_identity(self):
        frames = gen_clip(random_clip_spec(1))
        np.testing.assert_array_equal(add_gaussian_noise(frames, 0.0, seed=5), frames)

    def test_deterministic(self):
        frames = gen_clip(random_clip_spec(2))
        a = add_gaussian_noise(frames, 25.0, seed=9)
        b = add_gaussian_noise(frames, 25.0, seed=9)
        np.testing.assert_array_equal(a, b)

    def test_clamped_to_unit_range(self):
        frames = gen_clip(random_clip_spec(3))
        noisy = add_gaussian_noise(frames, 25.0, seed=1)
        assert noisy.min() >= 0.0 and noisy.max() <= 1.0

    def test_empirical_std_matches_sigma(self):
        """On mid-gray input the sample std is sigma/255 within 5%."""
        frames = np.full((1, 3, 2, 64, 64), 0.5, dtype=np.float32)
        noisy = add_gaussian_noise(frames, 25.0, seed=2)
        std = float((noisy - frames).std())
        assert std == pytest.approx(25.0 / 255.0, rel=0.05)

    def test_noise_psnr_matches_analytic_value(self):
        """sigma-25 noise sits at 20 log10(255/25) ~ 20.17 dB on mid-gray."""
        frames = np.full((1, 3, 3, 64, 64), 0.5, dtype=np.float32)
        noisy = add_gaussian_noise(frames, 25.0, seed=3)
        expected = 20.0 * math.log10(255.0 / 25.0)
        assert psnr(noisy, frames) == pytest.approx(expected, abs=0.3)


class TestRandomClipSpec:
    def test_motion_magnitude_fixed(self):
        for seed in range(10):
            spec = random_clip_spec(seed, motion=4.0)
            for obj in spec.objects:
                assert math.hypot(*obj.velocity) == pytest.approx(4.0, rel=1e-6)

    def test_distinct_seeds_distinct_scenes(self):
        a = gen_clip(random_clip_spec(0))
        b = gen_clip(random_clip_spec(1))
        assert not np.array_equal(a, b)
