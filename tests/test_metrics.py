"""PSNR/SSIM closed-form cases and the L1 loss contract."""

import math

import numpy as np
import pytest

from ls3dconv.errors import ShapeError
from ls3dconv.metrics import (EvalReport, evaluate_pair, l1_loss, psnr, psnr_frames,
                              ssim, ssim_frames, write_eval_csv)


def const(value, shape=(1, 3, 2, 16, 16)):
    return np.full(shape, value, dtype=np.float64)


class TestPsnr:
    def test_identical_inputs_give_sentinel(self):
        a = const(0.3)
        assert psnr(a, a.copy()) == math.inf

    def test_full_scale_error_is_zero_db(self):
        assert psnr(const(0.0), const(1.0)) == pytest.approx(0.0, abs=1e-12)

    def test_tenth_error_is_twenty_db(self):
        assert psnr(const(0.0), const(0.1)) == pytest.approx(20.0, abs=1e-9)

    def test_monotone_in_mse(self):
        rng = np.random.default_rng(0)
        a = rng.uniform(0, 1, (1, 3, 1, 12, 12))
        prev = math.inf
        for scale in (0.01, 0.05, 0.1, 0.3):
            val = psnr(a, a + scale)
            assert val < prev
            prev = val

    def test_per_frame_values(self):
        a = const(0.0, (1, 3, 2, 12, 12))
        b = a.copy()
        b[:, :, 1] = 0.1
        vals = psnr_frames(a, b)
        assert vals[0] == math.inf
        assert vals[1] == pytest.approx(20.0)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            psnr(const(0, (1, 3, 1, 12, 12)), const(0, (1, 3, 2, 12, 12)))


class TestSsim:
    def test_self_similarity_is_one(self):
        rng = np.random.default_rng(1)
        a = rng.uniform(0, 1, (1, 3, 2, 16, 16))
        assert ssim(a, a.copy()) == pytest.approx(1.0, abs=1e-9)

    def test_constant_zero_vs_one_closed_form(self):
        """Zero variances: SSIM = C1/(1+C1) ~ 1e-4."""
        expected = 0.01 ** 2 / (1 + 0.01 ** 2)
        assert ssim(const(0.0), const(1.0)) == pytest.approx(expected, rel=1e-9)

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        a = rng.uniform(0, 1, (1, 3, 1, 14, 14))
        b = rng.uniform(0, 1, (1, 3, 1, 14, 14))
        assert ssim(a, b) == pytest.approx(ssim(b, a), abs=1e-12)

    def test_range_and_strictness(self):
        rng = np.random.default_rng(3)
        a = rng.uniform(0, 1, (1, 3, 1, 16, 16))
        b = np.clip(a + rng.normal(0, 0.1, a.shape), 0, 1)
        val = ssim(a, b)
        assert -1.0 <= val < 1.0

    def test_window_size_enforced(self):
        with pytest.raises(ShapeError, match="11"):
            ssim(const(0, (1, 3, 1, 8, 16)), const(0, (1, 3, 1, 8, 16)))

    def test_single_channel_rejected(self):
        """The nets emit RGB frames; SSIM scores their luma only."""
        a = np.random.default_rng(4).uniform(0, 1, (1, 1, 1, 12, 12))
        with pytest.raises(ShapeError, match="3 \\(RGB\\) channels, got 1"):
            ssim(a, a.copy())


class TestL1Loss:
    def test_perfect_prediction(self):
        a = const(0.4)
        loss, grad = l1_loss(a, a.copy())
        assert loss == 0.0
        assert np.all(grad == 0)  # sign(0) convention

    def test_constant_offset(self):
        pred = const(0.75)
        target = const(0.25)
        loss, grad = l1_loss(pred, target)
        assert loss == pytest.approx(0.5)
        np.testing.assert_allclose(grad, 1.0 / pred.size)

    def test_positive_homogeneity(self):
        rng = np.random.default_rng(5)
        p = rng.standard_normal((1, 3, 1, 8, 8))
        t = rng.standard_normal((1, 3, 1, 8, 8))
        l1, _ = l1_loss(p, t)
        l2, _ = l1_loss(2.5 * p, 2.5 * t)
        assert l2 == pytest.approx(2.5 * l1)

    def test_grad_is_subgradient_of_loss(self):
        rng = np.random.default_rng(6)
        p = rng.standard_normal((1, 1, 1, 4, 4))
        t = rng.standard_normal((1, 1, 1, 4, 4))
        _, grad = l1_loss(p, t)
        eps = 1e-7
        for flat in range(p.size):
            pp = p.copy()
            pp.flat[flat] += eps
            pm = p.copy()
            pm.flat[flat] -= eps
            fd = (l1_loss(pp, t)[0] - l1_loss(pm, t)[0]) / (2 * eps)
            assert grad.flat[flat] == pytest.approx(fd, abs=1e-8)


class TestEvalReport:
    def test_csv_layout(self, tmp_path):
        rng = np.random.default_rng(7)
        pred = rng.uniform(0, 1, (1, 3, 3, 16, 16))
        target = rng.uniform(0, 1, (1, 3, 3, 16, 16))
        rep = evaluate_pair(4, pred, target)
        assert len(rep.psnr_per_frame) == 3
        path = tmp_path / "eval.csv"
        write_eval_csv(path, [rep])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "clip_id,frame,psnr_db,ssim"
        assert len(lines) == 4
        assert lines[1].startswith("4,0,")
