"""The sampling convolution against its oracles.

The load-bearing test is reduction: with offsets == 0 and masks == 1 the
operator must reproduce the direct-loop plain convolution elementwise.
"""

import ctypes
import importlib.machinery
import importlib.metadata
import importlib.util
import os
import subprocess
import sys
import weakref
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ls3dconv import conv3d, ls3d
from ls3dconv.conv3d import Conv3dParams, conv3d_backward, conv3d_forward, conv3d_ref
from ls3dconv.errors import NumericError, ShapeError
from ls3dconv.ls3d import (Ls3dConv, bilinear_backward, bilinear_sample,
                           ls3d_backward, ls3d_forward, num_taps, tap_offsets)
from ls3dconv.net import make_ls3d_layer
from ls3dconv.tensor import distinct_nbytes, sigmoid

FRAME = np.array([[0.0, 1.0], [2.0, 3.0]])


class TestBilinearSample:
    def test_center_average(self):
        assert bilinear_sample(FRAME, (0.5, 0.5)) == pytest.approx(1.5)

    def test_integer_location_returns_grid_value(self):
        assert bilinear_sample(FRAME, (0, 1)) == pytest.approx(1.0)

    def test_fractional_row(self):
        # 0.75 * x[0,0] + 0.25 * x[1,0]
        assert bilinear_sample(FRAME, (0.25, 0)) == pytest.approx(0.5)

    def test_out_of_range_is_zero(self):
        assert bilinear_sample(FRAME, (-5.0, -5.0)) == 0.0
        assert bilinear_sample(FRAME, (0.0, 10.0)) == 0.0


class TestBilinearBackward:
    def test_symmetric_frame_grads(self):
        grad_frame, _ = bilinear_backward(FRAME, (0.5, 0.5), 1.0)
        np.testing.assert_allclose(grad_frame, np.full((2, 2), 0.25))

    def test_point_gradient_hand_value(self):
        _, (d_row, d_col) = bilinear_backward(FRAME, (0.5, 0.5), 1.0)
        assert d_row == pytest.approx(2.0)
        assert d_col == pytest.approx(1.0)

    def test_out_of_range_all_zero(self):
        grad_frame, (d_row, d_col) = bilinear_backward(FRAME, (-5.0, -5.0), 1.0)
        assert np.all(grad_frame == 0) and d_row == 0 and d_col == 0

    @pytest.mark.parametrize("point", [(0.3, 0.7), (1.2, -0.4), (0.4, 0.5), (1.9, 1.9)])
    def test_point_gradient_matches_finite_difference(self, point):
        # Points stay off integer coordinates: the kernel has a kink there
        # and central differences would average the two one-sided slopes.
        rng = np.random.default_rng(3)
        frame = rng.standard_normal((4, 5))
        _, (d_row, d_col) = bilinear_backward(frame, point, 1.0)
        eps = 1e-6
        fd_r = (bilinear_sample(frame, (point[0] + eps, point[1]))
                - bilinear_sample(frame, (point[0] - eps, point[1]))) / (2 * eps)
        fd_c = (bilinear_sample(frame, (point[0], point[1] + eps))
                - bilinear_sample(frame, (point[0], point[1] - eps))) / (2 * eps)
        assert d_row == pytest.approx(fd_r, abs=1e-6)
        assert d_col == pytest.approx(fd_c, abs=1e-6)


def rand_main(rng, c_in, c_out, dtype=np.float64, kernel=(3, 3, 3)):
    w = rng.standard_normal((c_out, c_in, *kernel)).astype(dtype)
    b = rng.standard_normal(c_out).astype(dtype)
    return Conv3dParams(w, b, stride=(1, 1, 1), padding=tuple(k // 2 for k in kernel))


def zero_off_unit_mask(shape, kernel, dtype):
    n_, _, t_, h, w = shape
    taps = num_taps(kernel)
    offsets = np.zeros((n_, 2 * taps, t_, h, w), dtype=dtype)
    masks = np.ones((n_, taps, t_, h, w), dtype=dtype)
    return offsets, masks


class TestReductionOracle:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_plain_conv_float64(self, seed):
        rng = np.random.default_rng(seed)
        c_in, c_out = (int(v) for v in rng.integers(1, 4, size=2))
        t_, h, w = int(rng.integers(2, 5)), int(rng.integers(4, 8)), int(rng.integers(4, 8))
        x = rng.standard_normal((1, c_in, t_, h, w))
        main = rand_main(rng, c_in, c_out)
        offsets, masks = zero_off_unit_mask(x.shape, main.kernel, x.dtype)
        y, _ = ls3d_forward(x, main, offsets, masks)
        y_ref = conv3d_ref(x, main)
        np.testing.assert_allclose(y, y_ref, rtol=1e-10, atol=1e-12)

    def test_matches_plain_conv_float32(self):
        rng = np.random.default_rng(99)
        x = rng.standard_normal((2, 3, 3, 6, 6)).astype(np.float32)
        main = rand_main(rng, 3, 2, dtype=np.float32)
        offsets, masks = zero_off_unit_mask(x.shape, main.kernel, x.dtype)
        y, _ = ls3d_forward(x, main, offsets, masks)
        np.testing.assert_allclose(y, conv3d_ref(x, main), rtol=1e-5, atol=1e-5)

    def test_half_masks_halve_the_convolution(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((1, 2, 3, 5, 5))
        main = rand_main(rng, 2, 2)
        main.bias[:] = 0
        offsets, masks = zero_off_unit_mask(x.shape, main.kernel, x.dtype)
        y, _ = ls3d_forward(x, main, offsets, masks * 0.5)
        np.testing.assert_allclose(y, 0.5 * conv3d_ref(x, main), rtol=1e-10, atol=1e-12)

    def test_pure_translation_offsets(self):
        """1x1x1 identity kernel with offsets (0,+3) shifts left with zero fill."""
        rng = np.random.default_rng(6)
        x = rng.standard_normal((1, 1, 2, 4, 7))
        main = Conv3dParams(np.ones((1, 1, 1, 1, 1)), np.zeros(1))
        offsets, masks = zero_off_unit_mask(x.shape, main.kernel, x.dtype)
        offsets[:, 1] = 3.0
        y, _ = ls3d_forward(x, main, offsets, masks)
        expected = np.zeros_like(x)
        expected[..., :-3] = x[..., 3:]
        np.testing.assert_allclose(y, expected, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("dr,dc", [(1, 0), (0, -2), (-1, 1)])
    def test_integer_offset_consistency(self, dr, dc):
        """Constant integer offsets equal the plain conv of a translated input.

        Compared on the interior only: at border outputs the plain conv sees
        padding zeros where the sampling conv legitimately reaches back into
        the frame, so the two differ on a 1-pixel ring by construction.
        """
        rng = np.random.default_rng(7)
        x = rng.standard_normal((1, 2, 3, 6, 6))
        main = rand_main(rng, 2, 1)
        taps = num_taps(main.kernel)
        offsets = np.zeros((1, 2 * taps, 3, 6, 6))
        offsets[:, 0::2] = dr
        offsets[:, 1::2] = dc
        masks = np.ones((1, taps, 3, 6, 6))
        y, _ = ls3d_forward(x, main, offsets, masks)
        shifted = np.zeros_like(x)
        src_r = slice(max(0, dr), 6 + min(0, dr))
        dst_r = slice(max(0, -dr), 6 - max(0, dr))
        src_c = slice(max(0, dc), 6 + min(0, dc))
        dst_c = slice(max(0, -dc), 6 - max(0, dc))
        shifted[:, :, :, dst_r, dst_c] = x[:, :, :, src_r, src_c]
        y_ref = conv3d_ref(shifted, main)
        np.testing.assert_allclose(y[..., 1:-1, 1:-1], y_ref[..., 1:-1, 1:-1],
                                    rtol=1e-10, atol=1e-12)

    def test_linearity_in_input(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((1, 2, 2, 5, 5))
        z = rng.standard_normal((1, 2, 2, 5, 5))
        main = rand_main(rng, 2, 2)
        main.bias[:] = 0
        taps = num_taps(main.kernel)
        offsets = rng.standard_normal((1, 2 * taps, 2, 5, 5)) * 1.3
        masks = rng.uniform(0, 1, (1, taps, 2, 5, 5))
        ya, _ = ls3d_forward(x, main, offsets, masks)
        yb, _ = ls3d_forward(z, main, offsets, masks)
        yc, _ = ls3d_forward(2.0 * x - 0.7 * z, main, offsets, masks)
        np.testing.assert_allclose(yc, 2.0 * ya - 0.7 * yb, rtol=1e-10, atol=1e-10)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_offsets_beyond_int64_read_zero(self, dtype):
        """Every tap lands 1e30 rows or columns away, which no int64 holds:
        y is the bias alone and nothing flows back to x or the fields."""
        rng = np.random.default_rng(9)
        x = rng.standard_normal((1, 2, 2, 4, 5)).astype(dtype)
        main = rand_main(rng, 2, 3, dtype=dtype)
        taps = num_taps(main.kernel)
        offsets = rng.choice([-1e30, 1e30], (1, 2 * taps, 2, 4, 5)).astype(dtype)
        masks = rng.uniform(0, 1, (1, taps, 2, 4, 5)).astype(dtype)
        y, ctx = ls3d_forward(x, main, offsets, masks)
        np.testing.assert_array_equal(y, np.zeros_like(y) + main.bias[:, None, None, None])
        gx, _, _, goff, gmask = ls3d_backward(ctx, rng.standard_normal(y.shape).astype(dtype))
        for g in (gx, goff, gmask):
            assert not g.any()

    def test_nonfinite_offsets_rejected(self):
        x = np.zeros((1, 1, 2, 4, 4), dtype=np.float64)
        main = rand_main(np.random.default_rng(0), 1, 1)
        offsets, masks = zero_off_unit_mask(x.shape, main.kernel, x.dtype)
        offsets[0, 3, 1, 2, 2] = np.nan
        with pytest.raises(NumericError, match="non-finite"):
            ls3d_forward(x, main, offsets, masks)

    @pytest.mark.parametrize("field", ["input", "masks"])
    def test_nonfinite_input_and_masks_rejected(self, field):
        x = np.zeros((1, 1, 2, 4, 4), dtype=np.float64)
        main = rand_main(np.random.default_rng(0), 1, 1)
        offsets, masks = zero_off_unit_mask(x.shape, main.kernel, x.dtype)
        bad = {"input": x, "masks": masks}[field]
        bad.flat[13] = np.inf
        with pytest.raises(NumericError, match=f"non-finite {field} at flat index 13"):
            ls3d_forward(x, main, offsets, masks)

    def test_layer_names_itself_on_non_finite_input(self):
        """A layer re-raises the operator's NumericError with its own name in
        front, so a net with several LS3D layers says which one failed."""
        layer = make_ls3d_layer(np.random.default_rng(0), channels=1, name="block1.conv1",
                                dtype=np.float64)
        x = np.zeros((1, 1, 2, 4, 4))
        x[0, 0, 1, 2, 3] = np.nan
        with pytest.raises(NumericError, match=r"^block1\.conv1: ls3d: non-finite input at "
                                               r"flat index 27 \(shape \(1, 1, 2, 4, 4\)\)$"):
            layer.forward(x)

    def test_field_shape_mismatch_rejected(self):
        x = np.zeros((1, 1, 2, 4, 4), dtype=np.float64)
        main = rand_main(np.random.default_rng(0), 1, 1)
        offsets = np.zeros((1, 54, 2, 4, 4))
        masks = np.ones((1, 26, 2, 4, 4))  # one channel short
        with pytest.raises(ShapeError, match="masks"):
            ls3d_forward(x, main, offsets, masks)


def definition_sum(x, main, offsets, masks):
    """y_t(p) = bias + sum_k m^k_t(p) * w_k . x_{t+tau}(p + p^k + dp^k_t(p)), in float64,
    sampling with the scalar bilinear_sample."""
    n_, c_in, t_, h, w = x.shape
    kt, kh, kw = main.kernel
    y = np.empty((n_, main.out_channels, t_, h, w))
    for n, t, r, c in np.ndindex(n_, t_, h, w):
        acc = main.bias.astype(np.float64).copy()
        for k, tau, pr, pc in tap_offsets(main.kernel):
            if not 0 <= t + tau < t_:
                continue
            point = (r + pr + offsets[n, 2 * k, t, r, c], c + pc + offsets[n, 2 * k + 1, t, r, c])
            sample = np.array([bilinear_sample(x[n, ci, t + tau], point) for ci in range(c_in)])
            w_tap = main.weight[:, :, tau + kt // 2, pr + kh // 2, pc + kw // 2]
            acc += masks[n, k, t, r, c] * (w_tap @ sample)
        y[n, :, t, r, c] = acc
    return y


def draw_operator_inputs(seed, t_, hw):
    """Fractional offsets differing per tap and position, some landing
    exactly on integers, some fully outside the frame and some beyond the
    range of int64."""
    rng = np.random.default_rng(seed)
    h, w = hw
    x = rng.standard_normal((2, 2, t_, h, w))
    main = rand_main(rng, 2, 3)
    taps = num_taps(main.kernel)
    offsets = rng.uniform(-2.5, 2.5, (2, 2 * taps, t_, h, w))
    kind = rng.integers(0, 5, offsets.shape)
    offsets[kind == 1] = np.round(offsets[kind == 1])
    offsets[kind == 2] = rng.choice([-1.0, 1.0], int(np.sum(kind == 2))) * (max(h, w) + 1.5)
    offsets[kind == 4] = rng.choice([-1e30, 1e30], int(np.sum(kind == 4)))
    masks = rng.uniform(0, 1, (2, taps, t_, h, w))
    return rng, x, main, offsets, masks


OPERATOR_INPUTS = dict(seed=st.integers(0, 2 ** 32 - 1), t_=st.sampled_from([1, 2, 5]),
                       hw=st.sampled_from([(3, 5), (6, 4), (5, 7)]))


# The backward regathers corners in blocks of `_BLOCK` rows. The
# hypothesis inputs fit in one block; blocks of 7 rows put block edges
# everywhere, and mid-tap.
BLOCKS = (ls3d._BLOCK, 7)


def check_forward(x, main, offsets, masks):
    inputs = (x, main.weight, main.bias, offsets, masks)
    before = [a.copy() for a in inputs]
    y, _ = ls3d_forward(x, main, offsets, masks)
    np.testing.assert_allclose(y, definition_sum(x, main, offsets, masks),
                               rtol=1e-12, atol=1e-12)
    for a, b in zip(inputs, before):
        assert a.tobytes() == b.tobytes()
    y2, _ = ls3d_forward(x, main, offsets, masks)
    assert y2.tobytes() == y.tobytes()


def check_adjoint(rng, x, main, offsets, masks):
    """y - bias is linear in x, in the weight and in the masks, so its
    pairing with any upstream g equals each input's pairing with its
    gradient: <y - b, g> = <x, gx> = <w, gw> = <m, gm>. With a random g
    and random inputs this ties every entry of every gradient to the
    forward, out-of-frame corners and integer offsets included."""
    g = rng.standard_normal((x.shape[0], main.out_channels, *x.shape[2:]))
    for block in BLOCKS:
        with mock.patch.object(ls3d, "_BLOCK", block):
            y, ctx = ls3d_forward(x, main, offsets, masks)
            gx, gw, _, _, gm = ls3d_backward(ctx, g)
        linear = (y - main.bias[None, :, None, None, None]) * g
        # Relative to the sum of magnitudes, so cancellation in a pairing
        # cannot make the tolerance vanish.
        scale = np.abs(linear).sum()
        for value, grad in ((x, gx), (main.weight, gw), (masks, gm)):
            assert abs(np.vdot(value, grad) - linear.sum()) <= 1e-12 * scale


class TestDefinitionSum:
    @settings(max_examples=12, deadline=None)
    @given(**OPERATOR_INPUTS)
    def test_forward_matches_definition(self, seed, t_, hw):
        check_forward(*draw_operator_inputs(seed, t_, hw)[1:])

    @settings(max_examples=12, deadline=None)
    @given(**OPERATOR_INPUTS)
    def test_backward_is_adjoint_of_forward(self, seed, t_, hw):
        check_adjoint(*draw_operator_inputs(seed, t_, hw))

    def test_real_size_spans_three_blocks(self):
        """2 x 2 x 8 x 10 points of 27 taps: 8640 column rows, three blocks
        at the default block size, the last one partial."""
        rng, x, main, offsets, masks = draw_operator_inputs(11, 2, (8, 10))
        assert 2 * ls3d._BLOCK < x[:, 0].size * num_taps(main.kernel) < 3 * ls3d._BLOCK
        check_forward(x, main, offsets, masks)
        check_adjoint(rng, x, main, offsets, masks)


class TestLs3dBackward:
    def _setup(self, seed=0, dtype=np.float64):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((1, 2, 3, 5, 6)).astype(dtype)
        main = rand_main(rng, 2, 2, dtype=dtype)
        taps = num_taps(main.kernel)
        offsets = (rng.standard_normal((1, 2 * taps, 3, 5, 6)) + 0.3).astype(dtype)
        masks = rng.uniform(0.1, 0.9, (1, taps, 3, 5, 6)).astype(dtype)
        return rng, x, main, offsets, masks

    def test_reduces_to_conv_backward_at_zero_offsets(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((1, 2, 3, 5, 5))
        main = rand_main(rng, 2, 2)
        offsets, masks = zero_off_unit_mask(x.shape, main.kernel, x.dtype)
        y, ctx = ls3d_forward(x, main, offsets, masks)
        gy = rng.standard_normal(y.shape)
        gx, gw, gb, goff, gmask = ls3d_backward(ctx, gy)
        _, conv_ctx = conv3d_forward(x, main)
        gx_ref, gw_ref, gb_ref = conv3d_backward(conv_ctx, gy)
        np.testing.assert_allclose(gx, gx_ref, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(gw, gw_ref, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(gb, gb_ref, rtol=1e-10, atol=1e-12)

    def test_mask_gradient_sign(self):
        """Positive upstream x positive weighted sample -> positive mask grad."""
        x = np.ones((1, 1, 1, 3, 3))
        main = Conv3dParams(np.ones((1, 1, 1, 1, 1)), np.zeros(1))
        offsets = np.zeros((1, 2, 1, 3, 3))
        masks = np.full((1, 1, 1, 3, 3), 0.5)
        y, ctx = ls3d_forward(x, main, offsets, masks)
        gy = np.ones_like(y)
        _, _, _, _, gmask = ls3d_backward(ctx, gy)
        assert np.all(gmask > 0)

    def test_input_grad_matches_finite_difference(self):
        rng, x, main, offsets, masks = self._setup(2)
        y, ctx = ls3d_forward(x, main, offsets, masks)
        proj = rng.standard_normal(y.shape)
        gx = ls3d_backward(ctx, proj)[0]
        eps = 1e-6
        for flat in rng.choice(x.size, size=12, replace=False):
            xp = x.copy()
            xp.flat[flat] += eps
            xm = x.copy()
            xm.flat[flat] -= eps
            fd = (np.sum(ls3d_forward(xp, main, offsets, masks)[0] * proj)
                  - np.sum(ls3d_forward(xm, main, offsets, masks)[0] * proj)) / (2 * eps)
            assert gx.flat[flat] == pytest.approx(fd, rel=1e-5, abs=1e-7)

    def test_offset_grad_matches_finite_difference(self):
        rng, x, main, offsets, masks = self._setup(3)
        y, ctx = ls3d_forward(x, main, offsets, masks)
        proj = rng.standard_normal(y.shape)
        goff = ls3d_backward(ctx, proj)[3]
        eps = 1e-6
        for flat in rng.choice(offsets.size, size=12, replace=False):
            op = offsets.copy()
            op.flat[flat] += eps
            om = offsets.copy()
            om.flat[flat] -= eps
            fd = (np.sum(ls3d_forward(x, main, op, masks)[0] * proj)
                  - np.sum(ls3d_forward(x, main, om, masks)[0] * proj)) / (2 * eps)
            assert goff.flat[flat] == pytest.approx(fd, rel=1e-5, abs=1e-7)

    def test_backward_without_state_raises(self):
        with pytest.raises(ShapeError, match="state"):
            ls3d_backward(None, np.zeros((1, 1, 1, 1, 1)))

    def test_float64_fields_with_float32_input(self):
        """float64 offsets and masks on a float32 input run, and match the
        all-float32 call to float32 precision."""
        rng, x, main, offsets, masks = self._setup(4, dtype=np.float32)
        g = rng.standard_normal((1, 2, 3, 5, 6)).astype(np.float32)
        y32, ctx32 = ls3d_forward(x, main, offsets, masks)
        y64, ctx64 = ls3d_forward(x, main, offsets.astype(np.float64), masks.astype(np.float64))
        assert y64.dtype == np.float32
        np.testing.assert_allclose(y64, y32, rtol=1e-5, atol=1e-5 * np.abs(y32).max())
        for a, b in zip(ls3d_backward(ctx64, g), ls3d_backward(ctx32, g)):
            assert a.shape == b.shape
            np.testing.assert_allclose(a, b, rtol=1e-4, atol=1e-5 * np.abs(b).max())


class TestPredictBranches:
    def test_zero_branches_give_zero_offsets_and_half_masks(self):
        rng = np.random.default_rng(0)
        layer = make_ls3d_layer(rng, channels=2, name="l", dtype=np.float64)
        x = rng.standard_normal((1, 2, 2, 4, 4))
        offsets, masks = layer.predict_offsets_masks(x)
        assert offsets.shape == (1, 54, 2, 4, 4)
        assert masks.shape == (1, 27, 2, 4, 4)
        assert np.all(offsets == 0)
        np.testing.assert_allclose(masks, 0.5)

    def test_mask_range_with_random_branches(self):
        rng = np.random.default_rng(1)
        layer = make_ls3d_layer(rng, channels=2, name="l", dtype=np.float64,
                                random_branches=True)
        x = 10 * rng.standard_normal((2, 2, 3, 5, 5))
        _, masks = layer.predict_offsets_masks(x)
        assert np.all(masks >= 0) and np.all(masks <= 1)

    def test_branch_channel_counts(self):
        rng = np.random.default_rng(2)
        layer = make_ls3d_layer(rng, channels=3, name="l")
        assert layer.offset_branch.out_channels == 54
        assert layer.mask_branch.out_channels == 27
        assert layer.branches.out_channels == 81
        short = Conv3dParams(np.zeros((54, 3, 3, 3, 3), np.float32), np.zeros(54, np.float32),
                             padding=(1, 1, 1))
        with pytest.raises(ShapeError, match="81 channels"):
            Ls3dConv(layer.main, short)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_offset_shift_set_after_construction(self, dtype):
        """Gradient checks set `offset_shift` on a built layer: every predicted
        offset moves by exactly that constant, in the layer's dtype, and no
        mask moves."""
        rng = np.random.default_rng(6)
        layer = make_ls3d_layer(rng, channels=2, name="l", dtype=dtype, random_branches=True)
        x = rng.standard_normal((1, 2, 3, 5, 5)).astype(dtype)
        assert layer.offset_shift == 0
        offsets, masks = layer.predict_offsets_masks(x)
        layer.offset_shift = 0.3
        shifted, shifted_masks = layer.predict_offsets_masks(x)
        assert shifted.dtype == dtype
        np.testing.assert_array_equal(shifted, offsets + dtype(0.3))
        np.testing.assert_array_equal(shifted_masks, masks)

    def test_layer_backward_without_forward_raises(self):
        rng = np.random.default_rng(3)
        layer = make_ls3d_layer(rng, channels=1, name="l", dtype=np.float64)
        with pytest.raises(ShapeError, match="keep-state"):
            layer.backward(np.zeros((1, 1, 1, 4, 4)))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_fused_branches_match_two_convs(self, dtype):
        """The one stacked branch conv gives the offsets and masks of two
        separate convs bit for bit, and their gradients to 1e-6.

        Bit for bit holds where BLAS runs its blocked GEMM kernels, as at
        the nets' widths; with 3 channels OpenBLAS's small-matrix kernels
        round the last column differently at 81 columns than at 27."""
        rng = np.random.default_rng(4)
        layer = make_ls3d_layer(rng, channels=8, name="l", dtype=dtype, random_branches=True)
        layer.offset_branch.weight *= 30  # offsets of a few pixels
        x = rng.standard_normal((2, 8, 3, 5, 6)).astype(dtype)
        raw_off, off_ctx = conv3d_forward(x, layer.offset_branch)
        logits, mask_ctx = conv3d_forward(x, layer.mask_branch)
        masks = sigmoid(logits)
        offsets, fused_masks = layer.predict_offsets_masks(x)
        assert np.array_equal(offsets, raw_off) and np.array_equal(fused_masks, masks)

        g = rng.standard_normal((2, 8, 3, 5, 6)).astype(dtype)
        y = layer.forward(x, keep_state=True)
        gx = layer.backward(g)
        y_ref, ctx = ls3d_forward(x, layer.main, raw_off, masks)
        assert np.array_equal(y, y_ref)
        gx_ref, _, _, grad_off, grad_masks = ls3d_backward(ctx, g)
        gx_off, gw_off, gb_off = conv3d_backward(off_ctx, grad_off)
        gx_mask, gw_mask, gb_mask = conv3d_backward(mask_ctx, grad_masks * masks * (1 - masks))
        for got, want in ((gx, gx_ref + gx_off + gx_mask),
                          (layer.grads["l.offset.weight"], gw_off),
                          (layer.grads["l.offset.bias"], gb_off),
                          (layer.grads["l.mask.weight"], gw_mask),
                          (layer.grads["l.mask.bias"], gb_mask)):
            assert got.shape == want.shape and got.dtype == want.dtype
            np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-6 * np.abs(want).max())

    def test_branch_halves_share_the_branch_conv_memory(self):
        """offset_branch and mask_branch are views of the one branch conv:
        parameter names, checkpoints, Adam and gradcheck write through them
        into the weights the conv reads."""
        rng = np.random.default_rng(5)
        layer = make_ls3d_layer(rng, channels=2, name="l", dtype=np.float64)
        params = layer.parameters()
        assert np.shares_memory(params["l.offset.weight"], layer.branches.weight)
        assert np.shares_memory(params["l.mask.bias"], layer.branches.bias)
        x = rng.standard_normal((1, 2, 2, 4, 4))
        layer.offset_branch.weight[3, 1, 1, 1, 1] = 0.5
        layer.mask_branch.bias[7] = 2.0
        offsets, masks = layer.predict_offsets_masks(x)
        np.testing.assert_array_equal(offsets[:, 3], 0.5 * x[:, 1])
        assert np.all(np.delete(offsets, 3, axis=1) == 0)
        np.testing.assert_array_equal(masks[:, 7], sigmoid(np.full((1, 2, 4, 4), 2.0)))
        assert np.all(np.delete(masks, 7, axis=1) == 0.5)


class TestSavedState:
    """What a keep-state forward keeps for the backward, and how long."""

    @pytest.mark.parametrize("shape, limit", [((2, 32, 5, 8, 8), 3.2e6),
                                              ((2, 16, 5, 32, 32), 29e6)])
    def test_core_state_is_small(self, shape, limit):
        """The LS3D core state keeps the input, the branch output the offsets
        are a view of, the masks, the padded frames, one int64 top-left
        corner row and two float32 fractions per (point, tap), and the
        column buffer. At (2,16,5,32,32), with P = 2*5*32*32 = 10,240
        points and P*27 = 276,480 (point, tap) pairs: 655,360 + 3,317,760 +
        1,105,920 + 1,161,216 + 2,211,840 + 2,211,840 + 17,694,720 =
        28,358,656 bytes. Keeping the corner rows, row starts and weights,
        which the backward rebuilds, would make it 41,629,704."""
        n_, c, t_, h, w = shape
        layer = make_ls3d_layer(np.random.default_rng(7), c, "l", np.float32,
                                random_branches=True)
        x = np.random.default_rng(8).standard_normal(shape).astype(np.float32)
        layer.forward(x, keep_state=True)
        core_ctx = layer._state[0]
        points = n_ * t_ * h * w
        assert distinct_nbytes(core_ctx) == 4 * (
            points * (c + 81 + 27)                           # input, branch output, masks
            + n_ * (t_ + 2) * (h + 4) * (w + 4) * c          # padded frames
            + points * num_taps((3, 3, 3)) * (2 + 2 + c))    # int64 top, frac, columns
        assert distinct_nbytes(core_ctx) <= limit

    def test_layer_frees_core_state_before_branch_backward(self, monkeypatch):
        """The branch conv's backward, which builds the layer's largest
        column matrix, runs after the core state is gone."""
        rng = np.random.default_rng(9)
        layer = make_ls3d_layer(rng, 4, "l", np.float32, random_branches=True)
        x = rng.standard_normal((1, 4, 3, 6, 6)).astype(np.float32)
        y = layer.forward(x, keep_state=True)
        columns = weakref.ref(layer._state[0][4][-1])
        alive = []
        backward = ls3d.conv3d_backward

        def branch_backward(ctx, grad_y):
            alive.append(columns() is not None)
            return backward(ctx, grad_y)

        monkeypatch.setattr(ls3d, "conv3d_backward", branch_backward)
        layer.backward(np.ones_like(y))
        assert alive == [False]


class TestSparseKernels:
    """scipy's compiled sparse kernels are loaded from their file on first
    use, and a missing scipy fails loudly there."""

    def _call(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((1, 1, 1, 3, 3))
        offsets, masks = zero_off_unit_mask(x.shape, (3, 3, 3), x.dtype)
        ls3d_forward(x, rand_main(rng, 1, 1), offsets, masks)

    def test_missing_scipy_raises_import_error(self, monkeypatch):
        monkeypatch.setattr(conv3d, "_SPARSETOOLS", None)
        monkeypatch.setattr(importlib.util, "find_spec", lambda name, package=None: None)
        with pytest.raises(ImportError) as err:
            self._call()
        message = str(err.value)
        assert "scipy" in message and f">= {conv3d.SCIPY_MIN}" in message
        assert importlib.metadata.version("scipy") in message

    def test_missing_kernels_file_raises_import_error(self, monkeypatch, tmp_path):
        """A scipy package without scipy/sparse/_sparsetools."""
        (tmp_path / "sparse").mkdir()
        spec = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
        spec.submodule_search_locations = [str(tmp_path)]
        monkeypatch.setattr(conv3d, "_SPARSETOOLS", None)
        monkeypatch.setattr(importlib.util, "find_spec", lambda name, package=None: spec)
        with pytest.raises(ImportError, match="csr_matvecs"):
            self._call()

    def test_plain_and_ls3d_nets_load_the_kernels(self):
        """A plain net's training step fills the kernel cache (its decoder's
        transposed convs overlap-add through csr_matvecs), and so does an
        LS3D net's. Neither imports scipy.sparse."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        script = (
            "import sys\n"
            "from ls3dconv import conv3d, train\n"
            "from ls3dconv.net import NetworkSpec, build_net\n"
            "cfg = train.TrainConfig(epochs=1, batch_size=1, learning_rate=1e-3, seed=0,\n"
            "                        task='interpolate', clips=1, eval_clips=1, size=16,\n"
            "                        motion=2.0, eval_every=0)\n"
            "for blocks in ((), (2,)):\n"
            "    conv3d._SPARSETOOLS = None\n"
            "    spec = NetworkSpec(channels=4, num_resblocks=2, ls3d_block_indices=blocks,\n"
            "                       temporal_deconv_after={1, 2})\n"
            "    train.train_loop(build_net(spec, seed=0), cfg)\n"
            "    print(conv3d._SPARSETOOLS is not None, 'scipy.sparse' in sys.modules)\n")
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split("\n")[:2] == ["True False", "True False"]


def _has_mallopt() -> bool:
    return sys.platform.startswith("linux") and hasattr(ctypes.CDLL(None), "mallopt")


@pytest.mark.skipif(not _has_mallopt(), reason="needs glibc's mallopt")
def test_freed_pages_are_kept_after_import():
    """After `import ls3dconv`, a freed 8 MiB array's pages serve the next
    one: 20 allocate-touch-free rounds, after one to grow the heap, take
    under 200 minor faults (about 500 per round when the pages go back to
    the kernel on free)."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    script = (
        "import resource, numpy as np, ls3dconv\n"
        "np.ones(1 << 20)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "for _ in range(20):\n"
        "    np.ones(1 << 20)\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 200
