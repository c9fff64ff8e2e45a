"""Reference convolutions, the gathered fast path, and their agreement."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ls3dconv.conv3d import (Conv3dParams, conv3d_backward, conv3d_forward,
                             conv3d_ref, conv3d_transpose_backward,
                             conv3d_transpose_forward, conv3d_transpose_ref,
                             conv_out_shape, conv_transpose_out_shape)
from ls3dconv.errors import ShapeError


def params_1d_w(values, stride=(1, 1, 1), pad=(0, 0, 0)):
    w = np.asarray(values, dtype=np.float64).reshape(1, 1, 1, 1, -1)
    return Conv3dParams(w, np.zeros(1), stride=stride, padding=pad)


def rand_conv(rng, c_in, c_out, kernel=(3, 3, 3), stride=(1, 1, 1), pad=(1, 1, 1),
              transposed=False, output_padding=(0, 0, 0), dtype=np.float64):
    shape = (c_in, c_out, *kernel) if transposed else (c_out, c_in, *kernel)
    w = rng.standard_normal(shape).astype(dtype)
    b = rng.standard_normal(c_out).astype(dtype)
    return Conv3dParams(w, b, stride=stride, padding=pad, transposed=transposed,
                        output_padding=output_padding)


class TestConv3dRef:
    def test_hand_computed_1d(self):
        """[1,2,3] * [1,1,1] with pad 1 along W gives [3,6,5]."""
        x = np.array([1, 2, 3], dtype=np.float64).reshape(1, 1, 1, 1, 3)
        y = conv3d_ref(x, params_1d_w([1, 1, 1], pad=(0, 0, 1)))
        np.testing.assert_allclose(y.ravel(), [3, 6, 5])

    def test_zero_kernel_gives_zero_output(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 3, 2, 4, 5))
        p = rand_conv(rng, 3, 2)
        p.weight[:] = 0
        p.bias[:] = 0
        y = conv3d_ref(x, p)
        assert y.shape == (2, 2, 2, 4, 5)
        assert np.all(y == 0)

    def test_identity_kernel(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((1, 1, 2, 3, 4))
        w = np.ones((1, 1, 1, 1, 1))
        p = Conv3dParams(w, np.zeros(1))
        np.testing.assert_array_equal(conv3d_ref(x, p), x)

    def test_linearity_in_input(self):
        rng = np.random.default_rng(2)
        p = rand_conv(rng, 2, 2)
        p.bias[:] = 0
        x = rng.standard_normal((1, 2, 3, 5, 5))
        z = rng.standard_normal((1, 2, 3, 5, 5))
        lhs = conv3d_ref(1.7 * x - 0.3 * z, p)
        rhs = 1.7 * conv3d_ref(x, p) - 0.3 * conv3d_ref(z, p)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    def test_interior_shift_equivariance(self):
        """Shifting the input one pixel along W shifts the interior output."""
        rng = np.random.default_rng(3)
        p = rand_conv(rng, 1, 1)
        x = rng.standard_normal((1, 1, 3, 6, 8))
        xs = np.zeros_like(x)
        xs[..., 1:] = x[..., :-1]
        y = conv3d_ref(x, p)
        ys = conv3d_ref(xs, p)
        # ys[..., w] == y[..., w-1] wherever neither window sees the border.
        np.testing.assert_allclose(ys[..., 1:-1], y[..., :-2], rtol=1e-12, atol=1e-12)

    def test_channel_mismatch_raises(self):
        rng = np.random.default_rng(4)
        p = rand_conv(rng, 3, 2)
        x = rng.standard_normal((1, 2, 2, 4, 4))
        with pytest.raises(ShapeError, match="C"):
            conv3d_ref(x, p)

    def test_even_kernel_rejected(self):
        with pytest.raises(ShapeError, match="odd"):
            Conv3dParams(np.zeros((1, 1, 2, 3, 3)), np.zeros(1))


class TestTransposedRef:
    def test_temporal_upsampling_arithmetic(self):
        assert conv_transpose_out_shape(2, 3, 2, 1, 0) == 3
        assert conv_transpose_out_shape(3, 3, 2, 1, 0) == 5
        rng = np.random.default_rng(5)
        p = rand_conv(rng, 1, 1, stride=(2, 1, 1), pad=(1, 1, 1), transposed=True)
        x = rng.standard_normal((1, 1, 2, 3, 3))
        y = conv3d_transpose_ref(x, p)
        assert y.shape[2] == 3
        y2 = conv3d_transpose_ref(y, p)
        assert y2.shape[2] == 5

    def test_zero_input_zero_output(self):
        rng = np.random.default_rng(6)
        p = rand_conv(rng, 2, 1, stride=(2, 2, 2), pad=(1, 1, 1), transposed=True)
        p.bias[:] = 0
        x = np.zeros((1, 2, 2, 3, 3))
        assert np.all(conv3d_transpose_ref(x, p) == 0)

    @pytest.mark.parametrize("stride,pad", [((1, 1, 1), (1, 1, 1)),
                                            ((2, 2, 2), (1, 1, 1)),
                                            ((1, 2, 2), (1, 1, 1)),
                                            ((2, 1, 1), (0, 1, 1))])
    def test_adjoint_identity(self, stride, pad):
        """<conv(x), y> == <x, conv_transpose(y)> with matched params.

        output_padding per axis recovers the exact pre-conv size (it only
        disambiguates the flooring in the forward shape arithmetic).
        """
        rng = np.random.default_rng(7)
        w = rng.standard_normal((2, 3, 3, 3, 3))
        fwd = Conv3dParams(w, np.zeros(2), stride=stride, padding=pad)
        x = rng.standard_normal((2, 3, 4, 6, 6))
        op = tuple((sz + 2 * p - 3) % s for sz, p, s in zip(x.shape[2:], pad, stride))
        adj = Conv3dParams(w, np.zeros(3), stride=stride, padding=pad, transposed=True,
                           output_padding=op)
        cx = conv3d_ref(x, fwd)
        y = rng.standard_normal(cx.shape)
        lhs = float(np.sum(cx * y))
        rhs = float(np.sum(x * conv3d_transpose_ref(y, adj)))
        assert abs(lhs - rhs) / max(1.0, abs(rhs)) < 1e-10


class TestFastPathAgreesWithRef:
    @pytest.mark.parametrize("seed", range(6))
    def test_forward_matches_ref_float32(self, seed):
        rng = np.random.default_rng(seed)
        c_in, c_out = rng.integers(1, 4, size=2)
        stride = tuple(int(s) for s in rng.integers(1, 3, size=3))
        p = rand_conv(rng, int(c_in), int(c_out), stride=stride, dtype=np.float32)
        x = rng.standard_normal((2, int(c_in), 4, 7, 6)).astype(np.float32)
        y_fast, _ = conv3d_forward(x, p)
        y_ref = conv3d_ref(x, p)
        np.testing.assert_allclose(y_fast, y_ref, rtol=1e-5, atol=1e-6)

    @pytest.mark.parametrize("seed", range(4))
    def test_transpose_forward_matches_ref(self, seed):
        rng = np.random.default_rng(100 + seed)
        stride = tuple(int(s) for s in rng.integers(1, 3, size=3))
        op = tuple(int(rng.integers(0, s)) for s in stride)
        p = rand_conv(rng, 2, 3, stride=stride, pad=(1, 1, 1), transposed=True,
                      output_padding=op)
        x = rng.standard_normal((1, 2, 3, 5, 4))
        y_fast, _ = conv3d_transpose_forward(x, p)
        y_ref = conv3d_transpose_ref(x, p)
        np.testing.assert_allclose(y_fast, y_ref, rtol=1e-10, atol=1e-12)

    def test_backward_input_grad_is_adjoint_transpose(self):
        """grad_x of the fast path must be the transposed conv of grad_y."""
        rng = np.random.default_rng(11)
        w = rng.standard_normal((2, 3, 3, 3, 3))
        fwd = Conv3dParams(w, np.zeros(2), stride=(1, 2, 2), padding=(1, 1, 1))
        x = rng.standard_normal((1, 3, 3, 8, 8))
        y, ctx = conv3d_forward(x, fwd)
        gy = rng.standard_normal(y.shape)
        gx, gw, gb = conv3d_backward(ctx, gy)
        adj = Conv3dParams(w, np.zeros(3), stride=(1, 2, 2), padding=(1, 1, 1),
                           transposed=True, output_padding=(0, 1, 1))
        np.testing.assert_allclose(gx, conv3d_transpose_ref(gy, adj),
                                    rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(gb, gy.sum(axis=(0, 2, 3, 4)))
        assert gw.shape == w.shape

    def test_transpose_backward_input_grad_is_forward_conv(self):
        rng = np.random.default_rng(12)
        w = rng.standard_normal((3, 2, 3, 3, 3))
        p = Conv3dParams(w, np.zeros(2), stride=(2, 1, 1), padding=(1, 1, 1),
                         transposed=True)
        x = rng.standard_normal((1, 3, 2, 5, 5))
        y, ctx = conv3d_transpose_forward(x, p)
        gy = rng.standard_normal(y.shape)
        gx, gw, gb = conv3d_transpose_backward(ctx, gy)
        gather = Conv3dParams(w, np.zeros(3), stride=(2, 1, 1), padding=(1, 1, 1))
        np.testing.assert_allclose(gx, conv3d_ref(gy, gather), rtol=1e-10, atol=1e-12)


def test_conv_out_shape_rejects_empty():
    with pytest.raises(ShapeError, match="empty"):
        conv_out_shape(2, 5, 1, 0, "H")


# --- properties of the fast route over random geometry --------------------

@st.composite
def geometries(draw):
    """Per axis (kernel, stride, pad, output_padding, odd input size), plus
    (N, C_in, C_out). A pad of K reaches the gather route's crop."""
    unit_stride = draw(st.booleans())  # the gather route runs only at stride 1
    axes = []
    for _ in range(3):
        k = draw(st.sampled_from([1, 3, 5]))
        s = 1 if unit_stride else draw(st.integers(1, 3))
        axes.append((k, s, draw(st.integers(0, k)), draw(st.integers(0, s - 1)),
                     draw(st.sampled_from([1, 3, 5, 7]))))
    n, c_in, c_out = draw(st.integers(1, 2)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    return tuple(zip(*axes)), (n, c_in, c_out)


def _conv_case(geom, seed):
    """A forward conv with random weight and bias and a valid input for it;
    the loop oracle's work is bounded to keep examples fast."""
    (kernel, stride, pad, _, size), (n, c_in, c_out) = geom
    assume(all(sz + 2 * p >= k for sz, p, k in zip(size, pad, kernel)))
    out = [conv_out_shape(sz, k, s, p) for sz, k, s, p in zip(size, kernel, stride, pad)]
    assume(n * c_out * np.prod(out) * np.prod(kernel) <= 20_000)
    rng = np.random.default_rng(seed)
    p = rand_conv(rng, c_in, c_out, kernel, stride, pad)
    return p, rng.standard_normal((n, c_in, *size)), rng


def _transpose_case(geom, seed):
    """A transposed conv with random weight and bias and a valid input for it."""
    (kernel, stride, pad, op, size), (n, c_in, c_out) = geom
    out = [conv_transpose_out_shape(*a) for a in zip(size, kernel, stride, pad, op)]
    assume(min(out) >= 1)
    assume(n * c_in * np.prod(size) * np.prod(kernel) <= 20_000)
    rng = np.random.default_rng(seed)
    p = rand_conv(rng, c_in, c_out, kernel, stride, pad, transposed=True, output_padding=op)
    return p, rng.standard_normal((n, c_in, *size)), rng


_ALL = (slice(None), slice(None))


def _tap_pairs(short_shape, long_shape, kernel, stride, padding):
    """Per tap j: index tuples (of w at j, short, long) over (T, H, W) for
    the pairs (q, q*s - p + j) of the definition sum with both ends in range."""
    for j in np.ndindex(*kernel):
        axes = []
        for q_n, l_n, s, p, jj in zip(short_shape, long_shape, stride, padding, j):
            q = np.arange(q_n)
            q = q[(q * s - p + jj >= 0) & (q * s - p + jj < l_n)]
            axes.append((q, q * s - p + jj))
        short, long_ = zip(*axes)
        yield _ALL + j, _ALL + np.ix_(*short), _ALL + np.ix_(*long_)


def conv_grads_by_definition(x, w, gy, stride, padding):
    """float64 gradients of y[n,o,q] = b[o] + sum_{i,j} w[o,i,j] x[n,i,q*s-p+j]."""
    gx, gw = np.zeros_like(x), np.zeros_like(w)
    for j, out, inp in _tap_pairs(gy.shape[2:], x.shape[2:], w.shape[2:], stride, padding):
        gw[j] = np.einsum("nothw,nithw->oi", gy[out], x[inp])
        gx[inp] += np.einsum("oi,nothw->nithw", w[j], gy[out])
    return gx, gw, gy.sum(axis=(0, 2, 3, 4))


def transpose_grads_by_definition(x, w, gy, stride, padding):
    """float64 gradients of y[n,b,q*s-p+j] += sum_a w[a,b,j] x[n,a,q] (+ bias)."""
    gx, gw = np.zeros_like(x), np.zeros_like(w)
    for j, inp, out in _tap_pairs(x.shape[2:], gy.shape[2:], w.shape[2:], stride, padding):
        gw[j] = np.einsum("nathw,nbthw->ab", x[inp], gy[out])
        gx[inp] += np.einsum("ab,nbthw->nathw", w[j], gy[out])
    return gx, gw, gy.sum(axis=(0, 2, 3, 4))


class TestFastRouteProperties:
    @settings(max_examples=60, deadline=None)
    @given(geom=geometries(), seed=st.integers(0, 2 ** 32 - 1))
    def test_forward_matches_ref(self, geom, seed):
        p, x, _ = _conv_case(geom, seed)
        np.testing.assert_allclose(conv3d_forward(x, p)[0], conv3d_ref(x, p),
                                   rtol=1e-10, atol=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(geom=geometries(), seed=st.integers(0, 2 ** 32 - 1))
    def test_transpose_forward_matches_ref(self, geom, seed):
        p, x, _ = _transpose_case(geom, seed)
        np.testing.assert_allclose(conv3d_transpose_forward(x, p)[0],
                                   conv3d_transpose_ref(x, p), rtol=1e-10, atol=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(geom=geometries(), seed=st.integers(0, 2 ** 32 - 1))
    def test_fast_paths_are_adjoint(self, geom, seed):
        """<conv(x), y> == <x, conv_transpose(y)> with one weight, zero bias."""
        p, x, rng = _conv_case(geom, seed)
        op = tuple((sz + 2 * pd - k) % s for sz, pd, k, s in
                   zip(x.shape[2:], p.padding, p.kernel, p.stride))
        adj = Conv3dParams(p.weight, np.zeros(p.in_channels), stride=p.stride,
                           padding=p.padding, transposed=True, output_padding=op)
        p.bias[:] = 0
        cx = conv3d_forward(x, p)[0]
        y = rng.standard_normal(cx.shape)
        cty = conv3d_transpose_forward(y, adj)[0]
        assert cty.shape == x.shape
        lhs, rhs = float(np.sum(cx * y)), float(np.sum(x * cty))
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))

    @settings(max_examples=60, deadline=None)
    @given(geom=geometries(), seed=st.integers(0, 2 ** 32 - 1))
    def test_backward_matches_definition(self, geom, seed):
        p, x, rng = _conv_case(geom, seed)
        y, ctx = conv3d_forward(x, p)
        gy = rng.standard_normal(y.shape)
        for fast, ref in zip(conv3d_backward(ctx, gy),
                             conv_grads_by_definition(x, p.weight, gy, p.stride, p.padding)):
            np.testing.assert_allclose(fast, ref, rtol=1e-10, atol=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(geom=geometries(), seed=st.integers(0, 2 ** 32 - 1))
    def test_transpose_backward_matches_definition(self, geom, seed):
        p, x, rng = _transpose_case(geom, seed)
        y, ctx = conv3d_transpose_forward(x, p)
        gy = rng.standard_normal(y.shape)
        for fast, ref in zip(conv3d_transpose_backward(ctx, gy),
                             transpose_grads_by_definition(x, p.weight, gy, p.stride,
                                                           p.padding)):
            np.testing.assert_allclose(fast, ref, rtol=1e-10, atol=1e-10)
