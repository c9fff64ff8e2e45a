"""Tensor contract, elementwise ops, and PGM images."""

import numpy as np
import pytest

from ls3dconv.errors import ShapeError
from ls3dconv.fileio import write_pgm
from ls3dconv.tensor import check_same_shape, check_tensor5, relu_backward, sigmoid


class TestTensor5:
    def test_empty_dimension_rejected(self):
        with pytest.raises(ShapeError, match="T"):
            check_tensor5(np.zeros((1, 1, 0, 2, 2), dtype=np.float32))

    def test_wrong_rank_rejected(self):
        with pytest.raises(ShapeError, match="5-D"):
            check_tensor5(np.zeros((2, 2), dtype=np.float32))

    def test_wrong_dtype_rejected(self):
        with pytest.raises(ShapeError, match="dtype"):
            check_tensor5(np.zeros((1, 1, 1, 1, 1), dtype=np.int32))

    def test_shape_mismatch_names_axis(self):
        a = np.zeros((1, 1, 1, 1, 2), dtype=np.float32)
        b = np.zeros((1, 1, 1, 1, 3), dtype=np.float32)
        with pytest.raises(ShapeError, match="W"):
            check_same_shape(a, b, "sub")

    @pytest.mark.parametrize("seed", range(5))
    def test_index_bijectivity(self, seed):
        """(n,c,t,h,w) <-> flat offset is a bijection for random shapes."""
        rng = np.random.default_rng(seed)
        shape = tuple(int(s) for s in rng.integers(1, 5, size=5))
        x = np.arange(np.prod(shape), dtype=np.float64).reshape(shape)
        idx = tuple(int(rng.integers(0, s)) for s in shape)
        flat = int(np.ravel_multi_index(idx, shape))
        assert x[idx] == flat
        assert np.unravel_index(flat, shape) == idx


class TestElementwise:
    def test_relu_backward_masks_nonpositive(self):
        x = np.array([-1.0, 0.0, 2.0])
        g = np.array([5.0, 5.0, 5.0])
        np.testing.assert_array_equal(relu_backward(g, x > 0), [0, 0, 5])

    def test_sigmoid_extremes_stay_finite(self):
        x = np.array([-1e4, 0.0, 1e4], dtype=np.float32)
        s = sigmoid(x)
        assert np.all(np.isfinite(s))
        np.testing.assert_allclose(s, [0.0, 0.5, 1.0], atol=1e-6)

    @pytest.mark.parametrize("dtype, bits", [(np.float32, np.uint32), (np.float64, np.uint64)])
    def test_sigmoid_matches_split_by_sign_bitwise(self, dtype, bits):
        """Bit for bit the split-by-sign form, over random finite bit
        patterns, the extremes, signed zeros and infinities; NaN stays NaN."""
        def split_by_sign(a):
            out = np.empty_like(a)
            pos = a >= 0
            out[pos] = 1.0 / (1.0 + np.exp(-a[pos]))
            e = np.exp(a[~pos])
            out[~pos] = e / (1.0 + e)
            return out

        rng = np.random.default_rng(0)
        fi = np.finfo(dtype)
        special = np.array([0.0, fi.smallest_subnormal, fi.tiny, 1e-8, 1.0, 17.0, 88.7, 89.0,
                            709.0, 710.0, 1e30, fi.max, np.inf], dtype=dtype)
        patterns = rng.integers(0, np.iinfo(bits).max, 1_000_000, dtype=bits,
                                endpoint=True).view(dtype)
        a = np.concatenate([patterns[np.isfinite(patterns)],
                            (rng.standard_normal(200_000) * 20).astype(dtype), special, -special])
        s = sigmoid(a)
        assert s.dtype == dtype
        np.testing.assert_array_equal(s.view(bits), split_by_sign(a).view(bits))
        assert np.isnan(sigmoid(np.array([np.nan], dtype=dtype)))


class TestPgm:
    """The exact bytes: the P5 header `P5\\n<width> <height>\\n255\\n`, then
    one byte per pixel, row by row."""

    def test_unit_interval_bytes(self, tmp_path):
        img = np.array([[0.0, 0.5], [1.0, 2.0]])
        p = tmp_path / "img.pgm"
        write_pgm(p, img)
        # 1 maps to white and 2 is clipped to it; 0.5 * 255 rounds to 128.
        assert p.read_bytes() == b"P5\n2 2\n255\n" + bytes([0, 128, 255, 255])

    def test_constant_map_is_uniform(self, tmp_path):
        p = tmp_path / "const.pgm"
        write_pgm(p, np.full((3, 4), 0.7))
        # 0.7 * 255 = 178.5 rounds to the even 178.
        assert p.read_bytes() == b"P5\n4 3\n255\n" + bytes([178]) * 12

    @pytest.mark.parametrize("shape", [(4,), (2, 3, 4)])
    def test_non_2d_array_is_shape_error(self, tmp_path, shape):
        p = tmp_path / "img.pgm"
        with pytest.raises(ShapeError, match="2-D"):
            write_pgm(p, np.zeros(shape))
        assert not p.exists()
