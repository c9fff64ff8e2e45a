"""Sampling-location maps: footprints, displacement, receptive-field containment."""

import csv
import warnings
from pathlib import Path

import numpy as np
import pytest

from ls3dconv.conv3d import Conv3dParams
from ls3dconv.errors import ShapeError
from ls3dconv.net import Conv3dLayer, NetworkSpec, build_net, make_ls3d_layer
from ls3dconv.viz import (SamplingMap, emit_map_image, receptive_field, sampling_map,
                          support_centroid, support_within)


def single_conv_model(rng, c=1):
    w = rng.standard_normal((c, c, 3, 3, 3))
    return Conv3dLayer(Conv3dParams(w, np.zeros(c), padding=(1, 1, 1)), "conv")


class TestSamplingMap:
    def test_plain_conv_footprint_is_3x3(self):
        rng = np.random.default_rng(0)
        model = single_conv_model(rng)
        x = rng.standard_normal((1, 1, 3, 9, 9))
        smap = sampling_map(model, x, (1, 4, 4))
        support = smap.maps > 0
        t, r, c = np.nonzero(support)
        assert set(t) == {0, 1, 2}  # all three tapped frames contribute
        assert r.min() == 3 and r.max() == 5
        assert c.min() == 3 and c.max() == 5

    def test_injected_offset_displaces_support_five_columns(self):
        rng = np.random.default_rng(1)
        layer = make_ls3d_layer(rng, channels=1, name="l", dtype=np.float64)
        layer.main.weight[:] = 1.0  # symmetric magnitudes, exact centroid
        layer.offset_branch.bias[1::2] = 5.0  # zero branch weights: column offsets of 5
        x = rng.standard_normal((1, 1, 3, 16, 16))
        center = sampling_map(layer, x, (1, 8, 8))
        for frame in range(3):
            r, c = support_centroid(center, frame)
            assert c - 8.0 == pytest.approx(5.0, abs=0.5)
            assert r - 8.0 == pytest.approx(0.0, abs=0.5)

    def test_zero_weight_net_flagged_all_zero(self):
        """The flag is the one report: `viz` prints it, the library does not warn."""
        rng = np.random.default_rng(2)
        model = single_conv_model(rng)
        model.params.weight[:] = 0
        x = rng.standard_normal((1, 1, 3, 9, 9))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            smap = sampling_map(model, x, (1, 4, 4))
        assert smap.all_zero
        assert np.all(smap.maps == 0)

    def test_out_of_range_coordinate_rejected(self):
        rng = np.random.default_rng(3)
        model = single_conv_model(rng)
        x = rng.standard_normal((1, 1, 3, 9, 9))
        with pytest.raises(ShapeError, match="out_coord"):
            sampling_map(model, x, (1, 4, 9))


class TestEmitMapImage:
    def test_constant_map_uniform_gray(self, tmp_path):
        smap = SamplingMap(np.full((1, 6, 6), 0.4), (0, 3, 3), 0.4)
        paths = emit_map_image(smap, tmp_path)
        assert paths[0] == f"{tmp_path}/sampling_frame0.pgm"
        assert Path(paths[0]).read_bytes() == b"P5\n6 6\n255\n" + b"\xff" * 36

    def test_single_peak_single_white_pixel(self, tmp_path):
        maps = np.zeros((1, 6, 6))
        maps[0, 2, 4] = 3.0
        smap = SamplingMap(maps, (0, 3, 3), 3.0)
        pixels = bytearray(36)
        pixels[2 * 6 + 4] = 255
        path = Path(emit_map_image(smap, tmp_path)[0])
        assert path.read_bytes() == b"P5\n6 6\n255\n" + pixels

    def test_csv_top1_is_argmax(self, tmp_path):
        rng = np.random.default_rng(4)
        maps = rng.uniform(0, 1, (2, 5, 5))
        smap = SamplingMap(maps, (0, 2, 2), float(maps.max()))
        paths = emit_map_image(smap, tmp_path)
        assert paths == [f"{tmp_path}/sampling_frame0.pgm", f"{tmp_path}/sampling_frame1.pgm",
                         f"{tmp_path}/sampling_top50.csv"]
        csv_path = paths[-1]
        with open(csv_path) as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 50
        top = rows[0]
        t, r, c = np.unravel_index(np.argmax(maps), maps.shape)
        assert (int(top["frame"]), int(top["row"]), int(top["col"])) == (t, r, c)


class TestReceptiveField:
    def test_single_conv_interval(self):
        rng = np.random.default_rng(5)
        model = single_conv_model(rng)

        class _OneLayerNet:
            def geometry(self):
                return [model.params]

        rf = receptive_field(_OneLayerNet(), (1, 1, 3, 9, 9), (1, 4, 4))
        assert rf == ((0, 2), (3, 5), (3, 5))

    def test_baseline_net_support_contained(self):
        """Zero-offset network: gradient support stays inside the analytic RF."""
        spec = NetworkSpec(channels=4, num_resblocks=2,
                           temporal_deconv_after=frozenset({1, 2}),
                           task="interpolate", dtype=np.float64)
        net = build_net(spec, seed=0)
        rng = np.random.default_rng(6)
        x = rng.standard_normal((1, 3, 2, 32, 32))
        out_coord = (2, 16, 16)
        smap = sampling_map(net, x, out_coord)
        rf = receptive_field(net, x.shape, out_coord)
        assert not smap.all_zero
        assert support_within(smap, rf)

    def test_ls3d_zero_offset_net_support_contained(self):
        spec = NetworkSpec(channels=4, num_resblocks=2,
                           ls3d_block_indices=frozenset({1, 2}),
                           temporal_deconv_after=frozenset({1, 2}),
                           task="interpolate", dtype=np.float64)
        net = build_net(spec, seed=1)
        rng = np.random.default_rng(7)
        x = rng.standard_normal((1, 3, 2, 32, 32))
        out_coord = (2, 16, 16)
        smap = sampling_map(net, x, out_coord)
        rf = receptive_field(net, x.shape, out_coord)
        assert support_within(smap, rf)

    def test_nonzero_offsets_can_escape_rf(self):
        """The contrast case: a large injected offset moves support outside."""
        rng = np.random.default_rng(8)
        layer = make_ls3d_layer(rng, channels=1, name="l", dtype=np.float64)
        layer.main.weight[:] = 1.0
        layer.offset_branch.bias[1::2] = 6.0

        class _OneLayerNet:
            def geometry(self):
                return [layer.main]

        x = rng.standard_normal((1, 1, 3, 16, 16))
        smap = sampling_map(layer, x, (1, 8, 8))
        rf = receptive_field(_OneLayerNet(), x.shape, (1, 8, 8))
        assert not support_within(smap, rf)
