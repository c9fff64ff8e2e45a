"""Network assembly, shape contracts, and end-to-end gradients."""

import numpy as np
import pytest

from ls3dconv.conv3d import conv3d_ref, conv3d_transpose_ref
from ls3dconv.errors import ConfigError, ShapeError
from ls3dconv.gradcheck import gradcheck
from ls3dconv.ls3d import Ls3dConv
from ls3dconv.net import Conv3dLayer, NetworkSpec, ResBlock, VINet, build_net


def tiny_spec(**kw):
    base = dict(channels=4, num_resblocks=2, ls3d_block_indices=frozenset(),
                temporal_deconv_after=frozenset({1}), task="interpolate",
                dtype=np.float64)
    base.update(kw)
    return NetworkSpec(**base)


class TestSpecValidation:
    def test_defaults_are_valid(self):
        spec = NetworkSpec()
        assert spec.num_resblocks == 6 and spec.temporal_deconv_after == {2, 4}

    def test_ls3d_indices_out_of_range(self):
        with pytest.raises(ConfigError, match="ls3d_block_indices"):
            NetworkSpec(num_resblocks=4, ls3d_block_indices=frozenset({5}))

    def test_denoise_forbids_temporal_deconvs(self):
        with pytest.raises(ConfigError, match="denoise"):
            NetworkSpec(task="denoise", temporal_deconv_after=frozenset({2}))

    def test_denoise_default_has_no_deconvs(self):
        spec = NetworkSpec(channels=4, task="denoise")
        assert spec.temporal_deconv_after == frozenset()
        net = build_net(spec, seed=0)
        assert not any(layer.name.startswith("tdeconv") for layer in net.layers)

    def test_unknown_task(self):
        with pytest.raises(ConfigError, match="task"):
            NetworkSpec(task="superres")


class TestBuildNet:
    def test_ls3d_block_count(self):
        net = build_net(NetworkSpec(ls3d_block_indices=frozenset(range(1, 7))), seed=0)
        firsts = [l.first for l in net.layers if isinstance(l, ResBlock)]
        assert len(firsts) == 6
        assert all(isinstance(f, Ls3dConv) for f in firsts)

    def test_baseline_has_no_ls3d(self):
        net = build_net(NetworkSpec(ls3d_block_indices=frozenset()), seed=0)
        firsts = [l.first for l in net.layers if isinstance(l, ResBlock)]
        assert all(isinstance(f, Conv3dLayer) for f in firsts)

    def test_same_seed_bit_identical(self):
        a = build_net(NetworkSpec(ls3d_block_indices=frozenset({5, 6})), seed=7)
        b = build_net(NetworkSpec(ls3d_block_indices=frozenset({5, 6})), seed=7)
        for (ka, va), (kb, vb) in zip(a.parameters().items(), b.parameters().items()):
            assert ka == kb
            np.testing.assert_array_equal(va, vb)

    def test_different_seed_differs(self):
        a = build_net(NetworkSpec(), seed=0)
        b = build_net(NetworkSpec(), seed=1)
        assert any(not np.array_equal(va, vb)
                   for va, vb in zip(a.parameters().values(), b.parameters().values()))

    def test_branches_start_at_zero(self):
        net = build_net(NetworkSpec(ls3d_block_indices=frozenset({1})), seed=0)
        block = next(l for l in net.layers if isinstance(l, ResBlock))
        assert np.all(block.first.offset_branch.weight == 0)
        assert np.all(block.first.mask_branch.weight == 0)


class TestWalk:
    def test_every_layer_once_in_forward_order(self):
        net = build_net(NetworkSpec(ls3d_block_indices=frozenset(range(1, 7))), seed=0)
        names = [layer.name for layer in net.walk()]
        expected = ["enc1", "enc1.relu", "enc2", "enc2.relu"]
        for i in range(1, 7):
            expected += [f"block{i}", f"block{i}.conv1", f"block{i}.relu", f"block{i}.conv2"]
            if i in (2, 4):
                expected += [f"tdeconv{i // 2}", f"tdeconv{i // 2}.relu"]
        expected += ["dec1", "dec1.relu", "dec2"]
        assert names == expected
        assert len({id(layer) for layer in net.walk()}) == len(expected)
        assert sum(isinstance(layer, Ls3dConv) for layer in net.walk()) == 6

    @pytest.mark.parametrize("blocks", [frozenset(), frozenset({2, 5}), frozenset(range(1, 7))])
    def test_ls3d_layers_are_block_firsts(self, blocks):
        """perfbench finds the LS3D layers as `getattr(layer, "first", None)`
        of the net's top-level layers; `walk()` must find the same ones."""
        net = build_net(NetworkSpec(channels=4, ls3d_block_indices=blocks), seed=0)
        walked = [layer for layer in net.walk() if isinstance(layer, Ls3dConv)]
        firsts = [getattr(layer, "first", None) for layer in net.layers]
        assert walked == [f for f in firsts if isinstance(f, Ls3dConv)]
        assert len(walked) == len(blocks)


class TestShapeContracts:
    @pytest.mark.parametrize("hw", [32, 48, 64])
    def test_interpolation_2_to_5_frames(self, hw):
        net = build_net(tiny_spec(temporal_deconv_after=frozenset({1, 2})), seed=0)
        x = np.zeros((1, 3, 2, hw, hw), dtype=np.float64)
        y = net.forward(x)
        assert y.shape == (1, 3, 5, hw, hw)

    def test_denoise_shape_preserving(self):
        net = build_net(tiny_spec(task="denoise", temporal_deconv_after=frozenset()),
                        seed=0)
        x = np.zeros((2, 3, 3, 32, 32), dtype=np.float64)
        assert net.forward(x).shape == x.shape

    @pytest.mark.parametrize("task, t_in", [("interpolate", 2), ("denoise", 5)])
    def test_geometry_walk_matches_forward(self, task, t_in):
        """Walking `geometry()` with `output_shape` gives the shape a real
        forward returns, LS3D blocks and temporal deconvs included."""
        net = build_net(NetworkSpec(channels=4, ls3d_block_indices=frozenset({3}), task=task),
                        seed=0)
        x = np.zeros((1, 3, t_in, 16, 24), dtype=np.float32)
        shape = x.shape[2:]
        for params in net.geometry():
            shape = params.output_shape(shape)
        assert shape == net.forward(x).shape[2:]
        assert len(net.geometry()) == 4 + 2 * 6 + (2 if task == "interpolate" else 0)

    def test_indivisible_hw_rejected(self):
        net = build_net(tiny_spec(), seed=0)
        with pytest.raises(ShapeError, match="divisible"):
            net.forward(np.zeros((1, 3, 2, 30, 32), dtype=np.float64))

    def test_wrong_t_for_interpolation_rejected(self):
        net = build_net(tiny_spec(), seed=0)
        with pytest.raises(ShapeError, match="T="):
            net.forward(np.zeros((1, 3, 3, 32, 32), dtype=np.float64))

    def test_zero_network_zero_output(self):
        net = build_net(tiny_spec(temporal_deconv_after=frozenset({1, 2})), seed=0)
        for p in net.parameters().values():
            p[:] = 0
        x = np.random.default_rng(0).standard_normal((1, 3, 2, 32, 32))
        assert np.all(net.forward(x) == 0)


class TestResidualIdentity:
    def test_zeroed_block_is_identity(self):
        rng = np.random.default_rng(0)
        net = build_net(tiny_spec(ls3d_block_indices=frozenset({1})), seed=0)
        block = next(l for l in net.layers if isinstance(l, ResBlock))
        for p in block.parameters().values():
            p[:] = 0
        x = rng.standard_normal((1, 4, 2, 6, 6))
        np.testing.assert_array_equal(block.forward(x), x)


class TestAgainstHandAssembly:
    def test_matches_manual_conv_chain(self):
        """Baseline net == explicitly composed reference convs, exactly."""
        spec = tiny_spec(temporal_deconv_after=frozenset({2}))
        net = build_net(spec, seed=3)
        rng = np.random.default_rng(1)
        x = rng.standard_normal((1, 3, 2, 8, 8))

        y = x
        for layer in net.layers:
            if isinstance(layer, Conv3dLayer):
                ref = conv3d_transpose_ref if layer.params.transposed else conv3d_ref
                y = ref(y, layer.params)
            elif isinstance(layer, ResBlock):
                a = conv3d_ref(y, layer.first.params)
                b = conv3d_ref(np.maximum(a, 0), layer.second.params)
                y = y + b
            else:
                y = np.maximum(y, 0)

        np.testing.assert_allclose(net.forward(x), y, rtol=1e-9, atol=1e-10)


class TestNetBackward:
    def test_backward_without_state_raises(self):
        net = build_net(tiny_spec(), seed=0)
        with pytest.raises(ShapeError, match="state"):
            net.backward(np.zeros((1, 3, 5, 32, 32)))

    def test_doubling_grad_out_doubles_param_grads(self):
        net = build_net(tiny_spec(temporal_deconv_after=frozenset({1, 2}),
                                  ls3d_block_indices=frozenset({2})), seed=0)
        rng = np.random.default_rng(2)
        x = rng.standard_normal((1, 3, 2, 16, 16))
        gy = rng.standard_normal((1, 3, 5, 16, 16))
        net.forward(x, keep_state=True)
        net.backward(gy)
        g1 = {k: v.copy() for k, v in net.grads.items()}
        net.forward(x, keep_state=True)
        net.backward(2.0 * gy)
        for k, v in net.grads.items():
            np.testing.assert_allclose(v, 2.0 * g1[k], rtol=1e-12, atol=1e-12)

    def test_residual_gradient_sums_both_paths(self):
        rng = np.random.default_rng(3)
        net = build_net(tiny_spec(), seed=1)
        block = next(l for l in net.layers if isinstance(l, ResBlock))
        x = rng.standard_normal((1, 4, 2, 6, 6))
        block.forward(x, keep_state=True)
        gy = rng.standard_normal(x.shape)
        gx = block.backward(gy)
        # With zeroed convs the block is the identity, so gx == gy exactly.
        for p in block.parameters().values():
            p[:] = 0
        block.forward(x, keep_state=True)
        np.testing.assert_array_equal(block.backward(gy), gy)
        assert gx.shape == gy.shape

    def test_each_gradient_has_one_holder(self):
        """After a backward the net holds every parameter's gradient, under
        the parameter's name, and no layer inside it holds any."""
        net = build_net(tiny_spec(temporal_deconv_after=frozenset({1, 2}),
                                  ls3d_block_indices=frozenset({1, 2})), seed=0)
        rng = np.random.default_rng(6)
        net.forward(rng.standard_normal((1, 3, 2, 16, 16)), keep_state=True)
        net.backward(rng.standard_normal((1, 3, 5, 16, 16)))
        assert sorted(net.grads) == sorted(net.parameters())
        assert all(layer.grads == {} for layer in net.walk())

    def test_end_to_end_gradcheck_tiny_net(self):
        """Whole-net analytic gradients vs central differences at 64-bit.

        Every zero-initialized parameter (branch weights AND biases) gets a
        small random value first: exact zeros put activations directly on
        the relu kink, where a finite difference probes the subgradient
        convention instead of the derivative.
        """
        spec = tiny_spec(temporal_deconv_after=frozenset({1, 2}),
                         ls3d_block_indices=frozenset({2}))
        net = build_net(spec, seed=0)
        rng = np.random.default_rng(4)
        for name, p in net.parameters().items():
            if np.all(p == 0):
                p += 0.1 * rng.standard_normal(p.shape)
        for layer in net.walk():
            if isinstance(layer, Ls3dConv):
                layer.offset_shift = 0.3
        x = rng.standard_normal((1, 3, 2, 8, 8))
        assert gradcheck(net, x, seed=5, max_entries_per_tensor=40) < 1e-4
