"""Residual video networks built on the sampling convolution.

The interpolation network takes two RGB frames and emits five (the two
inputs plus three in-betweens): a spatial-downsampling encoder (two convs,
stride 1,2,2), six residual blocks whose first conv is either plain or
learnable-sampling, two temporal-upsampling transposed convs (stride
2,1,1, after blocks 2 and 4, so T goes 2 -> 3 -> 5), and a
spatial-upsampling decoder (two transposed convs, stride 1,2,2).

The denoise variant drops the temporal deconvs and preserves shape.

No autodiff tape: every layer saves what its own backward needs during a
keep-state forward (a ReLU only where its input was positive), and a
`Sequential` container (a residual block, the net) folds backward over
its layer list. A backward drops the state it used, and fills `.grads`:
a leaf's holds its own parameters' gradients, and a container moves its
parts' gradients into its own, leaving theirs empty, so each gradient
has one holder. `train_loop` empties the net's `.grads` after every
optimizer step, so that no gradient of one step is alive during the
next.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .conv3d import (Conv3dParams, conv3d_backward, conv3d_forward,
                     conv3d_transpose_backward, conv3d_transpose_forward)
from .errors import ConfigError, ShapeError
from .ls3d import Ls3dConv, num_taps
from .tensor import relu_backward

IN_CHANNELS = 3
# Every conv of the nets: 3x3x3, padded by 1 on each side, so that a
# stride-1 conv keeps T, H and W.
KERNEL = (3, 3, 3)
PADDING = (1, 1, 1)
# H and W must be multiples of this: the encoder's two stride-2 convs halve
# them, and the decoder's two doubles them back.
SIZE_MULTIPLE = 4


class Conv3dLayer:
    """Plain or transposed conv with saved-state backward."""

    def __init__(self, params: Conv3dParams, name: str):
        self.params = params
        self.name = name
        self.grads: dict[str, np.ndarray] = {}
        self._ctx = None

    def parameters(self) -> dict[str, np.ndarray]:
        return {f"{self.name}.weight": self.params.weight,
                f"{self.name}.bias": self.params.bias}

    def geometry(self) -> list[Conv3dParams]:
        return [self.params]

    def forward(self, x: np.ndarray, keep_state: bool = False) -> np.ndarray:
        fwd = conv3d_transpose_forward if self.params.transposed else conv3d_forward
        y, ctx = fwd(x, self.params)
        self._ctx = ctx if keep_state else None
        return y

    def backward(self, grad_y: np.ndarray) -> np.ndarray:
        if self._ctx is None:
            raise ShapeError(f"{self.name}: backward called without a keep-state forward")
        bwd = conv3d_transpose_backward if self.params.transposed else conv3d_backward
        grad_x, grad_w, grad_b = bwd(self._ctx, grad_y)
        self.grads = dict(zip(self.parameters(), (grad_w, grad_b), strict=True))
        self._ctx = None
        return grad_x


class ReluLayer:
    def __init__(self, name: str):
        self.name = name
        self.grads: dict[str, np.ndarray] = {}
        self._positive = None

    def parameters(self) -> dict[str, np.ndarray]:
        return {}

    def geometry(self) -> list[Conv3dParams]:
        return []

    def forward(self, x: np.ndarray, keep_state: bool = False) -> np.ndarray:
        self._positive = x > 0 if keep_state else None
        return np.maximum(x, 0)

    def backward(self, grad_y: np.ndarray) -> np.ndarray:
        if self._positive is None:
            raise ShapeError(f"{self.name}: backward called without a keep-state forward")
        grad_x = relu_backward(grad_y, self._positive)
        self._positive = None
        return grad_x


class Sequential:
    """Layers run in order forward and in reverse backward.

    Parameters, gradients and geometry are those of its layers, in order.
    """

    def __init__(self, layers: list, name: str):
        self.layers = layers
        self.name = name
        self.grads: dict[str, np.ndarray] = {}

    def parameters(self) -> dict[str, np.ndarray]:
        out: dict[str, np.ndarray] = {}
        for layer in self.layers:
            out.update(layer.parameters())
        return out

    def forward(self, x: np.ndarray, keep_state: bool = False) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x, keep_state)
        return x

    def backward(self, grad_y: np.ndarray) -> np.ndarray:
        self.grads = {}
        for layer in reversed(self.layers):
            grad_y = layer.backward(grad_y)
            self.grads.update(layer.grads)
            layer.grads = {}
        return grad_y

    def geometry(self) -> list[Conv3dParams]:
        """The params of every conv on the data path, outermost first; walk
        them with `Conv3dParams.output_shape` for each stage's size, as the
        analytic receptive field does. A residual block contributes its two
        convs (the skip's footprint is a subset)."""
        return [params for layer in self.layers for params in layer.geometry()]

    def walk(self):
        """Every nested layer once, depth first, in forward order."""
        for layer in self.layers:
            yield layer
            if isinstance(layer, Sequential):
                yield from layer.walk()


class ResBlock(Sequential):
    """first conv (plain or sampling) -> relu -> plain conv, plus skip.

    The skip bypasses every activation, so zeroing both convs makes the
    block an exact identity.
    """

    def __init__(self, first, second: Conv3dLayer, name: str):
        self.first = first
        super().__init__([first, ReluLayer(f"{name}.relu"), second], name)

    def forward(self, x: np.ndarray, keep_state: bool = False) -> np.ndarray:
        return x + super().forward(x, keep_state)

    def backward(self, grad_y: np.ndarray) -> np.ndarray:
        return grad_y + super().backward(grad_y)


@dataclass
class NetworkSpec:
    """Declarative description of one network variant."""

    channels: int = 32
    num_resblocks: int = 6
    ls3d_block_indices: frozenset[int] = frozenset()
    temporal_deconv_after: frozenset[int] | None = None  # None: decided by the task
    task: str = "interpolate"
    dtype: type = np.float32

    def __post_init__(self):
        if self.task not in ("interpolate", "denoise"):
            raise ConfigError(f"task must be 'interpolate' or 'denoise', got '{self.task}'")
        if self.temporal_deconv_after is None:
            # Interpolation grows T 2 -> 3 -> 5; denoising keeps T.
            self.temporal_deconv_after = {2, 4} if self.task == "interpolate" else ()
        self.ls3d_block_indices = frozenset(self.ls3d_block_indices)
        self.temporal_deconv_after = frozenset(self.temporal_deconv_after)
        if self.channels < 1 or self.num_resblocks < 1:
            raise ConfigError("channels and num_resblocks must be positive")
        blocks = set(range(1, self.num_resblocks + 1))
        if not self.ls3d_block_indices <= blocks:
            raise ConfigError(f"ls3d_block_indices {sorted(self.ls3d_block_indices)} "
                              f"not within 1..{self.num_resblocks}")
        if not self.temporal_deconv_after <= blocks:
            raise ConfigError(f"temporal_deconv_after {sorted(self.temporal_deconv_after)} "
                              f"not within 1..{self.num_resblocks}")
        if self.task == "denoise" and self.temporal_deconv_after:
            raise ConfigError("denoise task must not use temporal deconvs "
                              "(temporal size is preserved)")


def _conv(rng, c_in, c_out, stride, dtype, transposed=False, output_padding=(0, 0, 0),
          zero=False):
    shape = (c_in, c_out, *KERNEL) if transposed else (c_out, c_in, *KERNEL)
    if zero:
        weight = np.zeros(shape, dtype=dtype)
    else:
        # Fan-in of the receiving unit: input channels times kernel volume.
        fan_in = (shape[0] if transposed else shape[1]) * int(np.prod(KERNEL))
        bound = 1.0 / np.sqrt(fan_in)
        weight = rng.uniform(-bound, bound, size=shape).astype(dtype)
    bias = np.zeros(c_out, dtype=dtype)
    return Conv3dParams(weight, bias, stride=stride, padding=PADDING,
                        transposed=transposed, output_padding=output_padding)


def make_ls3d_layer(rng, channels: int, name: str, dtype=np.float32,
                    random_branches: bool = False) -> Ls3dConv:
    """One sampling conv with a zero-initialized (or small random) branch
    conv: 2*taps offset channels, then taps mask logits."""
    main = _conv(rng, channels, channels, (1, 1, 1), dtype)
    branches = _conv(rng, channels, 3 * num_taps(KERNEL), (1, 1, 1), dtype,
                     zero=not random_branches)
    if random_branches:
        branches.weight *= 0.1
    return Ls3dConv(main, branches, name=name)


class VINet(Sequential):
    """Sequential network with per-task input contracts."""

    def __init__(self, spec: NetworkSpec, layers: list):
        super().__init__(layers, "net")
        self.spec = spec

    def _check_input(self, x: np.ndarray) -> None:
        if x.ndim != 5 or x.shape[1] != IN_CHANNELS:
            raise ShapeError(f"input must be (N, {IN_CHANNELS}, T, H, W), got {x.shape}")
        n_, _, t_, h, w = x.shape
        if h % SIZE_MULTIPLE or w % SIZE_MULTIPLE:
            raise ShapeError(f"H and W must be divisible by {SIZE_MULTIPLE} (two stride-2 "
                             f"stages), got H={h}, W={w}")
        if self.spec.task == "interpolate" and t_ != 2:
            raise ShapeError(f"interpolation expects T=2 input frames, got T={t_}")

    def forward(self, x: np.ndarray, keep_state: bool = False) -> np.ndarray:
        self._check_input(x)
        return super().forward(x, keep_state)


def build_net(spec: NetworkSpec, seed: int) -> VINet:
    """Deterministic construction: same (spec, seed) gives identical weights."""
    rng = np.random.default_rng(seed)
    c = spec.channels
    dt = spec.dtype
    layers: list = []

    layers.append(Conv3dLayer(_conv(rng, IN_CHANNELS, c, (1, 2, 2), dt), "enc1"))
    layers.append(ReluLayer("enc1.relu"))
    layers.append(Conv3dLayer(_conv(rng, c, c, (1, 2, 2), dt), "enc2"))
    layers.append(ReluLayer("enc2.relu"))

    n_tdeconv = 0
    for i in range(1, spec.num_resblocks + 1):
        name = f"block{i}"
        if i in spec.ls3d_block_indices:
            first = make_ls3d_layer(rng, c, f"{name}.conv1", dt)
        else:
            first = Conv3dLayer(_conv(rng, c, c, (1, 1, 1), dt), f"{name}.conv1")
        second = Conv3dLayer(_conv(rng, c, c, (1, 1, 1), dt), f"{name}.conv2")
        layers.append(ResBlock(first, second, name))
        if i in spec.temporal_deconv_after:
            n_tdeconv += 1
            layers.append(Conv3dLayer(_conv(rng, c, c, (2, 1, 1), dt, transposed=True),
                                      f"tdeconv{n_tdeconv}"))
            layers.append(ReluLayer(f"tdeconv{n_tdeconv}.relu"))

    layers.append(Conv3dLayer(_conv(rng, c, c, (1, 2, 2), dt, transposed=True,
                                    output_padding=(0, 1, 1)), "dec1"))
    layers.append(ReluLayer("dec1.relu"))
    layers.append(Conv3dLayer(_conv(rng, c, IN_CHANNELS, (1, 2, 2), dt, transposed=True,
                                    output_padding=(0, 1, 1)), "dec2"))
    return VINet(spec, layers)
