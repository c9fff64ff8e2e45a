"""Plain 3D convolution and transposed convolution.

Two routes exist on purpose:

* ``conv3d_ref`` / ``conv3d_transpose_ref``: direct nested-loop
  implementations of the definition sums. Slow, obvious, and used as the
  correctness oracle for everything faster.
* ``conv3d_forward`` / ``conv3d_transpose_forward`` (+ backwards): the
  gathered im2col route used by the network code. Must agree with the
  reference route to float tolerance; the tests enforce that.

The gathered route lays the zero-padded input out channels last,
(N, T, H, W, C), and copies one contiguous column matrix
(N*To*Ho*Wo, K*C) out of a strided view of it: one row per output point,
tap-major then channel, so the copy moves runs of K_w*C values. Every
product is then one 2-D GEMM: the conv forward, both weight gradients
(columns.T @ grad) and the transposed conv's input gradient. The conv's
input gradient and the transposed forward are the same adjoint. At
stride 1 that adjoint is the same gather, over the other tensor padded
by K-1-p, with the kernel flipped and its channel axes swapped. At a
larger stride (the encoder's input gradients, the decoder's and the
temporal deconvs' forwards) it is an overlap-add: one GEMM forms every
(input point, tap) product, channels last, and one call of scipy's
compiled CSR kernel `csr_matvecs` sums onto each output point the
products that land there, in ascending tap order. The CSR index arrays
depend only on the geometry and are built once per geometry.

The kernel comes from scipy's `scipy/sparse/_sparsetools` extension,
loaded from its file at the first call that needs it (a stride > 1
adjoint, or any LS3D call) and cached in this module: importing
`scipy.sparse` itself would load all of scipy.sparse for the two
functions used, `csr_matvecs` here and `csc_matvecs` in LS3D.

`Conv3dParams.output_shape` is the one place a conv's output size is
worked out: the four entry points, `viz.receptive_field` and `bench` all
call it.

Convolution means cross-correlation (no kernel flip) with zero padding.
Weight layout is (C_out, C_in, K_t, K_h, K_w) for forward convolutions.
A transposed layer reuses the same layout with axis 0 = its input channels
and axis 1 = its output channels, so that with literally identical params
the two ops are adjoint: <conv(x), y> == <x, conv_transpose(y)>.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import os
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ShapeError
from .tensor import check_tensor5

Triple = tuple[int, int, int]

# The oldest scipy whose sparse kernels this module was tested with.
SCIPY_MIN = "1.17.1"

# scipy's compiled sparse kernels, once loaded by `_sparsetools`.
_SPARSETOOLS = None


def _sparsetools():
    """scipy's `_sparsetools` extension module, loaded from its file alone
    on first use (no `import scipy.sparse`) and cached.

    Raises ImportError naming the scipy found when it or its kernels are
    missing.
    """
    global _SPARSETOOLS
    if _SPARSETOOLS is None:
        spec = importlib.util.find_spec("scipy")
        folders = (spec.submodule_search_locations or []) if spec else []
        paths = [os.path.join(folder, "sparse", "_sparsetools" + suffix)
                 for folder in folders for suffix in importlib.machinery.EXTENSION_SUFFIXES]
        found = next((path for path in paths if os.path.isfile(path)), None)
        module = None
        if found is not None:
            file_spec = importlib.util.spec_from_file_location("scipy.sparse._sparsetools", found)
            module = importlib.util.module_from_spec(file_spec)
            file_spec.loader.exec_module(module)
        if not all(hasattr(module, fn) for fn in ("csr_matvecs", "csc_matvecs")):
            # Imported here only: it pulls in 1.7 MB of modules.
            from importlib import metadata
            try:
                version = metadata.version("scipy")
            except metadata.PackageNotFoundError:
                version = "none"
            raise ImportError(f"ls3dconv needs scipy >= {SCIPY_MIN} for its compiled sparse "
                              f"kernels (scipy/sparse/_sparsetools with csr_matvecs and "
                              f"csc_matvecs); found scipy {version}")
        _SPARSETOOLS = module
    return _SPARSETOOLS


@dataclass
class Conv3dParams:
    """Weights and geometry for one (possibly transposed) 3D convolution."""

    weight: np.ndarray                 # (C_out, C_in, K_t, K_h, K_w); transposed: (C_in, C_out, ...)
    bias: np.ndarray                   # (output channels,)
    stride: Triple = (1, 1, 1)
    padding: Triple = (0, 0, 0)
    transposed: bool = False
    output_padding: Triple = (0, 0, 0)  # used only when transposed

    def __post_init__(self):
        if self.weight.ndim != 5:
            raise ShapeError(f"conv weight must be 5-D, got shape {self.weight.shape}")
        if self.bias.ndim != 1 or self.bias.shape[0] != self.out_channels:
            raise ShapeError(f"bias length {self.bias.shape} does not match "
                             f"{self.out_channels} output channels")
        if not self.transposed:
            for name, k in zip("THW", self.kernel):
                if k % 2 != 1:
                    raise ShapeError(f"kernel K_{name} must be odd for forward conv, got {k}")
        for name, s in zip("THW", self.stride):
            if s < 1:
                raise ShapeError(f"stride s_{name} must be >= 1, got {s}")
        if self.transposed:
            for name, (o, s) in zip("THW", zip(self.output_padding, self.stride)):
                if not 0 <= o < s:
                    raise ShapeError(f"output_padding o_{name}={o} must satisfy 0 <= o < stride={s}")

    @property
    def kernel(self) -> Triple:
        return tuple(self.weight.shape[2:])

    @property
    def in_channels(self) -> int:
        return self.weight.shape[0] if self.transposed else self.weight.shape[1]

    @property
    def out_channels(self) -> int:
        return self.weight.shape[1] if self.transposed else self.weight.shape[0]

    def output_shape(self, in_shape) -> Triple:
        """Output (T, H, W) for an input of (T, H, W) `in_shape`, per axis
        (size + 2p - k) // s + 1, or (size - 1)*s - 2p + k + output_padding
        when transposed. Raises ShapeError if an axis would be empty."""
        out = []
        for name, size, k, s, p, op in zip("THW", in_shape, self.kernel, self.stride,
                                          self.padding, self.output_padding):
            o = (size - 1) * s - 2 * p + k + op if self.transposed else (size + 2 * p - k) // s + 1
            if o < 1:
                kind = "transposed conv" if self.transposed else "conv"
                raise ShapeError(f"{kind} output along {name} would be empty: "
                                 f"size={size}, kernel={k}, stride={s}, pad={p}")
            out.append(o)
        return tuple(out)


def _check_input(x: np.ndarray, params: Conv3dParams, op: str) -> None:
    check_tensor5(x, op)
    if x.shape[1] != params.in_channels:
        raise ShapeError(f"{op}: input has C={x.shape[1]} channels, "
                         f"params expect C_in={params.in_channels}")


# --- reference route ------------------------------------------------------

def conv3d_ref(x: np.ndarray, params: Conv3dParams) -> np.ndarray:
    """Direct-loop cross-correlation; the oracle for all fast paths."""
    if params.transposed:
        raise ShapeError("conv3d_ref: params are transposed, use conv3d_transpose_ref")
    _check_input(x, params, "conv3d_ref")
    n_, c_in, t_in, h_in, w_in = x.shape
    kt, kh, kw = params.kernel
    st, sh, sw = params.stride
    pt, ph, pw = params.padding
    t_out, h_out, w_out = params.output_shape(x.shape[2:])
    weight = params.weight
    y = np.zeros((n_, params.out_channels, t_out, h_out, w_out), dtype=x.dtype)
    for n in range(n_):
        for co in range(params.out_channels):
            for ot in range(t_out):
                for oh in range(h_out):
                    for ow in range(w_out):
                        acc = params.bias[co]
                        for jt in range(kt):
                            it = ot * st - pt + jt
                            if not 0 <= it < t_in:
                                continue
                            for jh in range(kh):
                                ih = oh * sh - ph + jh
                                if not 0 <= ih < h_in:
                                    continue
                                for jw in range(kw):
                                    iw = ow * sw - pw + jw
                                    if not 0 <= iw < w_in:
                                        continue
                                    acc = acc + np.dot(weight[co, :, jt, jh, jw], x[n, :, it, ih, iw])
                        y[n, co, ot, oh, ow] = acc
    return y


def conv3d_transpose_ref(x: np.ndarray, params: Conv3dParams) -> np.ndarray:
    """Direct-loop scatter ("deconvolution"); adjoint of conv3d_ref."""
    if not params.transposed:
        raise ShapeError("conv3d_transpose_ref: params.transposed must be true")
    _check_input(x, params, "conv3d_transpose_ref")
    n_, c_in, t_in, h_in, w_in = x.shape
    kt, kh, kw = params.kernel
    st, sh, sw = params.stride
    pt, ph, pw = params.padding
    ot_, oh_, ow_ = params.output_shape(x.shape[2:])
    weight = params.weight
    y = np.zeros((n_, params.out_channels, ot_, oh_, ow_), dtype=x.dtype)
    for n in range(n_):
        for ci in range(c_in):
            for t in range(t_in):
                for h in range(h_in):
                    for w in range(w_in):
                        v = x[n, ci, t, h, w]
                        for jt in range(kt):
                            ot = t * st - pt + jt
                            if not 0 <= ot < ot_:
                                continue
                            for jh in range(kh):
                                oh = h * sh - ph + jh
                                if not 0 <= oh < oh_:
                                    continue
                                for jw in range(kw):
                                    ow = w * sw - pw + jw
                                    if not 0 <= ow < ow_:
                                        continue
                                    y[n, :, ot, oh, ow] += weight[ci, :, jt, jh, jw] * v
    y += params.bias[None, :, None, None, None].astype(y.dtype)
    return y


# --- gathered (im2col) route ----------------------------------------------

def _channels_last(f: np.ndarray) -> np.ndarray:
    """(N, C, T, H, W) -> (N*T*H*W, C)."""
    return f.transpose(0, 2, 3, 4, 1).reshape(-1, f.shape[1])


def _channels_first(f: np.ndarray, shape) -> np.ndarray:
    """(N*T*H*W, C) -> contiguous (N, C, T, H, W) for shape (N, T, H, W)."""
    return np.ascontiguousarray(f.reshape(*shape, -1).transpose(0, 4, 1, 2, 3))


def _gemm_weight(weight: np.ndarray) -> np.ndarray:
    """(A, B, K_t, K_h, K_w) -> (K*B, A), rows tap-major then channel, the
    row order of `_columns`."""
    return weight.transpose(2, 3, 4, 1, 0).reshape(-1, weight.shape[0])


def _gemm_weight_inverse(m: np.ndarray, kernel: Triple) -> np.ndarray:
    """(K*B, A) -> contiguous (A, B, K_t, K_h, K_w); undoes `_gemm_weight`."""
    return np.ascontiguousarray(m.reshape(*kernel, -1, m.shape[1]).transpose(4, 3, 0, 1, 2))


def _pad_channels_last(x: np.ndarray, pads: Triple) -> np.ndarray:
    """(N, C, T, H, W) -> (N, T+2p_t, H+2p_h, W+2p_w, C), zero-padded by
    `pads` at both ends of each axis; a negative pad crops instead."""
    crop = tuple(slice(max(-p, 0), s - max(-p, 0)) for s, p in zip(x.shape[2:], pads))
    x = x[(slice(None), slice(None), *crop)]
    pads = tuple(max(p, 0) for p in pads)
    n_, c_, *size = x.shape
    xp = np.zeros((n_, *(s + 2 * p for s, p in zip(size, pads)), c_), dtype=x.dtype)
    xp[(slice(None), *(slice(p, p + s) for s, p in zip(size, pads)))] = x.transpose(0, 2, 3, 4, 1)
    return xp


def _columns(xp: np.ndarray, kernel: Triple, stride: Triple, out_shape: Triple) -> np.ndarray:
    """Column matrix (N*To*Ho*Wo, K*C) of a padded channels-last input.

    One row per output point, tap-major then channel. It is copied out of
    a strided (N, To, Ho, Wo, Kt, Kh, Kw, C) view, whose last two axes are
    contiguous in `xp`, so the copy moves runs of K_w*C values.
    """
    sn, st_, sh_, sw_, sc = xp.strides
    st, sh, sw = stride
    view = as_strided(xp, shape=(xp.shape[0],) + tuple(out_shape) + tuple(kernel) + xp.shape[-1:],
                      strides=(sn, st_ * st, sh_ * sh, sw_ * sw, st_, sh_, sw_, sc))
    return view.reshape(-1, int(np.prod(kernel)) * xp.shape[-1])


@functools.lru_cache(maxsize=32)
def _scatter_map(n_: int, in_shape: Triple, kernel: Triple, stride: Triple,
                 padding: Triple, out_shape: Triple):
    """CSR arrays (indptr, idx) of the stride > 1 overlap-add.

    Row q, an output point (n, o) in (N, To, Ho, Wo) order, lists the rows
    of the (N*T*H*W*K, B) product matrix that land on it: input point
    (n, i) and tap j with o = i*s - p + j on every axis, in ascending tap
    order. Both arrays are read-only; they are cached per geometry.
    """
    taps = int(np.prod(kernel))
    t_, h_, w_ = in_shape
    # Per axis, for output o and tap j: the input i = (o + p - j) / s,
    # times its row step in the product matrix, and whether it is a whole
    # number inside the input. Broadcast over (To, Ho, Wo, Kt, Kh, Kw).
    row, valid = np.arange(taps).reshape(kernel), True
    for axis, (size, k, s, p, o_n, step) in enumerate(zip(
            in_shape, kernel, stride, padding, out_shape, (h_ * w_ * taps, w_ * taps, taps))):
        i, rem = np.divmod(np.arange(o_n)[:, None] + p - np.arange(k), s)
        shape = [1] * 6
        shape[axis], shape[3 + axis] = o_n, k
        row = row + (i * step).reshape(shape)                       # batch item 0
        valid = valid & ((rem == 0) & (i >= 0) & (i < size)).reshape(shape)
    row = row[valid]
    per_point = valid.reshape(-1, taps).sum(axis=1)
    idx = (np.arange(n_)[:, None] * (t_ * h_ * w_ * taps) + row).ravel()
    indptr = np.zeros(n_ * len(per_point) + 1, dtype=idx.dtype)
    np.cumsum(np.tile(per_point, n_), out=indptr[1:])
    for a in (indptr, idx):
        a.setflags(write=False)
    return indptr, idx


def _adjoint(z: np.ndarray, weight: np.ndarray, stride: Triple, padding: Triple,
             out_shape: Triple) -> np.ndarray:
    """Transposed convolution of z (N, A, T, H, W) by weight (A, B, K...),
    without bias: the conv's input gradient and the transposed forward.

    At stride 1 it is a gather: a forward conv of z padded by K-1-p with
    the flipped kernel, its channel axes swapped. At a larger stride it is
    an overlap-add: one GEMM forms the (N*T*H*W*K, B) products of every
    input point and tap, channels last, and one `csr_matvecs` on the
    cached `_scatter_map` sums each output point's products from zero in
    ascending tap order, the order of one strided `+=` per tap.
    """
    kernel = weight.shape[2:]
    n_, a_ = z.shape[:2]
    if tuple(stride) == (1, 1, 1):
        zp = _pad_channels_last(z, tuple(k - 1 - p for k, p in zip(kernel, padding)))
        flipped = weight[:, :, ::-1, ::-1, ::-1].swapaxes(0, 1)
        y = _columns(zp, kernel, stride, out_shape) @ _gemm_weight(flipped)
        return _channels_first(y, (n_,) + tuple(out_shape))
    b_ = weight.shape[1]
    products = _channels_last(z) @ weight.transpose(0, 2, 3, 4, 1).reshape(a_, -1)
    products = products.reshape(-1, b_)                             # (N*T*H*W*K, B)
    indptr, idx = _scatter_map(n_, z.shape[2:], kernel, tuple(stride), tuple(padding),
                               tuple(out_shape))
    y = np.zeros((len(indptr) - 1, b_), dtype=products.dtype)
    _sparsetools().csr_matvecs(len(y), len(products), b_, indptr, idx,
                               np.ones(len(idx), dtype=products.dtype), products, y)
    return _channels_first(y, (n_,) + tuple(out_shape))


def conv3d_forward(x: np.ndarray, params: Conv3dParams):
    """Fast forward; returns (y, ctx) where ctx feeds conv3d_backward."""
    if params.transposed:
        raise ShapeError("conv3d_forward: params are transposed")
    _check_input(x, params, "conv3d")
    out_shape = params.output_shape(x.shape[2:])
    xp = _pad_channels_last(x, params.padding)
    y = _columns(xp, params.kernel, params.stride, out_shape) @ _gemm_weight(params.weight)
    y += params.bias.astype(y.dtype)
    ctx = (x.shape, xp, params, out_shape)
    return _channels_first(y, (x.shape[0],) + out_shape), ctx


def conv3d_backward(ctx, grad_y: np.ndarray):
    """Gradients of conv3d_forward: (grad_x, grad_w, grad_b)."""
    x_shape, xp, params, out_shape = ctx
    columns = _columns(xp, params.kernel, params.stride, out_shape)
    grad_w = _gemm_weight_inverse(columns.T @ _channels_last(grad_y), params.kernel)
    del columns  # the adjoint's gather builds its own column matrix
    grad_b = grad_y.sum(axis=(0, 2, 3, 4))
    grad_x = _adjoint(grad_y, params.weight, params.stride, params.padding, x_shape[2:])
    return grad_x, grad_w, grad_b


def conv3d_transpose_forward(x: np.ndarray, params: Conv3dParams):
    """Fast transposed-conv forward; returns (y, ctx)."""
    if not params.transposed:
        raise ShapeError("conv3d_transpose_forward: params.transposed must be true")
    _check_input(x, params, "conv3d_transpose")
    out_shape = params.output_shape(x.shape[2:])
    y = _adjoint(x, params.weight, params.stride, params.padding, out_shape)
    y += params.bias[None, :, None, None, None].astype(y.dtype)
    ctx = (x, params, out_shape)
    return y, ctx


def conv3d_transpose_backward(ctx, grad_y: np.ndarray):
    """Gradients of conv3d_transpose_forward: (grad_x, grad_w, grad_b).

    The input gradient gathers from grad_y exactly like a forward conv
    whose weight is the stored (C_in, C_out, ...) array.
    """
    x, params, out_shape = ctx
    gyp = _pad_channels_last(grad_y, params.padding)
    columns = _columns(gyp, params.kernel, params.stride, x.shape[2:])
    grad_x = _channels_first(columns @ _gemm_weight(params.weight), (x.shape[0],) + x.shape[2:])
    grad_w = _gemm_weight_inverse(columns.T @ _channels_last(x), params.kernel)
    grad_b = grad_y.sum(axis=(0, 2, 3, 4))
    return grad_x, grad_w, grad_b
