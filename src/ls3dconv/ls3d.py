"""Learnable-sampling 3D convolution.

Each of the K_t*K_h*K_w kernel taps samples its input frame at a learned
fractional 2D displacement (bilinear interpolation, zero outside the
frame) and is weighted by a learned importance scalar in [0, 1]. With
offsets == 0 and masks == 1 the operator reduces exactly to the plain 3D
convolution, which is the oracle test for this whole module.

For an output location p, tap n in frame t+tau:

    y_t(p) = sum_tau sum_n m^n_t(p) * w_tau(p^n) * x_{t+tau}(p + p^n + dp^n_t(p))

The offset dp and mask m of each tap are read at the output point (t, p).
Offsets and masks are shared across output channels. The main kernel here
is always stride 1 with centered padding, so the offset/mask fields live
on the same (T, H, W) grid as the input.

The operator is one deformable column buffer and one GEMM, the
"deformable im2col" of DCN (Dai et al. 2017) and DCNv2 (Zhu et al. 2019):

* The input is laid out channels last, as the rows of a
  (N*T*H*W + 1, C) matrix whose last row is zero.
* One vector pass computes the four bilinear corner rows and weights of
  every tap at every output point. A corner outside the input, whether
  outside its frame or in a frame t+tau outside [0, T), points at the
  zero row, so a plain row gather reads zero and no validity mask is
  needed.
* As in DCNv2, the mask is folded into the four bilinear weights, so the
  column buffer (N*T*H*W*K, C) is sum_j (w_j * m) * corner_j, written
  once. It is filled in blocks of `_BLOCK` rows: the first corner is
  gathered straight into the block, the other three into one reused
  block-sized buffer, so the corners stay in cache and no full-size
  temporary is made. The output is one GEMM of the columns, viewed as
  (N*T*H*W, K*C_in), with the weight reshaped to (K*C_in, C_out).

Forward and backward are written by hand; `ls3d_backward` is exact
reverse-mode differentiation of the sum above. grad_w and the column
gradient g are one GEMM each, grad_w on the stored columns. The four
corners are gathered again, block by block, and each is dotted with the
unmasked g over C, giving s_00..s_11. Everything else is a function of
those four numbers per tap: the mask gradient is sum_j w_j * s_j, and the
offset gradient is m times the bilinear kernel's derivative of the s_j.
grad_x is the adjoint of the sampling: g scattered through the
mask-weighted bilinear weights onto the same corner rows the forward
gathered, one `bincount` per input channel over all four corners of
every tap. The zero row collects the out-of-range corners and is dropped.
"""

from __future__ import annotations

import numpy as np

from .conv3d import (Conv3dParams, _channels_first, _channels_last, _gemm_weight,
                     _gemm_weight_inverse, conv3d_backward, conv3d_forward)
from .errors import NumericError, ShapeError
from .tensor import check_tensor5, sigmoid

__all__ = [
    "bilinear_sample", "bilinear_backward",
    "ls3d_forward", "ls3d_backward",
    "num_taps", "tap_offsets", "Ls3dConv",
]

# Rows of the column buffer built, or gathered again, per pass: with 32
# float32 channels a block is 512 KiB, small enough to stay in cache.
_BLOCK = 4096


def num_taps(kernel) -> int:
    kt, kh, kw = kernel
    return kt * kh * kw


def tap_offsets(kernel):
    """Yield (linear, tau, p_row, p_col) for each tap of an odd kernel."""
    kt, kh, kw = kernel
    k = 0
    for jt in range(kt):
        for jh in range(kh):
            for jw in range(kw):
                yield k, jt - kt // 2, jh - kh // 2, jw - kw // 2
                k += 1


# --- scalar bilinear kernel (reference form) -------------------------------

def bilinear_sample(frame: np.ndarray, point) -> float:
    """Sample one 2-D frame at a fractional (row, col); zero outside."""
    h, w = frame.shape
    r, c = point
    r0, c0 = int(np.floor(r)), int(np.floor(c))
    dr, dc = r - r0, c - c0

    def at(i, j):
        return frame[i, j] if 0 <= i < h and 0 <= j < w else 0.0

    return ((1 - dr) * (1 - dc) * at(r0, c0) + (1 - dr) * dc * at(r0, c0 + 1)
            + dr * (1 - dc) * at(r0 + 1, c0) + dr * dc * at(r0 + 1, c0 + 1))


def bilinear_backward(frame: np.ndarray, point, upstream: float):
    """Gradients of bilinear_sample wrt the frame cells and the point.

    The floor-based form gives the right-sided derivative at integer
    coordinates. Returns (grad_frame, (d_row, d_col)).
    """
    h, w = frame.shape
    r, c = point
    r0, c0 = int(np.floor(r)), int(np.floor(c))
    dr, dc = r - r0, c - c0
    grad_frame = np.zeros_like(frame)
    vals = {}
    for (i, j), wt in (((r0, c0), (1 - dr) * (1 - dc)), ((r0, c0 + 1), (1 - dr) * dc),
                       ((r0 + 1, c0), dr * (1 - dc)), ((r0 + 1, c0 + 1), dr * dc)):
        inside = 0 <= i < h and 0 <= j < w
        vals[(i - r0, j - c0)] = frame[i, j] if inside else 0.0
        if inside:
            grad_frame[i, j] += upstream * wt
    d_row = upstream * ((1 - dc) * (vals[(1, 0)] - vals[(0, 0)]) + dc * (vals[(1, 1)] - vals[(0, 1)]))
    d_col = upstream * ((1 - dr) * (vals[(0, 1)] - vals[(0, 0)]) + dr * (vals[(1, 1)] - vals[(1, 0)]))
    return grad_frame, (d_row, d_col)


# --- column buffer ---------------------------------------------------------

def _corners(x: np.ndarray, kernel, offsets: np.ndarray):
    """Channels-last frames and the 4 bilinear corners of every tap.

    Returns (frames, idx, weights, frac):
      frames  (N*T*H*W + 1, C): x channels last, plus one zero row at the end;
      idx     (4, N*T*H*W*K) frame rows of the corners 00, 01, 10, 11; a
              corner outside the input points at the zero row;
      weights (4, N*T*H*W*K) the matching bilinear weights;
      frac    (dr, dc), the fractional parts of the sampling point.
    Entries run over (n, t, h, w, tap), tap fastest.
    """
    n_, c_in, t_, h, w = x.shape
    zero_row = n_ * t_ * h * w
    frames = np.zeros((zero_row + 1, c_in), dtype=x.dtype)
    frames[:-1].reshape(n_, t_, h, w, c_in)[...] = x.transpose(0, 2, 3, 4, 1)

    tau, pr, pc = np.array([tap[1:] for tap in tap_offsets(kernel)]).T
    off = offsets.reshape(n_, len(tau), 2, t_, h, w).transpose(2, 0, 3, 4, 5, 1)
    rows = (np.arange(h, dtype=x.dtype)[:, None, None] + pr.astype(x.dtype)) + off[0]
    cols = (np.arange(w, dtype=x.dtype)[:, None] + pc.astype(x.dtype)) + off[1]
    r0 = np.floor(rows)
    c0 = np.floor(cols)
    dr = (rows - r0).ravel()
    dc = (cols - c0).ravel()
    r0 = r0.astype(np.int64)
    c0 = c0.astype(np.int64)
    t_src = np.arange(t_)[:, None, None, None] + tau                 # (T, 1, 1, K)
    in_time = (t_src >= 0) & (t_src < t_)
    frame = np.arange(n_)[:, None, None, None, None] * t_ + t_src

    idx = np.empty((4, dr.size), dtype=np.int64)
    for j, (r, c) in enumerate(((r0, c0), (r0, c0 + 1), (r0 + 1, c0), (r0 + 1, c0 + 1))):
        inside = in_time & (r >= 0) & (r < h) & (c >= 0) & (c < w)
        idx[j] = np.where(inside, (frame * h + r) * w + c, zero_row).ravel()
    weights = np.stack([(1 - dr) * (1 - dc), (1 - dr) * dc, dr * (1 - dc), dr * dc])
    return frames, idx, weights, (dr, dc)


def _gather(frames: np.ndarray, rows: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out[i] = frames[rows[i]]. Every row is in range by construction, and
    mode="clip" skips the buffered copy that mode="raise" makes with `out`."""
    return np.take(frames, rows, axis=0, out=out, mode="clip")


def _blocks(rows: int):
    """Slices of at most `_BLOCK` consecutive rows that cover range(rows)."""
    return (slice(start, min(start + _BLOCK, rows)) for start in range(0, rows, _BLOCK))


def _validate_fields(x, params: Conv3dParams, offsets, masks):
    check_tensor5(x, "ls3d input")
    if params.transposed:
        raise ShapeError("ls3d: main conv cannot be transposed")
    if params.stride != (1, 1, 1):
        raise ShapeError(f"ls3d: main conv stride must be (1,1,1), got {params.stride}")
    expected_pad = tuple(k // 2 for k in params.kernel)
    if tuple(params.padding) != expected_pad:
        raise ShapeError(f"ls3d: main conv padding must be {expected_pad} for kernel "
                         f"{params.kernel}, got {tuple(params.padding)}")
    if x.shape[1] != params.weight.shape[1]:
        raise ShapeError(f"ls3d: input has C={x.shape[1]} channels, kernel expects "
                         f"{params.weight.shape[1]}")
    taps = num_taps(params.kernel)
    grid = (x.shape[0],) + x.shape[2:]
    for name, f, ch in (("offsets", offsets, 2 * taps), ("masks", masks, taps)):
        if f.shape != (grid[0], ch, *grid[1:]):
            raise ShapeError(f"ls3d: {name} must have shape {(grid[0], ch, *grid[1:])}, "
                             f"got {f.shape}")
    for name, f in (("input", x), ("offsets", offsets), ("masks", masks)):
        if not np.isfinite(f).all():
            bad = int(np.flatnonzero(~np.isfinite(f))[0])
            raise NumericError(f"ls3d: non-finite {name} at flat index {bad} "
                               f"(shape {f.shape})")


def ls3d_forward(x: np.ndarray, params: Conv3dParams, offsets: np.ndarray,
                 masks: np.ndarray):
    """Offset-and-mask-modulated 3D convolution. Returns (y, ctx)."""
    _validate_fields(x, params, offsets, masks)
    n_, c_in, t_, h, w = x.shape
    taps = num_taps(params.kernel)
    frames, idx, weights, frac = _corners(x, params.kernel, offsets)
    wm = weights * _channels_last(masks).ravel()                     # (4, N*T*P*K)

    columns = np.empty((idx.shape[1], c_in), dtype=x.dtype)
    corner = np.empty((min(_BLOCK, len(columns)), c_in), dtype=x.dtype)
    for block in _blocks(len(columns)):
        out = _gather(frames, idx[0, block], columns[block])
        out *= wm[0, block, None]
        buf = corner[:len(out)]
        for i, wt in zip(idx[1:, block], wm[1:, block]):
            _gather(frames, i, buf)
            buf *= wt[:, None]
            out += buf
    columns = columns.reshape(-1, taps * c_in)                       # (N*T*P, K*C)

    y = _channels_first(columns @ _gemm_weight(params.weight), (n_, t_, h, w))
    y = y.astype(x.dtype, copy=False)
    y += params.bias[None, :, None, None, None].astype(x.dtype)
    ctx = (x, params, offsets, masks, (frames, idx, weights, frac, columns))
    return y, ctx


def ls3d_backward(ctx, grad_y: np.ndarray):
    """Exact gradients of ls3d_forward.

    Returns (grad_x, grad_w, grad_bias, grad_offsets, grad_masks).
    """
    if ctx is None:
        raise ShapeError("ls3d_backward: no saved forward state")
    x, params, offsets, masks, (frames, idx, weights, frac, columns) = ctx
    n_, c_in, t_, h, w = x.shape
    if grad_y.shape != (n_, params.out_channels, t_, h, w):
        raise ShapeError(f"ls3d_backward: grad_y shape {grad_y.shape} does not match "
                         f"forward output {(n_, params.out_channels, t_, h, w)}")
    taps = num_taps(params.kernel)
    grid = (n_, t_, h, w)

    gy = _channels_last(grad_y)                                       # (N*T*P, C_out)
    grad_w = _gemm_weight_inverse(columns.T @ gy, params.kernel)
    grad_w = grad_w.astype(params.weight.dtype, copy=False)
    grad_bias = grad_y.sum(axis=(0, 2, 3, 4))

    # dL/dcolumns, one row per tap and point: the unmasked sample gradient.
    g_mod = (gy @ _gemm_weight(params.weight).T).reshape(-1, c_in)  # (N*T*P*K, C)

    # Each corner dotted with g_mod over C, on the corners gathered again
    # block by block. The mask and offset gradients are linear in these.
    s = np.empty(idx.shape, dtype=g_mod.dtype)
    corner = np.empty((min(_BLOCK, len(g_mod)), c_in), dtype=frames.dtype)
    for block in _blocks(len(g_mod)):
        g_blk = g_mod[block]
        buf = corner[:len(g_blk)]
        for j in range(4):
            np.einsum("ic,ic->i", _gather(frames, idx[j, block], buf), g_blk,
                      out=s[j, block])
    s00, s01, s10, s11 = s
    m = _channels_last(masks).ravel()                                # (N*T*P*K,)
    grad_masks = _channels_first(np.einsum("ji,ji->i", weights, s).reshape(-1, taps), grid)
    dr, dc = frac
    grad_offsets = np.stack([m * ((1 - dc) * (s10 - s00) + dc * (s11 - s01)),
                             m * ((1 - dr) * (s01 - s00) + dr * (s11 - s10))], axis=1)
    grad_offsets = _channels_first(grad_offsets.reshape(-1, 2 * taps), grid)

    # Input gradient: scatter g_mod through the mask-weighted bilinear
    # weights onto the frame rows. bincount is much faster than ufunc.at;
    # each channel's gradient is made one contiguous row first, which is
    # faster than a strided column of g_mod.
    wm = weights * m
    rows = idx.ravel()
    g_chan = np.ascontiguousarray(g_mod.T)                           # (C, N*T*P*K)
    grad_frames = np.stack([np.bincount(rows, weights=(wm * g_c).ravel(),
                                        minlength=len(frames)) for g_c in g_chan])
    grad_x = grad_frames[:, :-1].reshape(c_in, n_, t_, h, w).transpose(1, 0, 2, 3, 4)
    grad_x = np.ascontiguousarray(grad_x, dtype=x.dtype)

    return grad_x, grad_w, grad_bias, grad_offsets, grad_masks


# --- layer with offset/mask prediction branches -----------------------------

class Ls3dConv:
    """LS3D layer: main kernel plus offset and mask prediction convolutions.

    Both branches consume the layer input. Offsets come out of the offset
    branch raw (plus an optional constant `offset_shift`, which the
    gradient checker uses to stay off the bilinear kernel's integer
    kinks); masks are squashed through a sigmoid into [0, 1].
    """

    def __init__(self, main: Conv3dParams, offset_branch: Conv3dParams,
                 mask_branch: Conv3dParams, name: str = "ls3d",
                 offset_shift: float = 0.0):
        taps = num_taps(main.kernel)
        if offset_branch.out_channels != 2 * taps:
            raise ShapeError(f"offset branch must emit {2 * taps} channels, "
                             f"emits {offset_branch.out_channels}")
        if mask_branch.out_channels != taps:
            raise ShapeError(f"mask branch must emit {taps} channels, "
                             f"emits {mask_branch.out_channels}")
        self.main = main
        self.offset_branch = offset_branch
        self.mask_branch = mask_branch
        self.name = name
        self.offset_shift = offset_shift
        self.grads: dict[str, np.ndarray] = {}
        self._state = None

    def parameters(self) -> dict[str, np.ndarray]:
        return {
            f"{self.name}.weight": self.main.weight,
            f"{self.name}.bias": self.main.bias,
            f"{self.name}.offset.weight": self.offset_branch.weight,
            f"{self.name}.offset.bias": self.offset_branch.bias,
            f"{self.name}.mask.weight": self.mask_branch.weight,
            f"{self.name}.mask.bias": self.mask_branch.bias,
        }

    def predict_offsets_masks(self, x: np.ndarray):
        """Run the two branches; returns (offsets, masks) only."""
        offsets, masks, _, _ = self._predict(x)
        return offsets, masks

    def _predict(self, x: np.ndarray):
        raw_off, off_ctx = conv3d_forward(x, self.offset_branch)
        if self.offset_shift:
            raw_off = raw_off + x.dtype.type(self.offset_shift)
        logits, mask_ctx = conv3d_forward(x, self.mask_branch)
        return raw_off, sigmoid(logits), off_ctx, mask_ctx

    def forward(self, x: np.ndarray, keep_state: bool = False) -> np.ndarray:
        offsets, masks, off_ctx, mask_ctx = self._predict(x)
        y, core_ctx = ls3d_forward(x, self.main, offsets, masks)
        if keep_state:
            self._state = (core_ctx, off_ctx, mask_ctx, masks)
        else:
            self._state = None
        return y

    def backward(self, grad_y: np.ndarray) -> np.ndarray:
        if self._state is None:
            raise ShapeError(f"{self.name}: backward called without a keep-state forward")
        core_ctx, off_ctx, mask_ctx, masks = self._state
        grad_x, grad_w, grad_b, grad_off, grad_masks = ls3d_backward(core_ctx, grad_y)
        gx_off, gw_off, gb_off = conv3d_backward(off_ctx, grad_off)
        grad_logits = grad_masks * masks * (1 - masks)
        gx_mask, gw_mask, gb_mask = conv3d_backward(mask_ctx, grad_logits)
        self.grads = {
            f"{self.name}.weight": grad_w,
            f"{self.name}.bias": grad_b,
            f"{self.name}.offset.weight": gw_off,
            f"{self.name}.offset.bias": gb_off,
            f"{self.name}.mask.weight": gw_mask,
            f"{self.name}.mask.bias": gb_mask,
        }
        self._state = None
        return grad_x + gx_off + gx_mask
