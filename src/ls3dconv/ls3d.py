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

* The input is laid out as conv3d lays it out: channels last, zero-padded
  by K_t//2 frames in time and by 2 rows and columns in space.
* One vector pass computes the top-left corner row and the fractional
  parts (dr, dc) of every tap at every output point; the other three
  corner rows are fixed steps from it, and the four bilinear weights
  products of dr and dc. Each top-left corner is clamped to rows -2..H
  and columns -2..W before its integer cast; one with no read inside the
  frame still has none, and lands in the zero border. So a plain row
  read gives zero outside the input, and no mask is needed.
* The sampling is a sparse matrix S, one row per tap and output point
  with its four corners as entries, and as in DCNv2 the mask is folded
  into their bilinear weights (w_j * m). The column buffer
  (N*T*H*W*K, C) is S @ frames: one call of scipy's compiled CSR kernel
  `csr_matvecs` on (indptr, idx, w * m), each row summing its corners in
  the order 00, 01, 10, 11. The output is one GEMM of the columns, viewed
  as (N*T*H*W, K*C_in), with the weight reshaped to (K*C_in, C_out).

Forward and backward are written by hand; `ls3d_backward` is exact
reverse-mode differentiation of the sum above. For it the forward keeps
the input, offsets and masks, the padded frames, the top-left corner
rows, (dr, dc) and the column buffer. It does not keep the four corner
rows, the CSR row starts or the weights, 56 bytes per tap and point:
the backward rebuilds them block by block, with the same integer and
float operations, so every bit is that of the forward's. grad_w and the
column gradient g are one GEMM each, grad_w on the stored columns. The
four corners are gathered again, block by block, and each is dotted
with the unmasked g over C, giving s_00..s_11. Everything else is a function of those four numbers per
tap: the mask gradient is sum_j w_j * s_j, and the offset gradient is m
times the bilinear kernel's derivative of the s_j. grad_x is the adjoint
of the sampling, S^T @ g onto the padded frames, accumulated in float64:
the same three arrays read as a CSC matrix are S^T, so it is
`csc_matvecs` on each block of sample rows in turn, with no sort or
transpose; grad_x is the interior of the result.

The two kernels come from scipy's `scipy/sparse/_sparsetools` extension,
which `conv3d._sparsetools` loads from its file alone on first use and
caches: importing `scipy.sparse` itself would load all of scipy.sparse
for these two functions. Plain nets load it too, at their first stride > 1
transposed conv or conv input gradient, whose overlap-add is one
`csr_matvecs`.
"""

from __future__ import annotations

import numpy as np

from .conv3d import (Conv3dParams, _channels_first, _channels_last, _gemm_weight,
                     _gemm_weight_inverse, _pad_channels_last, _sparsetools, conv3d_backward,
                     conv3d_forward)
from .errors import NumericError, ShapeError
from .tensor import check_tensor5, sigmoid

__all__ = [
    "bilinear_sample", "bilinear_backward",
    "ls3d_forward", "ls3d_backward",
    "num_taps", "tap_offsets", "Ls3dConv",
]

# Rows of the column buffer gathered again per backward pass: with 32
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
    """Zero-padded channels-last frames and the top-left corner of every tap.

    Returns (frames, top, frac):
      frames (N*(T+2p_t)*(H+4)*(W+4), C): x channels last, zero-padded by
             p_t = K_t//2 frames in time and by 2 rows and columns in space;
      top    (N*T*H*W*K,) int64, the frame row of each top-left corner less
             its column padding of 2; `_corner_rows` turns a run of it into
             the rows of the four corners;
      frac   (dr, dc), the fractional parts of the sampling point, from
             which `_bilinear_weights` forms the four corner weights.
    Entries run over (n, t, h, w, tap), tap fastest.
    """
    n_, c_in, t_, h, w = x.shape
    pt = kernel[0] // 2
    frames = _pad_channels_last(x, (pt, 2, 2))
    tp, hp, wp = frames.shape[1:4]
    frames = frames.reshape(-1, c_in)

    tau, pr, pc = np.array([tap[1:] for tap in tap_offsets(kernel)]).T
    off = offsets.reshape(n_, len(tau), 2, t_, h, w).transpose(2, 0, 3, 4, 5, 1)
    rows = (np.arange(h, dtype=x.dtype)[:, None, None] + pr.astype(x.dtype)) + off[0]
    cols = (np.arange(w, dtype=x.dtype)[:, None] + pc.astype(x.dtype)) + off[1]
    r0, c0 = np.floor(rows), np.floor(cols)
    dr, dc = (rows - r0).ravel(), (cols - c0).ravel()
    # Clamped to rows -2..H, a top-left corner with both rows outside the
    # frame keeps them outside, in the zero border; likewise for columns.
    top = np.clip(r0, -2, h, out=r0).astype(np.int64)
    c0 = np.clip(c0, -2, w, out=c0).astype(np.int64)
    t_src = np.arange(t_)[:, None, None, None] + (tau + pt)          # (T, 1, 1, K), padded
    frame = np.arange(n_)[:, None, None, None, None] * tp + t_src
    # Frame row of the top-left corner less its column padding of 2,
    # (frame*hp + r0 + 2)*wp + c0, built in place.
    top += frame * hp + 2
    top *= wp
    top += c0
    return frames, top.ravel(), (dr, dc)


def _corner_rows(top: np.ndarray, w: int) -> np.ndarray:
    """(len(top), 4) frame rows of the corners 00, 01, 10, 11, in frames
    W wide before padding."""
    wp = w + 4
    out = np.empty((len(top), 4), dtype=top.dtype)
    for j, step in enumerate((2, 3, wp + 2, wp + 3)):
        np.add(top, step, out=out[:, j])
    return out


def _bilinear_weights(dr: np.ndarray, dc: np.ndarray) -> np.ndarray:
    """(len(dr), 4) bilinear weights of the corners 00, 01, 10, 11."""
    out = np.empty((len(dr), 4), dtype=dr.dtype)
    udr, udc = 1 - dr, 1 - dc
    for j, (a, b) in enumerate(((udr, udc), (udr, dc), (dr, udc), (dr, dc))):
        np.multiply(a, b, out=out[:, j])
    return out


def _row_starts(rows: int) -> np.ndarray:
    """indptr 0, 4, 8, ... of a CSR sampling matrix with `rows` rows."""
    return np.arange(0, 4 * rows + 1, 4, dtype=np.int64)


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
    sparsetools = _sparsetools()
    n_, c_in, t_, h, w = x.shape
    taps = num_taps(params.kernel)
    frames, top, frac = _corners(x, params.kernel, offsets)
    idx = _corner_rows(top, w)
    wm = _bilinear_weights(*frac) * _channels_last(masks).reshape(-1, 1)  # (N*T*P*K, 4)

    # columns = S @ frames. The kernel needs one dtype throughout and does
    # not check its indices; `_corners` keeps every one inside `frames`.
    columns = np.zeros((len(idx), c_in), dtype=x.dtype)
    sparsetools.csr_matvecs(len(idx), len(frames), c_in, _row_starts(len(idx)), idx,
                            wm.astype(x.dtype, copy=False), frames, columns)
    columns = columns.reshape(-1, taps * c_in)                       # (N*T*P, K*C)

    y = _channels_first(columns @ _gemm_weight(params.weight), (n_, t_, h, w))
    y = y.astype(x.dtype, copy=False)
    y += params.bias[None, :, None, None, None].astype(x.dtype)
    ctx = (x, params, offsets, masks, (frames, top, frac, columns))
    return y, ctx


def ls3d_backward(ctx, grad_y: np.ndarray):
    """Exact gradients of ls3d_forward.

    ctx is the forward's (x, params, offsets, masks, (frames, top, frac,
    columns)). The corner rows, the CSR row starts and the bilinear
    weights are not stored: each block of sample rows rebuilds its own.

    Returns (grad_x, grad_w, grad_bias, grad_offsets, grad_masks).
    """
    if ctx is None:
        raise ShapeError("ls3d_backward: no saved forward state")
    x, params, offsets, masks, (frames, top, frac, columns) = ctx
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

    # Block by block: the corner rows and bilinear weights rebuilt from
    # `top` and `frac`; each corner gathered again and dotted with g_mod
    # over C (the mask and offset gradients are linear in these); and the
    # input gradient grad_frames += S^T @ g_mod in float64. The CSR arrays
    # of S read as CSC are S^T, so no sort or transpose is needed; the
    # kernel walks the sample rows in order, so the sum is that of one
    # whole call.
    m = _channels_last(masks).ravel()                                # (N*T*P*K,)
    dr, dc = frac
    s = np.empty((4, len(top)), dtype=g_mod.dtype)
    grad_masks = np.empty(len(top), dtype=np.result_type(dr, s))
    indptr = _row_starts(min(_BLOCK, len(top)))
    corner = np.empty((min(_BLOCK, len(top)), c_in), dtype=frames.dtype)
    grad_frames = np.zeros((len(frames), c_in))
    csc_matvecs = _sparsetools().csc_matvecs
    for block in _blocks(len(top)):
        g_blk = g_mod[block]
        size = len(g_blk)
        idx = _corner_rows(top[block], w)
        weights = _bilinear_weights(dr[block], dc[block])
        for j in range(4):
            np.einsum("ic,ic->i", _gather(frames, idx[:, j], corner[:size]), g_blk,
                      out=s[j, block])
        np.einsum("ij,ji->i", weights, s[:, block], out=grad_masks[block])
        csc_matvecs(len(frames), size, c_in, indptr[:size + 1], idx,
                    (weights * m[block, None]).astype(np.float64, copy=False),
                    g_blk.astype(np.float64), grad_frames)
    s00, s01, s10, s11 = s
    grad_masks = _channels_first(grad_masks.reshape(-1, taps), grid)
    grad_offsets = np.stack([m * ((1 - dc) * (s10 - s00) + dc * (s11 - s01)),
                             m * ((1 - dr) * (s01 - s00) + dr * (s11 - s10))], axis=1)
    grad_offsets = _channels_first(grad_offsets.reshape(-1, 2 * taps), grid)

    pt = params.kernel[0] // 2
    grad_frames = grad_frames.reshape(n_, t_ + 2 * pt, h + 4, w + 4, c_in)
    grad_x = grad_frames[:, pt:pt + t_, 2:-2, 2:-2].transpose(0, 4, 1, 2, 3)
    grad_x = np.ascontiguousarray(grad_x, dtype=x.dtype)

    return grad_x, grad_w, grad_bias, grad_offsets, grad_masks


# --- layer with offset/mask prediction branches -----------------------------

class Ls3dConv:
    """LS3D layer: main kernel plus one offset-and-mask prediction conv.

    As in DCNv2, one convolution of the layer input predicts both fields:
    `branches` emits 3*taps channels, the 2*taps offsets first, then the
    taps mask logits. `offset_branch` and `mask_branch` are views of its
    two halves, so a write to either reaches the weights the conv reads.
    Offsets come out raw, plus the constant `offset_shift` (0): gradient
    checks set it on a built layer, 0.3 say, to keep the sampling points
    off the bilinear kernel's integer kinks. Masks are squashed through a
    sigmoid into [0, 1].
    """

    def __init__(self, main: Conv3dParams, branches: Conv3dParams, name: str = "ls3d"):
        taps = num_taps(main.kernel)
        if branches.out_channels != 3 * taps:
            raise ShapeError(f"offset and mask branches must emit {3 * taps} channels, "
                             f"emit {branches.out_channels}")
        self.main = main
        self.branches = branches
        self.offset_branch, self.mask_branch = (
            Conv3dParams(branches.weight[half], branches.bias[half],
                         stride=branches.stride, padding=branches.padding)
            for half in (slice(None, 2 * taps), slice(2 * taps, None)))
        self.name = name
        self.offset_shift = 0.0
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

    def geometry(self) -> list[Conv3dParams]:
        """The main kernel, which is where zero offsets sample."""
        return [self.main]

    def predict_offsets_masks(self, x: np.ndarray):
        """Run the branch conv; returns (offsets, masks) only."""
        offsets, masks, _ = self._predict(x)
        return offsets, masks

    def _predict(self, x: np.ndarray):
        raw, branch_ctx = conv3d_forward(x, self.branches)
        raw_off, logits = np.split(raw, [self.offset_branch.out_channels], axis=1)
        if self.offset_shift:
            raw_off = raw_off + x.dtype.type(self.offset_shift)
        return raw_off, sigmoid(logits), branch_ctx

    def forward(self, x: np.ndarray, keep_state: bool = False) -> np.ndarray:
        offsets, masks, branch_ctx = self._predict(x)
        y, core_ctx = ls3d_forward(x, self.main, offsets, masks)
        if keep_state:
            self._state = (core_ctx, branch_ctx)
        else:
            self._state = None
        return y

    def backward(self, grad_y: np.ndarray) -> np.ndarray:
        if self._state is None:
            raise ShapeError(f"{self.name}: backward called without a keep-state forward")
        core_ctx, branch_ctx = self._state
        self._state = None
        masks = core_ctx[3]
        grad_x, grad_w, grad_b, grad_off, grad_masks = ls3d_backward(core_ctx, grad_y)
        # Freed before the branch conv's backward builds its column matrix.
        del core_ctx
        # Gradient of the branch conv's output: offsets, then logits through the sigmoid.
        split = self.offset_branch.out_channels
        grad_raw = np.empty((len(grad_off), self.branches.out_channels, *grad_off.shape[2:]),
                            dtype=np.result_type(grad_off, grad_masks, masks))
        grad_raw[:, :split] = grad_off
        np.multiply(grad_masks * masks, 1 - masks, out=grad_raw[:, split:])
        gx_branch, gw_branch, gb_branch = conv3d_backward(branch_ctx, grad_raw)
        self.grads = {
            f"{self.name}.weight": grad_w,
            f"{self.name}.bias": grad_b,
            f"{self.name}.offset.weight": gw_branch[:split],
            f"{self.name}.offset.bias": gb_branch[:split],
            f"{self.name}.mask.weight": gw_branch[split:],
            f"{self.name}.mask.bias": gb_branch[split:],
        }
        return grad_x + gx_branch
