"""Independent reference computations for the benchmark's correctness checks.

The reference side of every check is written out again here in float64:
the definition sums, the bilinear kernel, PSNR and SSIM. The program's
functions appear only as the side under test, so a check compares the
program against a second implementation, not against a stored copy of
its own output.
"""

from __future__ import annotations

import dataclasses
import itertools
import math

import numpy as np

from ls3dconv import ls3d, net

from tracing import Patcher

# Tap k of the 3x3x3 LS3D kernel, in the program's (t, h, w) raster order.
TAPS_3 = list(itertools.product(range(3), repeat=3))


# --- capture -------------------------------------------------------------------

class Capture(Patcher):
    """Record (args, result) of ls3d_forward and net-level conv3d_forward calls."""

    def __init__(self):
        super().__init__()
        self.ls3d_calls: list = []
        self.conv_calls: list = []

    def __enter__(self):
        for owner, attr, sink in ((ls3d, "ls3d_forward", self.ls3d_calls),
                                  (net, "conv3d_forward", self.conv_calls)):
            self.patch(owner, attr, _recorder(getattr(owner, attr), sink))
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def _recorder(fn, sink):
    def record(*args):
        out = fn(*args)
        sink.append((args, out[0]))
        return out
    return record


# --- definition sums -------------------------------------------------------------

def bilinear(frame: np.ndarray, r: float, c: float) -> np.ndarray:
    """Sample (C, H, W) frames at one fractional point; zero outside."""
    _, h, w = frame.shape
    r0, c0 = math.floor(r), math.floor(c)
    fr, fc = r - r0, c - c0
    out = np.zeros(frame.shape[0])
    for i, j, wt in ((r0, c0, (1 - fr) * (1 - fc)), (r0, c0 + 1, (1 - fr) * fc),
                     (r0 + 1, c0, fr * (1 - fc)), (r0 + 1, c0 + 1, fr * fc)):
        if 0 <= i < h and 0 <= j < w:
            out += wt * frame[:, i, j]
    return out


def ls3d_point(x, weight, bias, offsets, masks, n, co, t, h, w):
    """y_t(p) = sum_tau sum_k m^k * w_tau(p^k) * x_{t+tau}(p + p^k + dp^k).

    The offset and mask of tap k are read on the output grid at (t, h, w).
    `x` is float64. Returns (value, sum of |terms|).
    """
    value, scale = float(bias[co]), abs(float(bias[co]))
    for k, (jt, jh, jw) in enumerate(TAPS_3):
        tt = t + jt - 1
        if not 0 <= tt < x.shape[2]:
            continue
        r = h + jh - 1 + float(offsets[n, 2 * k, t, h, w])
        c = w + jw - 1 + float(offsets[n, 2 * k + 1, t, h, w])
        sample = bilinear(x[n, :, tt], r, c)
        terms = float(masks[n, k, t, h, w]) * weight[co, :, jt, jh, jw].astype(np.float64) * sample
        value += float(terms.sum())
        scale += float(np.abs(terms).sum())
    return value, scale


def conv3d_point(x, weight, bias, stride, padding, n, co, t, h, w):
    """Cross-correlation with zero padding at one output point, float64."""
    value, scale = float(bias[co]), abs(float(bias[co]))
    for jt, jh, jw in itertools.product(*(range(k) for k in weight.shape[2:])):
        it = t * stride[0] - padding[0] + jt
        ih = h * stride[1] - padding[1] + jh
        iw = w * stride[2] - padding[2] + jw
        if 0 <= it < x.shape[2] and 0 <= ih < x.shape[3] and 0 <= iw < x.shape[4]:
            terms = weight[co, :, jt, jh, jw].astype(np.float64) * x[n, :, it, ih, iw]
            value += float(terms.sum())
            scale += float(np.abs(terms).sum())
    return value, scale


def _sample_points(rng, shape, count):
    return [tuple(int(rng.integers(0, s)) for s in shape) for _ in range(count)]


def ls3d_call_error(call, rng, count=48) -> float:
    """Worst |y - ref| / (1e-6 + sum|terms|) over sampled output points."""
    (x, params, offsets, masks), y = call
    x = x.astype(np.float64)
    worst = 0.0
    for n, co, t, h, w in _sample_points(rng, y.shape, count):
        ref, scale = ls3d_point(x, params.weight, params.bias, offsets, masks, n, co, t, h, w)
        worst = max(worst, abs(float(y[n, co, t, h, w]) - ref) / (1e-6 + scale))
    return worst


def conv_call_error(call, rng, count=24) -> float:
    (x, params), y = call
    worst = 0.0
    for n, co, t, h, w in _sample_points(rng, y.shape, count):
        ref, scale = conv3d_point(x, params.weight, params.bias, params.stride,
                                  params.padding, n, co, t, h, w)
        worst = max(worst, abs(float(y[n, co, t, h, w]) - ref) / (1e-6 + scale))
    return worst


def zero_offset_error(call) -> float:
    """ls3d_forward with offsets 0 and masks 1 against the captured plain conv."""
    (x, params), y = call
    n_, _, t_, h, w = x.shape
    offsets = np.zeros((n_, 2 * len(TAPS_3), t_, h, w), dtype=x.dtype)
    masks = np.ones((n_, len(TAPS_3), t_, h, w), dtype=x.dtype)
    y_ls3d, _ = ls3d.ls3d_forward(x, params, offsets, masks)
    return float(np.max(np.abs(y_ls3d - y)) / (1e-6 + np.max(np.abs(y))))


# --- gradients -------------------------------------------------------------------

STEPS = (1e-8, 3e-9)
OFFSET_SHIFT = 0.3


def directional_grad_error(spec, net_seed, trained, x, seed) -> float:
    """Analytic vs central-difference derivative of <R, net(x)> along d.

    Runs on a float64 copy of `trained`; R and d are seeded draws. As the
    program's own gradcheck does, every LS3D layer of the copy gets an
    offset shift of 0.3 pixel, which leaves the gradients' form unchanged:
    offsets trained from zero-initialised branches sit within 1e-6 of the
    integer kink of the bilinear kernel, where the analytic derivative is
    one-sided and a central difference is not.
    """
    model = net.build_net(dataclasses.replace(spec, dtype=np.float64), net_seed)
    params = model.parameters()
    for name, p in trained.parameters().items():
        params[name][...] = p
    for layer in model.layers:
        first = getattr(layer, "first", None)
        if isinstance(first, ls3d.Ls3dConv):
            first.offset_shift = OFFSET_SHIFT
    x = x.astype(np.float64)
    rng = np.random.default_rng(seed)
    y = model.forward(x, keep_state=True)
    proj = rng.standard_normal(y.shape)
    model.backward(proj)
    names = sorted(params)
    direction = {k: rng.standard_normal(params[k].shape) for k in names}
    analytic = sum(float(np.sum(model.grads[k] * direction[k])) for k in names)
    base = {k: params[k].copy() for k in names}

    def f(eps):
        for k in names:
            params[k][...] = base[k] + eps * direction[k]
        return float(np.sum(model.forward(x) * proj))

    # A ReLU kink inside the +-step interval spoils one central difference
    # without any fault in the program; the chance of that falls with the
    # step, so the best of two small steps is reported.
    errors = []
    for step in STEPS:
        numeric = (f(step) - f(-step)) / (2 * step)
        errors.append(abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-12))
    return min(errors)


# --- image quality ---------------------------------------------------------------

def psnr_frames(a, b):
    mse = ((a.astype(np.float64) - b.astype(np.float64)) ** 2).mean(axis=(1, 3, 4))
    return [10.0 * math.log10(1.0 / v) if v > 0 else math.inf for v in mse.ravel()]


def _gauss_1d(size=11, sigma=1.5):
    g = np.exp(-0.5 * ((np.arange(size) - (size - 1) / 2) / sigma) ** 2)
    return g / g.sum()


def _blur_valid(img, g):
    k = len(g)
    rows = sum(g[i] * img[i:img.shape[0] - k + 1 + i, :] for i in range(k))
    return sum(g[i] * rows[:, i:img.shape[1] - k + 1 + i] for i in range(k))


def ssim_frames(a, b):
    """Single-scale SSIM on BT.601 luma, 11x11 Gaussian (sigma 1.5), valid windows."""
    luma = np.array([0.299, 0.587, 0.114])
    la = np.einsum("c,ncthw->nthw", luma, a.astype(np.float64))
    lb = np.einsum("c,ncthw->nthw", luma, b.astype(np.float64))
    g = _gauss_1d()
    c1, c2 = 0.01 ** 2, 0.03 ** 2
    out = []
    for n in range(la.shape[0]):
        for t in range(la.shape[1]):
            x, y = la[n, t], lb[n, t]
            mx, my = _blur_valid(x, g), _blur_valid(y, g)
            vx = _blur_valid(x * x, g) - mx ** 2
            vy = _blur_valid(y * y, g) - my ** 2
            cov = _blur_valid(x * y, g) - mx * my
            s = ((2 * mx * my + c1) * (2 * cov + c2)) / ((mx ** 2 + my ** 2 + c1) * (vx + vy + c2))
            out.append(float(s.mean()))
    return out
