"""Reconstruction quality metrics and the training loss.

PSNR is computed per frame (over channels and pixels of each (n, t)
slice) and averaged; identical frames yield math.inf, which propagates
through the mean as the documented sentinel. SSIM follows the standard
single-scale formulation on RGB frames: luma conversion, 11x11 Gaussian
window with sigma 1.5, C1 = 0.01^2 and C2 = 0.03^2 on the [0, 1] range.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ShapeError
from .fileio import atomic_open
from .tensor import check_same_shape

_LUMA = np.array([0.299, 0.587, 0.114])
_SSIM_C1 = 0.01 ** 2
_SSIM_C2 = 0.03 ** 2


# Side of SSIM's square Gaussian window: frames must be at least this large.
SSIM_WINDOW = 11


# The 11x11 window is the outer product of this with itself: a Gaussian of
# sigma 1.5 over the window's taps, summing to 1.
_GAUSS = np.exp(-0.5 * ((np.arange(SSIM_WINDOW, dtype=np.float64)
                         - (SSIM_WINDOW - 1) / 2) / 1.5) ** 2)
_GAUSS /= _GAUSS.sum()


def psnr_frames(a: np.ndarray, b: np.ndarray) -> list[float]:
    """PSNR in dB for every (n, t) frame of values in [0, 1]; inf where the
    frames are equal."""
    check_same_shape(a, b, "psnr")
    diff = (a.astype(np.float64) - b.astype(np.float64)) ** 2
    mse = diff.mean(axis=(1, 3, 4))  # (N, T)
    out = []
    for v in mse.ravel():
        out.append(math.inf if v == 0 else 10.0 * math.log10(1.0 / v))
    return out


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    vals = psnr_frames(a, b)
    return sum(vals) / len(vals)


def _to_luma(x: np.ndarray) -> np.ndarray:
    if x.shape[1] != 3:
        raise ShapeError(f"ssim expects 3 (RGB) channels, got {x.shape[1]}")
    return np.tensordot(_LUMA, x.astype(np.float64), axes=([0], [1]))  # (N, T, H, W)


def _blur(img: np.ndarray) -> np.ndarray:
    """Gaussian window sums over the last two axes, valid windows only,
    as one 11-tap pass along H and one along W."""
    k = len(_GAUSS)
    rows = sliding_window_view(img, k, axis=-2) @ _GAUSS
    return sliding_window_view(rows, k, axis=-1) @ _GAUSS


def ssim_frames(a: np.ndarray, b: np.ndarray) -> list[float]:
    """Per-frame SSIM of the luma of RGB frames, over all (n, t) slices."""
    check_same_shape(a, b, "ssim")
    h, w = a.shape[3:]
    if h < SSIM_WINDOW or w < SSIM_WINDOW:
        raise ShapeError(f"ssim needs H, W >= {SSIM_WINDOW}, got H={h}, W={w}")
    x, y = _to_luma(a), _to_luma(b)                                 # (N, T, H, W)
    mu_x, mu_y = _blur(x), _blur(y)
    var_x = _blur(x * x) - mu_x ** 2
    var_y = _blur(y * y) - mu_y ** 2
    cov = _blur(x * y) - mu_x * mu_y
    num = (2 * mu_x * mu_y + _SSIM_C1) * (2 * cov + _SSIM_C2)
    den = (mu_x ** 2 + mu_y ** 2 + _SSIM_C1) * (var_x + var_y + _SSIM_C2)
    return [float(v) for v in (num / den).mean(axis=(2, 3)).ravel()]


def ssim(a: np.ndarray, b: np.ndarray) -> float:
    vals = ssim_frames(a, b)
    return sum(vals) / len(vals)


def l1_loss(pred: np.ndarray, target: np.ndarray):
    """Mean absolute error and its subgradient (sign(0) taken as 0)."""
    check_same_shape(pred, target, "l1_loss")
    diff = pred - target
    loss = float(np.abs(diff).mean())
    grad = np.sign(diff) / diff.size
    return loss, grad.astype(pred.dtype, copy=False)


@dataclass
class EvalReport:
    clip_id: int
    psnr_per_frame: list[float]
    ssim_per_frame: list[float]

    @property
    def psnr_mean(self) -> float:
        return sum(self.psnr_per_frame) / len(self.psnr_per_frame)

    @property
    def ssim_mean(self) -> float:
        return sum(self.ssim_per_frame) / len(self.ssim_per_frame)


def evaluate_pair(clip_id: int, pred: np.ndarray, target: np.ndarray) -> EvalReport:
    return EvalReport(clip_id, psnr_frames(pred, target), ssim_frames(pred, target))


def write_eval_csv(path, reports: list[EvalReport]) -> None:
    with atomic_open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["clip_id", "frame", "psnr_db", "ssim"])
        for rep in reports:
            for t, (p, s) in enumerate(zip(rep.psnr_per_frame, rep.ssim_per_frame)):
                writer.writerow([rep.clip_id, t, repr(p), repr(s)])
