"""Learnable-sampling 3D convolution: operator, gradients, nets, experiments."""

import ctypes
import sys

from .conv3d import Conv3dParams, conv3d_ref, conv3d_transpose_ref
from .errors import (CheckpointError, ConfigError, Ls3dError, NumericError,
                     ShapeError)
from .gradcheck import gradcheck
from .ls3d import (Ls3dConv, bilinear_backward, bilinear_sample, ls3d_backward,
                   ls3d_forward)
from .metrics import EvalReport, l1_loss, psnr, ssim
from .net import NetworkSpec, VINet, build_net
from .synthdata import ClipSpec, ObjectSpec, add_gaussian_noise, gen_clip
from .train import TrainConfig, adam_step, load_checkpoint, save_checkpoint, train_loop
from .viz import SamplingMap, emit_map_image, receptive_field, sampling_map


def _keep_freed_pages() -> None:
    """Make glibc's malloc keep freed memory in the process.

    By default glibc serves each allocation above its mmap threshold with a
    fresh mapping and unmaps it on free, and trims the heap top above 128
    KiB, so every large numpy temporary is faulted in page by page again
    on the next call. This serves allocations of up to 32 MiB (glibc's
    maximum) from the heap and trims only above 64 MiB. Setting either
    value also turns off glibc's dynamic threshold, so both are set. No
    computed value depends on it. Elsewhere than glibc it does nothing.
    """
    if not sys.platform.startswith("linux"):
        return
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-3, 32 << 20)    # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)    # M_TRIM_THRESHOLD


_keep_freed_pages()


__version__ = "0.1.0"

__all__ = [
    "Conv3dParams", "conv3d_ref", "conv3d_transpose_ref",
    "Ls3dError", "ConfigError", "ShapeError", "NumericError", "CheckpointError",
    "gradcheck",
    "Ls3dConv", "bilinear_sample", "bilinear_backward", "ls3d_forward", "ls3d_backward",
    "EvalReport", "psnr", "ssim", "l1_loss",
    "NetworkSpec", "VINet", "build_net",
    "ClipSpec", "ObjectSpec", "gen_clip", "add_gaussian_noise",
    "TrainConfig", "adam_step", "train_loop", "save_checkpoint", "load_checkpoint",
    "SamplingMap", "sampling_map", "emit_map_image", "receptive_field",
    "__version__",
]
