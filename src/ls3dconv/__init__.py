"""Learnable-sampling 3D convolution: operator, gradients, nets, experiments."""

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
