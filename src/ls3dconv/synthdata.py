"""Deterministic synthetic video clips with controllable motion.

Scenes are a static sinusoidal background plus textured objects (rects and
discs, checker or sinusoid textures riding along with the object) moving
at constant velocity. Placement is anti-aliased: rect coverage is the
exact pixel/box overlap and disc edges get a one-pixel linear ramp, so
frames vary smoothly with sub-pixel object positions. Everything is a
pure function of the spec, including its seed.

The three color channels carry phase-shifted variants of each texture so
channel mixing in a model is never trivial.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError

__all__ = ["ObjectSpec", "ClipSpec", "gen_clip", "add_gaussian_noise", "random_clip_spec"]

# Spatial frequency of the background sinusoid, in cycles per pixel.
BACKGROUND_FREQ = 0.08


@dataclass(frozen=True)
class ObjectSpec:
    shape: str                      # "rect" | "disc"
    texture: str                    # "checker" | "sinusoid"
    frequency: float                # cycles/pixel for sinusoid, cell size for checker
    velocity: tuple[float, float]   # (v_row, v_col) pixels/frame
    start: tuple[float, float]      # (row, col) of the object center at frame 0
    extent: tuple[float, float]     # rect (height, width) or (radius, radius)


@dataclass(frozen=True)
class ClipSpec:
    size: tuple[int, int]
    num_frames: int
    objects: tuple[ObjectSpec, ...]
    seed: int = 0

    def __post_init__(self):
        h, w = self.size
        if h < 4 or w < 4 or self.num_frames < 1:
            raise ShapeError(f"degenerate clip spec: size={self.size}, "
                             f"num_frames={self.num_frames}")
        bound = h / self.num_frames
        for obj in self.objects:
            speed = float(np.hypot(*obj.velocity))
            if not np.isfinite(speed) or speed > bound + 1e-9:
                raise ShapeError(f"object velocity {obj.velocity} exceeds bound "
                                 f"H/num_frames = {bound:.3g}")


def _texture(obj: ObjectSpec, local_r: np.ndarray, local_c: np.ndarray,
             phases: np.ndarray) -> np.ndarray:
    """Per-channel texture value on object-local coordinates, in [0, 1]."""
    if obj.texture == "checker":
        cell = max(obj.frequency, 1.0)
        parity = (np.floor(local_r / cell) + np.floor(local_c / cell)) % 2
        base = 0.25 + 0.5 * parity                                  # (H, W)
        return np.clip(base[None] + 0.15 * np.sin(phases)[:, None, None], 0.05, 0.95)
    diag = local_r + 0.7 * local_c
    arg = 2 * np.pi * obj.frequency * diag
    return 0.5 + 0.42 * np.sin(arg[None] + phases[:, None, None])


def _coverage(obj: ObjectSpec, center: tuple[float, float], h: int, w: int) -> np.ndarray:
    rr = np.arange(h, dtype=np.float64)
    cc = np.arange(w, dtype=np.float64)
    r0, c0 = center
    if obj.shape == "rect":
        hh, ww = obj.extent
        top, left = r0 - hh / 2, c0 - ww / 2
        cov_r = np.clip(np.minimum(rr + 1, top + hh) - np.maximum(rr, top), 0.0, 1.0)
        cov_c = np.clip(np.minimum(cc + 1, left + ww) - np.maximum(cc, left), 0.0, 1.0)
        return cov_r[:, None] * cov_c[None, :]
    if obj.shape == "disc":
        radius = obj.extent[0]
        d = np.hypot(rr[:, None] + 0.5 - r0, cc[None, :] + 0.5 - c0)
        return np.clip(radius - d + 0.5, 0.0, 1.0)
    raise ShapeError(f"unknown object shape '{obj.shape}'")


def gen_clip(spec: ClipSpec) -> np.ndarray:
    """Render (1, 3, num_frames, H, W) float32 frames in [0, 1]."""
    h, w = spec.size
    rng = np.random.default_rng(spec.seed)
    bg_phases = rng.uniform(0, 2 * np.pi, size=3)
    obj_phases = [rng.uniform(0, 2 * np.pi, size=3) for _ in spec.objects]

    rr = np.arange(h, dtype=np.float64)[:, None]
    cc = np.arange(w, dtype=np.float64)[None, :]
    bg_arg = 2 * np.pi * BACKGROUND_FREQ * (rr + 1.3 * cc)
    background = 0.5 + 0.3 * np.sin(bg_arg[None] + bg_phases[:, None, None])

    out = np.empty((1, 3, spec.num_frames, h, w), dtype=np.float32)
    for t in range(spec.num_frames):
        frame = background.copy()
        for obj, phases in zip(spec.objects, obj_phases):
            center = (obj.start[0] + t * obj.velocity[0],
                      obj.start[1] + t * obj.velocity[1])
            alpha = _coverage(obj, center, h, w)[None]
            local_r = rr - center[0]
            local_c = cc - center[1]
            tex = _texture(obj, local_r, local_c, phases)
            frame = frame * (1 - alpha) + tex * alpha
        out[0, :, t] = np.clip(frame, 0.0, 1.0)
    return out


def add_gaussian_noise(frames: np.ndarray, sigma_8bit: float, seed: int) -> np.ndarray:
    """Additive i.i.d. Gaussian noise at sigma/255, clamped back to [0, 1]."""
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(frames.shape) * (sigma_8bit / 255.0)
    return np.clip(frames + noise.astype(frames.dtype), 0.0, 1.0)


def random_clip_spec(seed: int, size: int = 32, motion: float = 4.0,
                     num_objects: int = 2, num_frames: int = 5) -> ClipSpec:
    """Randomized scene with fixed motion magnitude but random direction.

    Objects start positioned so they stay mostly on-screen over the clip.
    """
    rng = np.random.default_rng(seed)
    objects = []
    for i in range(num_objects):
        angle = rng.uniform(0, 2 * np.pi)
        velocity = (motion * np.sin(angle), motion * np.cos(angle))
        travel = motion * (num_frames - 1)
        margin = min(size / 2 - 1, travel / 2 + 4)
        center = (size / 2 + rng.uniform(-margin, margin) - velocity[0] * (num_frames - 1) / 2,
                  size / 2 + rng.uniform(-margin, margin) - velocity[1] * (num_frames - 1) / 2)
        shape = "rect" if i % 2 == 0 else "disc"
        texture = "checker" if rng.uniform() < 0.5 else "sinusoid"
        ext = rng.uniform(size / 6, size / 3)
        extent = (ext, ext * rng.uniform(0.7, 1.4)) if shape == "rect" else (ext / 2, ext / 2)
        frequency = rng.uniform(2.5, 5.0) if texture == "checker" else rng.uniform(0.08, 0.2)
        objects.append(ObjectSpec(shape, texture, float(frequency),
                                  (float(velocity[0]), float(velocity[1])),
                                  (float(center[0]), float(center[1])), extent))
    return ClipSpec(size=(size, size), num_frames=num_frames, objects=tuple(objects), seed=seed)

