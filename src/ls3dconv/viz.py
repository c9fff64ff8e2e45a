"""Where did an output pixel sample from?

Seed a unit gradient at one output coordinate (summed over output
channels), run the analytic backward, and read off the gradient magnitude
on the input frames: large magnitude means the network leaned on that
input location. For a zero-offset network the support of this map must
stay inside the analytic receptive field; learned offsets can move it
outside, which is the whole point of the operator.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ShapeError
from .fileio import atomic_open, write_pgm

__all__ = ["SamplingMap", "sampling_map", "emit_map_image", "receptive_field",
           "support_within", "support_centroid"]


@dataclass
class SamplingMap:
    maps: np.ndarray                  # (T_in, H, W), channel-summed |gradient|
    norm_max: float
    all_zero: bool = False            # the output pixel is disconnected from the input


def sampling_map(model, x: np.ndarray, out_coord: tuple[int, int, int]) -> SamplingMap:
    """Backpropagate from one output pixel and return per-input-frame |grad|;
    NumericError if the map is not finite, as from a net that is not."""
    y = model.forward(x, keep_state=True)
    frame, row, col = out_coord
    _, _, t_out, h_out, w_out = y.shape
    if not (0 <= frame < t_out and 0 <= row < h_out and 0 <= col < w_out):
        raise ShapeError(f"out_coord {out_coord} outside output grid "
                         f"{(t_out, h_out, w_out)}")
    grad_y = np.zeros_like(y)
    grad_y[0, :, frame, row, col] = 1.0
    grad_x = model.backward(grad_y)
    maps = np.abs(grad_x[0]).sum(axis=0)  # (T_in, H, W)
    if not np.isfinite(maps).all():
        raise NumericError(f"sampling map of output point {out_coord} is not finite")
    peak = float(maps.max())
    return SamplingMap(maps, peak, peak == 0.0)


def emit_map_image(smap: SamplingMap, out_dir) -> list:
    """One PGM per input frame, `sampling_frame<t>.pgm`, plus a top-50
    coordinate CSV, `sampling_top50.csv`. Every frame is divided by the
    map's peak, so all frames share one scale on which the peak is white."""
    paths = []
    t_in = smap.maps.shape[0]
    peak = smap.norm_max if smap.norm_max > 0 else 1.0
    for t in range(t_in):
        path = f"{out_dir}/sampling_frame{t}.pgm"
        write_pgm(path, smap.maps[t] / peak)
        paths.append(path)
    csv_path = f"{out_dir}/sampling_top50.csv"
    order = np.argsort(smap.maps, axis=None)[::-1][:50]
    with atomic_open(csv_path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["rank", "frame", "row", "col", "magnitude"])
        for rank, flat_idx in enumerate(order, start=1):
            t, r, c = np.unravel_index(int(flat_idx), smap.maps.shape)
            writer.writerow([rank, int(t), int(r), int(c), repr(float(smap.maps[t, r, c]))])
    paths.append(csv_path)
    return paths


# --- analytic receptive field -------------------------------------------------

def receptive_field(net, input_shape, out_coord: tuple[int, int, int]):
    """Closed intervals of input (t, row, col) that can reach out_coord.

    Walks `net.geometry()`, a list of `Conv3dParams`, forward with
    `output_shape` for every stage's input size, then backward over the
    intervals. For a forward conv, output index o reads inputs
    [o*s - p, o*s - p + k - 1]; for a transposed conv it reads inputs i
    with o = i*s - p + j, j in [0, k).
    """
    convs = net.geometry()
    sizes = [tuple(input_shape[2:])]
    for params in convs:
        sizes.append(params.output_shape(sizes[-1]))
    for name, o, size in zip("THW", out_coord, sizes[-1]):
        if not 0 <= o < size:
            raise ShapeError(f"out_coord along {name} is {o}, output size {size}")
    lo = list(out_coord)
    hi = list(out_coord)
    for params, in_sizes in zip(reversed(convs), reversed(sizes[:-1])):
        for ax, (k, s, p) in enumerate(zip(params.kernel, params.stride, params.padding)):
            if params.transposed:
                lo[ax] = -(-(lo[ax] + p - k + 1) // s)  # ceil division
                hi[ax] = (hi[ax] + p) // s
            else:
                lo[ax] = lo[ax] * s - p
                hi[ax] = hi[ax] * s - p + k - 1
            lo[ax] = max(lo[ax], 0)
            hi[ax] = min(hi[ax], in_sizes[ax] - 1)
    return tuple((int(a), int(b)) for a, b in zip(lo, hi))


def support_within(smap: SamplingMap, intervals) -> bool:
    """True when every nonzero map entry lies inside the intervals."""
    (t0, t1), (r0, r1), (c0, c1) = intervals
    t, r, c = np.nonzero(smap.maps > 0)
    if t.size == 0:
        return True
    return bool(t.min() >= t0 and t.max() <= t1 and r.min() >= r0 and r.max() <= r1
                and c.min() >= c0 and c.max() <= c1)


def support_centroid(smap: SamplingMap, frame: int) -> tuple[float, float]:
    """Magnitude-weighted centroid of one frame's map."""
    m = smap.maps[frame]
    total = m.sum()
    if total == 0:
        raise ShapeError(f"frame {frame} of the sampling map is all zero")
    rr = np.arange(m.shape[0])[:, None]
    cc = np.arange(m.shape[1])[None, :]
    return float((m * rr).sum() / total), float((m * cc).sum() / total)
