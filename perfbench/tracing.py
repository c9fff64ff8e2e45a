"""Spans and computed work counts for the traced run.

The tracer patches the program's public functions and the layer protocol
(`forward(x, keep_state)` / `backward(g)`) from outside, records one span
(name, start, end, parent) per call in memory, and restores every patched
attribute on `uninstall`. The library itself is not modified.

Work counts (multiply-adds and bytes moved) are computed from array shapes
for every `ls3d_*` and `conv3d_*` call, never measured. They follow the
dense formulation of each operator:

* `conv3d_forward`: N * C_out * To*Ho*Wo * C_in * Kt*Kh*Kw MACs (zero
  padding included, as im2col computes it); the backward is twice that
  (one product for grad_w, one for the input-gradient columns).
* `conv3d_transpose_forward`: N * C_in * T*H*W * C_out * Kt*Kh*Kw MACs
  (the column product before the overlap-add); the backward is twice that.
* `ls3d_forward`: per tap, output point and input channel, C_out MACs of
  the main product, 4 for the bilinear corners and 1 for the mask.
* `ls3d_backward`: per tap, output point and input channel, 2 * C_out MACs
  (grad_w and the column gradient), 4 for the bilinear scatter, 2 for the
  offset gradient and 1 for the mask gradient.

Bytes moved are the bytes of every array the call reads or writes at its
boundary (inputs, weights, fields, outputs, gradients).
"""

from __future__ import annotations

import json
import time
from bisect import bisect_right
from collections import Counter, defaultdict

import numpy as np

from ls3dconv import ls3d, metrics, net, synthdata, train

TAPS = 27

# Offset/mask branch convs get spans for their work counts, but their time
# stays in the self time of the Ls3dConv call that runs them.
TRANSPARENT = frozenset({"ls3d.branch.conv3d_forward", "ls3d.branch.conv3d_backward"})


def _conv_macs(params, out_spatial, n):
    c_out, c_in = params.out_channels, params.in_channels
    k = int(np.prod(params.kernel))
    return n * c_out * c_in * k * int(np.prod(out_spatial))


def _work_conv3d_forward(out, x, params):
    y, _ = out
    return (_conv_macs(params, y.shape[2:], x.shape[0]),
            x.nbytes + params.weight.nbytes + y.nbytes)


def _work_conv3d_backward(out, ctx, grad_y):
    x_shape, xp, params, out_shape = ctx
    gx, gw, _ = out
    return (2 * _conv_macs(params, out_shape, x_shape[0]),
            xp.nbytes + grad_y.nbytes + params.weight.nbytes + gx.nbytes + gw.nbytes)


def _work_conv3d_transpose_forward(out, x, params):
    y, _ = out
    return (_conv_macs(params, x.shape[2:], x.shape[0]),
            x.nbytes + params.weight.nbytes + y.nbytes)


def _work_conv3d_transpose_backward(out, ctx, grad_y):
    x, params, _ = ctx
    gx, gw, _ = out
    return (2 * _conv_macs(params, x.shape[2:], x.shape[0]),
            x.nbytes + grad_y.nbytes + params.weight.nbytes + gx.nbytes + gw.nbytes)


def _points_channels(x):
    n_, c_in, t_, h, w = x.shape
    return n_ * t_ * h * w * c_in * TAPS


def _work_ls3d_forward(out, x, params, offsets, masks):
    y, _ = out
    macs = _points_channels(x) * (params.out_channels + 4 + 1)
    return macs, (x.nbytes + params.weight.nbytes + offsets.nbytes + masks.nbytes
                  + y.nbytes)


def _work_ls3d_backward(out, ctx, grad_y):
    x, params, offsets, masks, _ = ctx
    macs = _points_channels(x) * (2 * params.out_channels + 4 + 2 + 1)
    read = x.nbytes + params.weight.nbytes + offsets.nbytes + masks.nbytes + grad_y.nbytes
    return macs, read + sum(g.nbytes for g in out)


def corners_inside(offsets: np.ndarray) -> tuple[int, int]:
    """(bilinear corner reads inside the frame, all 4*27*N*T*H*W reads)."""
    n_, _, t_, h, w = offsets.shape
    inside = 0
    base_r = np.arange(h, dtype=np.float64)[:, None]
    base_c = np.arange(w, dtype=np.float64)[None, :]
    for k in range(TAPS):
        pr, pc = (k // 3) % 3 - 1, k % 3 - 1
        r0 = np.floor(base_r + pr + offsets[:, 2 * k].astype(np.float64))
        c0 = np.floor(base_c + pc + offsets[:, 2 * k + 1].astype(np.float64))
        rows_in = [(r0 + d >= 0) & (r0 + d < h) for d in (0, 1)]
        cols_in = [(c0 + d >= 0) & (c0 + d < w) for d in (0, 1)]
        inside += sum(int(np.count_nonzero(ri & ci)) for ri in rows_in for ci in cols_in)
    return inside, 4 * TAPS * n_ * t_ * h * w


class Patcher:
    """Replaces module, class or instance attributes and restores them."""

    def __init__(self):
        self._patches: list = []

    def patch(self, owner, attr, replacement):
        had_own = attr in vars(owner)
        self._patches.append((owner, attr, getattr(owner, attr) if had_own else None, had_own))
        setattr(owner, attr, replacement)

    def uninstall(self):
        for owner, attr, original, had_own in reversed(self._patches):
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()


class Tracer(Patcher):
    """In-memory span recorder over patched functions and layer methods."""

    def __init__(self):
        super().__init__()
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.work: dict[int, tuple[int, int]] = {}
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._pending_offsets: list[tuple[float, np.ndarray]] = []

    # --- recording ---------------------------------------------------------

    def wrap(self, name, fn, work=None, on_call=None):
        def traced(*args, **kwargs):
            i = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.starts.append(0.0)
            self.ends.append(0.0)
            self._stack.append(i)
            self.starts[i] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self.ends[i] = time.perf_counter()
                self._stack.pop()
            if work is not None:
                self.work[i] = work(out, *args, **kwargs)
            if on_call is not None:
                on_call(*args, **kwargs)
            return out
        return traced

    # --- patching ------------------------------------------------------------

    def _patch_fn(self, owner, attr, name, work=None, on_call=None):
        self.patch(owner, attr, self.wrap(name, getattr(owner, attr), work, on_call))

    def install(self):
        """Patch every traced module-level function and layer class."""
        for fn, work in (("conv3d_forward", _work_conv3d_forward),
                         ("conv3d_backward", _work_conv3d_backward),
                         ("conv3d_transpose_forward", _work_conv3d_transpose_forward),
                         ("conv3d_transpose_backward", _work_conv3d_transpose_backward)):
            self._patch_fn(net, fn, f"conv3d.{fn}", work)
        for fn, work in (("conv3d_forward", _work_conv3d_forward),
                         ("conv3d_backward", _work_conv3d_backward)):
            self._patch_fn(ls3d, fn, f"ls3d.branch.{fn}", work)
        self._patch_fn(ls3d, "ls3d_forward", "ls3d.ls3d_forward", _work_ls3d_forward,
                       on_call=self._defer_offsets)
        self._patch_fn(ls3d, "ls3d_backward", "ls3d.ls3d_backward", _work_ls3d_backward)
        for meth in ("forward", "backward"):
            self._patch_fn(ls3d.Ls3dConv, meth, f"ls3d.Ls3dConv.{meth}")
        self._patch_fn(train, "adam_step", "train.adam_step")
        self._patch_fn(train, "clip_grad_norm", "train.clip_grad_norm")
        for module in (train, metrics):
            self._patch_fn(module, "l1_loss", "metrics.l1_loss")
        self._patch_fn(metrics, "psnr_frames", "metrics.psnr_frames")
        self._patch_fn(metrics, "ssim_frames", "metrics.ssim_frames")
        def count_clip(*args, **kwargs):
            self.counts["synthdata.clips_generated"] += 1
        for module in (train, synthdata):
            self._patch_fn(module, "gen_clip", "synthdata.gen_clip", on_call=count_clip)
        self._patch_fn(train, "add_gaussian_noise", "synthdata.add_gaussian_noise")
        self._patch_fn(train, "save_checkpoint", "fileio.save_checkpoint")
        self._patch_fn(train, "load_checkpoint", "fileio.load_checkpoint")

    def trace_net(self, model):
        """Spans around a net's forward/backward and each top-level layer."""
        self._patch_fn(model, "forward", "net.forward")
        self._patch_fn(model, "backward", "net.backward")
        for layer in model.layers:
            self._patch_fn(layer, "forward", f"net.{layer.name}.forward")
            self._patch_fn(layer, "backward", f"net.{layer.name}.backward")

    def _defer_offsets(self, x, params, offsets, masks):
        self._pending_offsets.append((time.perf_counter(), offsets))

    def drain(self, windows):
        """Count corner reads of the ls3d_forward calls made inside `windows`.

        Runs between timed units, so the counting costs no unit any time.
        """
        starts = [w[0] for w in windows]
        for t, offsets in self._pending_offsets:
            k = bisect_right(starts, t) - 1
            if k >= 0 and t < windows[k][1]:
                inside, total = corners_inside(offsets)
                self.counts["ls3d.corners_inside"] += inside
                self.counts["ls3d.corners_total"] += total
        self._pending_offsets.clear()

    # --- analysis ----------------------------------------------------------

    def write_jsonl(self, path):
        with open(path, "w") as f:
            for i, name in enumerate(self.names):
                rec = {"id": i, "name": name, "start": self.starts[i], "end": self.ends[i],
                       "parent": self.parents[i]}
                if i in self.work:
                    rec["macs"], rec["bytes"] = self.work[i]
                f.write(json.dumps(rec) + "\n")

    def summarize(self, windows):
        """Aggregate spans whose root starts inside one of `windows`.

        windows: sorted, disjoint (start, end) pairs, one per timed unit.
        Returns per-name self seconds, inclusive seconds, MACs, bytes,
        call counts, and the seconds covered by root spans.
        """
        starts = [w[0] for w in windows]
        n = len(self.names)
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        child = [0.0] * n
        root = list(range(n))
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                if self.names[i] not in TRANSPARENT:
                    child[p] += dur[i]
                root[i] = root[p]
        agg = defaultdict(lambda: {"self": 0.0, "incl": 0.0, "macs": 0, "bytes": 0, "calls": 0})
        covered = 0.0
        for i in range(n):
            r = root[i]
            k = bisect_right(starts, self.starts[r]) - 1
            if k < 0 or self.starts[r] >= windows[k][1]:
                continue
            a = agg[self.names[i]]
            a["self"] += dur[i] - child[i]
            a["incl"] += dur[i]
            a["calls"] += 1
            if i in self.work:
                a["macs"] += self.work[i][0]
                a["bytes"] += self.work[i][1]
            if self.parents[i] < 0:
                covered += dur[i]
        return agg, covered

    def per_call_ms(self, name):
        """Mean inclusive milliseconds per call of `name` over all spans."""
        durs = [e - s for n, s, e in zip(self.names, self.starts, self.ends) if n == name]
        return 1e3 * sum(durs) / len(durs) if durs else 0.0

