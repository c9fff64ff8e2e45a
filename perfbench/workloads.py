"""The benchmark's workloads and the measurement around them.

Every workload is a closed loop with one client: one training step
(batch 2) or one inference clip at a time, back to back, in this process.
Inputs are generated from the workload seed; the program receives only
them. A run attempts whole rounds of the same operations, so every round
of one seed does the same work, and checks its outputs outside the timed
region against the independent computations in `checks`.
"""

from __future__ import annotations

import dataclasses
import math
import os
import resource
import statistics
import sys
import time

import numpy as np

from ls3dconv import Ls3dError, net, train
from ls3dconv.ls3d import Ls3dConv

import checks
from tracing import Patcher, Tracer

SETUP_REPS = 5
HELDOUT_CLIPS = 8
POOL_CLIPS = 8
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

# Seed offsets keep the generated sets of one workload seed apart from
# each other and from the training clips (seed * 100003 + 11 + 977 * i).
NET_SEED = 1_000_003
HELDOUT_SEED = 10 ** 12
BRANCH_SEED = 2_000_003
CHECK_SEED = 3_000_017

# Tolerances of the checks, relative to the sum of |terms| of each output
# (float32 arithmetic against a float64 reference).
DEFINITION_TOL = 1e-5
GRAD_TOL = 1e-6
# 20 log10(255 / 25): additive noise at sigma 25/255 before clamping.
NOISY_PSNR_FLOOR = 20.0 * math.log10(255.0 / 25.0)

# Top-level layers of the interpolation net, which holds every layer of
# the denoise net too; per-layer metrics are named after them.
LAYERS = ["enc1", "enc1.relu", "enc2", "enc2.relu",
          *(f"block{i}" for i in range(1, 7)),
          "tdeconv1", "tdeconv1.relu", "tdeconv2", "tdeconv2.relu",
          "dec1", "dec1.relu", "dec2"]


class Outcome:
    """Operations attempted and failed, and whether every check held."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.checks = 0
        self.correct = True

    def ops(self, attempted, failed=0):
        self.attempted += attempted
        self.failed += failed

    def check(self, name, fn, ok):
        """Run one check; a program error counts as a failed operation."""
        self.attempted += 1
        self.checks += 1
        try:
            value = fn()
        except Ls3dError as exc:
            self.failed += 1
            print(f"check {name}: program error: {exc}", file=sys.stderr)
            return
        if not ok(value):
            self.correct = False
            print(f"check {name} FAILED: {value!r}", file=sys.stderr)


def _params_equal_bitwise(a, b):
    pa, pb = a.parameters(), b.parameters()
    return pa.keys() == pb.keys() and all(
        pa[k].dtype == pb[k].dtype and pa[k].tobytes() == pb[k].tobytes() for k in pa)


def _shared_checks(out, model, x, seed):
    """Operator checks on the calls one forward pass makes."""
    with checks.Capture() as cap:
        model.forward(x)
    rng = np.random.default_rng(seed + CHECK_SEED)
    for i, call in enumerate(cap.ls3d_calls):
        out.check(f"ls3d_definition[{i}]", lambda: checks.ls3d_call_error(call, rng),
                  lambda e: e <= DEFINITION_TOL)
    for i, call in enumerate(cap.conv_calls):
        out.check(f"conv3d_definition[{i}]", lambda: checks.conv_call_error(call, rng),
                  lambda e: e <= DEFINITION_TOL)
    plain = next(c for c in cap.conv_calls
                 if c[0][1].stride == (1, 1, 1) and tuple(c[0][1].padding) == (1, 1, 1))
    out.check("ls3d_zero_offset_is_conv", lambda: checks.zero_offset_error(plain),
              lambda e: e <= DEFINITION_TOL)


class TrainWorkload:
    """Train the interpolation net; LS3D in `ls3d_blocks` (may be empty).

    One round is a fixed training run (2 epochs over 16 clips, 16 steps,
    learning rate 3e-3), then a checkpoint save and load. The held-out
    PSNR is scored after the first round; later rounds must repeat its
    loss history bit for bit.

    The net's output bias starts at 0.5, the mean level of the clips.
    From the zero bias, 16 steps end inside the start-up transient, where
    the held-out PSNR swings between 5 and 10 dB from seed to seed; from
    0.5 it lands near 13 dB. The change costs no compute.
    """

    def __init__(self, seed, ls3d_blocks):
        self.seed = seed
        self.spec = net.NetworkSpec(channels=32, ls3d_block_indices=frozenset(ls3d_blocks))
        self.cfg = train.TrainConfig(task="interpolate", size=32, batch_size=2, clips=16,
                                     epochs=2, learning_rate=3e-3, eval_every=0, seed=seed)
        self.warm_cfg = dataclasses.replace(self.cfg, clips=self.cfg.batch_size, epochs=1)
        self.clips_per_unit = self.cfg.batch_size
        self.steps_per_round = self.cfg.epochs * -(-self.cfg.clips // self.cfg.batch_size)
        # Held-out and warm-up clips in one set-up, training clips in one round.
        self.clips_used = HELDOUT_CLIPS + self.warm_cfg.clips + self.cfg.clips
        self.ckpt_path = os.path.join(OUT_DIR, f"ckpt-{os.getpid()}.ls3d")
        self.first = None

    def setup(self):
        """Held-out clips, net build and one warm-up step."""
        self.heldout = train.make_dataset(self.cfg, HELDOUT_CLIPS, HELDOUT_SEED + 1009 * self.seed)
        train.train_loop(self._fresh_net(), self.warm_cfg)

    def _fresh_net(self):
        model = net.build_net(self.spec, NET_SEED + self.seed)
        model.parameters()[f"{model.layers[-1].name}.bias"][...] = 0.5
        return model

    def round(self, tracer, out):
        model = self._fresh_net()
        if tracer is not None:
            tracer.trace_net(model)
        stamps = []
        inner = model.forward

        def forward(x, keep_state=False):
            if keep_state:  # a training step starts with its keep-state forward
                stamps.append(time.perf_counter())
            return inner(x, keep_state)

        # The hook and the net form a reference cycle; removing the hook lets
        # the net go with the round, so peak memory does not grow with rounds.
        hook = Patcher()
        hook.patch(model, "forward", forward)
        try:
            result = train.train_loop(model, self.cfg)
        except Ls3dError as exc:
            print(f"training round failed: {exc}", file=sys.stderr)
            out.ops(self.steps_per_round, failed=self.steps_per_round)
            return []
        finally:
            hook.uninstall()
        stamps.append(time.perf_counter())
        windows = list(zip(stamps[:-1], stamps[1:]))
        out.ops(len(windows))
        if tracer is not None:
            tracer.drain(windows)
        out.check("checkpoint_roundtrip", lambda: self._roundtrip(model, result),
                  lambda same: same)
        if self.first is None:
            self.first = (model, result.loss_rows)
        else:
            out.check("round_repeats_loss_history",
                      lambda: result.loss_rows == self.first[1], lambda same: same)
        return windows

    def _roundtrip(self, model, result):
        train.save_checkpoint(self.ckpt_path, model, result.adam_state)
        fresh = net.build_net(self.spec, NET_SEED + self.seed + 1)
        train.load_checkpoint(self.ckpt_path, fresh)
        return _params_equal_bitwise(model, fresh)

    def quality(self):
        """Mean held-out PSNR of the net after the first round."""
        reports = train.evaluate(self.first[0], self.heldout)
        return sum(r.psnr_mean for r in reports) / len(reports)

    def check(self, out):
        model = self.first[0]
        x = np.concatenate([s.inputs for s in self.heldout[:self.cfg.batch_size]], axis=0)
        _shared_checks(out, model, x, self.seed)
        out.check("step_gradient_directional",
                  lambda: checks.directional_grad_error(self.spec, NET_SEED + self.seed, model,
                                                        x, self.seed + CHECK_SEED),
                  lambda e: e <= GRAD_TOL)


# Branch weight gains for the denoise net, whose block inputs have an RMS
# near 0.08: they give fractional offsets with mean |dp| of 0.6 to 1.1
# pixels and masks spread over (0, 1), with 10% and 90% quantiles near 0.1
# and 0.9.
OFFSET_GAIN = 15.0
MASK_GAIN = 20.0


def draw_branches(model, seed):
    """Seeded offset/mask branch weights, as after training.

    Zero-initialised branches would sample only integer points.
    """
    rng = np.random.default_rng(seed)
    for layer in model.layers:
        first = getattr(layer, "first", None)
        if not isinstance(first, Ls3dConv):
            continue
        for branch, gain, bias_scale in ((first.offset_branch, OFFSET_GAIN, 0.5),
                                         (first.mask_branch, MASK_GAIN, 1.0)):
            fan_in = branch.weight[0].size
            branch.weight[...] = rng.standard_normal(branch.weight.shape) * (gain / math.sqrt(fan_in))
            branch.bias[...] = rng.uniform(-bias_scale, bias_scale, branch.bias.shape)


class DenoiseWorkload:
    """Denoise net forward only, LS3D in blocks 5 and 6, scored per clip.

    One round runs every clip of a fixed pool once: a forward pass and its
    PSNR/SSIM against the clean clip, through `train.evaluate`. Later
    rounds must repeat the first round's scores bit for bit.
    """

    def __init__(self, seed):
        self.seed = seed
        self.spec = net.NetworkSpec(channels=32, task="denoise",
                                    ls3d_block_indices=frozenset({5, 6}),
                                    temporal_deconv_after=frozenset())
        self.cfg = train.TrainConfig(task="denoise", size=64, num_frames=5,
                                     noise_sigma=25.0, seed=seed)
        self.clips_per_unit = 1
        self.clips_used = POOL_CLIPS
        self.first = None
        self._traced_model = None

    def setup(self):
        """Clip pool, net build with drawn branches and one warm-up clip."""
        self.pool = train.make_dataset(self.cfg, POOL_CLIPS, HELDOUT_SEED + 1009 * self.seed)
        self.model = net.build_net(self.spec, NET_SEED + self.seed)
        draw_branches(self.model, BRANCH_SEED + self.seed)
        train.evaluate(self.model, self.pool[:1])

    def round(self, tracer, out):
        if tracer is not None and self._traced_model is not self.model:
            tracer.trace_net(self.model)
            self._traced_model = self.model
        windows, scores = [], []
        for sample in self.pool:
            start = time.perf_counter()
            try:
                report = train.evaluate(self.model, [sample])[0]
            except Ls3dError as exc:
                print(f"clip failed: {exc}", file=sys.stderr)
                out.ops(1, failed=1)
                continue
            windows.append((start, time.perf_counter()))
            out.ops(1)
            scores.append((report.psnr_per_frame, report.ssim_per_frame))
        if tracer is not None:
            tracer.drain(windows)
        if self.first is None:
            self.first = scores
        else:
            out.check("round_repeats_scores", lambda: scores == self.first, lambda same: same)
        return windows

    def quality(self):
        """Mean PSNR of the net's output against the clean clips."""
        psnrs = [p for frames, _ in self.first for p in frames]
        return sum(psnrs) / len(psnrs)

    def check(self, out):
        for i, (sample, (psnr_prog, ssim_prog)) in enumerate(zip(self.pool, self.first)):
            pred = self.model.forward(sample.inputs)
            out.check(f"psnr_independent[{i}]",
                      lambda: max(abs(a - b) for a, b in
                                  zip(checks.psnr_frames(pred, sample.targets), psnr_prog)),
                      lambda d: d <= 1e-9)
            out.check(f"ssim_independent[{i}]",
                      lambda: max(abs(a - b) for a, b in
                                  zip(checks.ssim_frames(pred, sample.targets), ssim_prog)),
                      lambda d: d <= 1e-9)
        # Clamping to [0, 1] only shrinks the noise, so the input PSNR should
        # not fall below the floor. One clip's noise energy can, by chance
        # (the lowest seen is 0.02 dB under), so the check pools the MSE of
        # every pixel of the pool.
        out.check("noisy_input_psnr",
                  lambda: 10.0 * math.log10(1.0 / statistics.fmean(
                      float(np.mean((s.inputs.astype(np.float64) - s.targets) ** 2))
                      for s in self.pool)),
                  lambda p: NOISY_PSNR_FLOOR <= p <= NOISY_PSNR_FLOOR + 1.0)
        _shared_checks(out, self.model, self.pool[0].inputs, self.seed)


WORKLOADS = {
    "train-ls3d": lambda seed: TrainWorkload(seed, range(1, 7)),
    "train-plain": lambda seed: TrainWorkload(seed, ()),
    "denoise-infer": DenoiseWorkload,
}


# --- measurement ------------------------------------------------------------------

def _measure(wl, out, seconds=None, rounds=None, tracer=None, on_first_round=None):
    """Whole rounds until `seconds` have passed, or exactly `rounds` rounds."""
    windows, walls = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        windows += wl.round(tracer, out)
        walls.append(time.perf_counter() - t0)
        if len(walls) == 1 and on_first_round is not None:
            on_first_round()
        if rounds is not None and len(walls) >= rounds:
            break
        if rounds is None and time.perf_counter() - start >= seconds:
            break
    return windows, walls


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def _traced_pass(wl, out, rounds, untraced_wall, name, seed):
    tracer = Tracer()
    tracer.install()
    clips = {}

    def count_clips():
        clips["generated"] = tracer.counts["synthdata.clips_generated"]

    try:
        wl.setup()
        windows, walls = _measure(wl, out, rounds=rounds, tracer=tracer,
                                  on_first_round=count_clips)
    finally:
        tracer.uninstall()
    tracer.write_jsonl(os.path.join(OUT_DIR, f"spans-{name}-seed{seed}.jsonl"))
    metrics = layer_metrics(tracer, windows)
    metrics.update({
        "synthdata.clips_generated": (clips["generated"], "count"),
        "synthdata.clips_used_ratio": (wl.clips_used / clips["generated"], "ratio"),
        "fileio.checkpoint_mb": (os.path.getsize(wl.ckpt_path) / 1e6
                                 if getattr(wl, "ckpt_path", None) else 0.0, "MB"),
        "trace.traced_wall_s": (sum(walls), "s"),
        "trace.untraced_wall_s": (untraced_wall, "s"),
        "trace.overhead_pct": (100.0 * (sum(walls) / untraced_wall - 1.0), "%"),
    })
    return metrics


def layer_metrics(tracer, windows):
    """Per-unit self times, work counts and coverage from the spans."""
    agg, covered = tracer.summarize(windows)
    units = len(windows)
    wall = sum(e - s for s, e in windows)

    def get(name, key):
        return agg[name][key] if name in agg else 0

    def self_ms(name):
        return (1e3 * get(name, "self") / units, "ms")

    def incl_ms(name):
        return (1e3 * get(name, "incl") / units, "ms")

    def gmac_per_s(name):
        secs = get(name, "self")
        return (get(name, "macs") / secs / 1e9 if secs else 0.0, "GMAC/s")

    def per_unit(names, key, scale, unit):
        return (sum(get(n, key) for n in names) / units / scale, unit)

    ls3d_ops = ["ls3d.ls3d_forward", "ls3d.ls3d_backward"]
    branch = ["ls3d.branch.conv3d_forward", "ls3d.branch.conv3d_backward"]
    conv_ops = [f"conv3d.conv3d_{op}" for op in
                ("forward", "backward", "transpose_forward", "transpose_backward")]
    corners = tracer.counts["ls3d.corners_total"]
    m = {
        "ls3d.ls3d_forward.ms": self_ms("ls3d.ls3d_forward"),
        "ls3d.ls3d_backward.ms": self_ms("ls3d.ls3d_backward"),
        "ls3d.Ls3dConv.forward.self_ms": self_ms("ls3d.Ls3dConv.forward"),
        "ls3d.Ls3dConv.backward.self_ms": self_ms("ls3d.Ls3dConv.backward"),
        "ls3d.ls3d_forward.gmac_per_s": gmac_per_s("ls3d.ls3d_forward"),
        "ls3d.ls3d_backward.gmac_per_s": gmac_per_s("ls3d.ls3d_backward"),
        "ls3d.mmac": per_unit(ls3d_ops, "macs", 1e6, "MMAC"),
        "ls3d.mbytes": per_unit(ls3d_ops, "bytes", 1e6, "MB"),
        "ls3d.branch_conv.ms": (sum(incl_ms(n)[0] for n in branch), "ms"),
        "ls3d.branch_conv.mmac": per_unit(branch, "macs", 1e6, "MMAC"),
        "ls3d.corners_inside_ratio": (tracer.counts["ls3d.corners_inside"] / corners
                                      if corners else 0.0, "ratio"),
        **{f"{op}.ms": self_ms(op) for op in conv_ops},
        "conv3d.conv3d_forward.gmac_per_s": gmac_per_s("conv3d.conv3d_forward"),
        "conv3d.conv3d_backward.gmac_per_s": gmac_per_s("conv3d.conv3d_backward"),
        "conv3d.mmac": per_unit(conv_ops, "macs", 1e6, "MMAC"),
        "net.forward.ms": incl_ms("net.forward"),
        "net.backward.ms": incl_ms("net.backward"),
    }
    for layer in LAYERS:
        for phase in ("forward", "backward"):
            m[f"net.{layer}.{phase}_ms"] = incl_ms(f"net.{layer}.{phase}")
    m.update({
        "train.adam_step.ms": self_ms("train.adam_step"),
        "train.clip_grad_norm.ms": self_ms("train.clip_grad_norm"),
        "train.step.unaccounted_ms": (1e3 * (wall - covered) / units, "ms"),
        "trace.coverage": (covered / wall, "ratio"),
        "metrics.l1_loss.ms": self_ms("metrics.l1_loss"),
        "metrics.psnr_frames.ms": self_ms("metrics.psnr_frames"),
        "metrics.ssim_frames.ms": self_ms("metrics.ssim_frames"),
        "synthdata.gen_clip.ms": (tracer.per_call_ms("synthdata.gen_clip"), "ms"),
        "synthdata.add_gaussian_noise.ms": (tracer.per_call_ms("synthdata.add_gaussian_noise"),
                                            "ms"),
        "fileio.save_checkpoint.ms": (tracer.per_call_ms("fileio.save_checkpoint"), "ms"),
        "fileio.load_checkpoint.ms": (tracer.per_call_ms("fileio.load_checkpoint"), "ms"),
    })
    unknown = {n.split(".", 1)[1].rsplit(".", 1)[0] for n in agg
               if n.startswith("net.") and n not in ("net.forward", "net.backward")} - set(LAYERS)
    if unknown:
        print(f"warning: layers without a metric name: {sorted(unknown)}", file=sys.stderr)
    return m


def run(name, seed, seconds, trace, import_s):
    """Run one workload.

    Returns the outcome, the end-to-end metrics, the per-layer metrics
    (None unless traced) and the counts for the `env` line.
    """
    os.makedirs(OUT_DIR, exist_ok=True)
    wl = WORKLOADS[name](seed)
    out = Outcome()
    try:
        setup_times = []
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            wl.setup()
            setup_times.append(time.perf_counter() - t0)
        windows, walls = _measure(wl, out, seconds=seconds)
        rss = _peak_rss_mb()
        unit_s = [e - s for s, e in windows]
        e2e = {
            "setup_s": (import_s + statistics.median(setup_times), "s"),
            "clips_per_s": (len(unit_s) * wl.clips_per_unit / sum(unit_s), "clips/s"),
            "step_ms_p50": (1e3 * statistics.median(unit_s), "ms"),
            # The highest percentile with at least ten steps beyond it in
            # every workload's run (about 60 steps on train-ls3d).
            "step_ms_p80": (1e3 * statistics.quantiles(unit_s, n=5)[3], "ms"),
            "eval_psnr_db": (wl.quality(), "dB"),
            "peak_rss_mb": (rss, "MB"),
        }
        per_layer = _traced_pass(wl, out, len(walls), sum(walls), name, seed) if trace else None
        wl.check(out)
    finally:
        if os.path.exists(getattr(wl, "ckpt_path", "")):
            os.remove(wl.ckpt_path)
    return out, e2e, per_layer, {"units": len(unit_s), "rounds": len(walls), "checks": out.checks,
                                 "import_s": import_s, "setup_reps_s": setup_times}
