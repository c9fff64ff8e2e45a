"""Command-line harness: train, eval, gradcheck, ablate, viz, bench.

Configuration is flat ``key = value`` text ('#' comments), overridable
with repeated ``--set key=value``; unknown keys are rejected. Every run
echoes the fully-resolved configuration and announces each artifact file
it writes.

Exit codes: 0 ok, 2 config error, 3 shape/task error, 4 numeric failure,
5 I/O or checkpoint error.
"""

from __future__ import annotations

import argparse
import csv
import multiprocessing
import os
import resource
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .conv3d import Conv3dParams, conv3d_backward, conv3d_forward
from .errors import CheckpointError, ConfigError, NumericError, ShapeError
from .gradcheck import gradcheck
from .ls3d import Ls3dConv, ls3d_backward, ls3d_forward, num_taps
from .net import (SIZE_MULTIPLE, Conv3dLayer, NetworkSpec, ResBlock, VINet, build_net,
                  make_ls3d_layer)
from .train import (TrainConfig, evaluate, heldout_set, load_checkpoint, make_dataset,
                    mean_quality, save_checkpoint, train_loop, write_loss_csv)
from .metrics import SSIM_WINDOW, write_eval_csv
from .viz import emit_map_image, sampling_map

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SHAPE = 3
EXIT_NUMERIC = 4
EXIT_IO = 5


def _count(raw: str) -> int:
    """An int of at least 1: a count of zero would leave nothing to train,
    score or time."""
    value = int(raw)
    if value < 1:
        raise ValueError("must be at least 1")
    return value


# key -> (parser, default). Defaults are the desk-scale experiment setup.
SCHEMA: dict = {
    "net.channels": (int, 32),
    "net.ls3d_blocks": (str, ""),            # "", "all", or "1,2,..."
    "net.task": (str, "interpolate"),
    "train.epochs": (_count, 10),
    "train.batch_size": (_count, 2),
    "train.learning_rate": (float, 1e-3),
    "train.seed": (int, 0),
    "train.eval_every": (int, 5),
    "train.clips": (_count, 16),
    "train.eval_clips": (_count, 8),
    "train.grad_clip": (float, 10.0),
    "data.size": (int, 32),
    "data.num_frames": (int, 5),
    "data.motion": (float, 4.0),
    "data.num_objects": (int, 2),
    "data.noise_sigma": (float, 0.0),
    "eval.checkpoint": (str, ""),
    "viz.checkpoint": (str, ""),
    "viz.frame": (int, -1),                   # -1: middle output frame
    "viz.row": (int, -1),
    "viz.col": (int, -1),
    "ablate.seeds": (_count, 3),
    "bench.repeats": (_count, 3),
}

# (name, --set overrides). A variant's run is the resolved config with its
# overrides and one seed applied; runs whose resolved configs agree (res5,6
# and 2-LS3D) train once and are reported under every name.
ABLATION_VARIANTS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("baseline", ("net.ls3d_blocks=",)),
    ("res1,2", ("net.ls3d_blocks=1,2",)),
    ("res3,4", ("net.ls3d_blocks=3,4",)),
    ("res5,6", ("net.ls3d_blocks=5,6",)),
    ("2-LS3D", ("net.ls3d_blocks=5,6",)),
    ("4-LS3D", ("net.ls3d_blocks=3,4,5,6",)),
    ("6-LS3D", ("net.ls3d_blocks=all",)),
)


def _set_key(cfg: dict, key: str, raw: str, where: str) -> None:
    key = key.strip()
    if key not in SCHEMA:
        raise ConfigError(f"unknown configuration key '{key}' ({where})")
    parser, _ = SCHEMA[key]
    try:
        cfg[key] = parser(raw.strip())
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for '{key}': {raw.strip()} ({exc})") from exc


def apply_overrides(cfg: dict, overrides: list[str]) -> dict:
    """A copy of cfg with each `key=value` of overrides set as `--set` sets
    it, checked against the rules that join several keys."""
    cfg = dict(cfg)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got '{item}'")
        key, raw = item.split("=", 1)
        _set_key(cfg, key, raw, "--set")
    for key, used in (("data.num_frames", 5), ("data.noise_sigma", 0.0)):
        if cfg["net.task"] == "interpolate" and cfg[key] != used:
            raise ConfigError(f"{key} = {cfg[key]} has no effect on net.task = interpolate, "
                              "which always uses clean 5-frame clips")
    if cfg["data.size"] < SSIM_WINDOW:
        raise ConfigError(f"data.size = {cfg['data.size']} is below {SSIM_WINDOW}, the "
                          "side of the SSIM window every evaluation scores with")
    if cfg["data.size"] % SIZE_MULTIPLE:
        raise ConfigError(f"data.size = {cfg['data.size']} is not a multiple of "
                          f"{SIZE_MULTIPLE}: the net halves it twice and doubles it back")
    if cfg["net.task"] == "denoise" and cfg["data.noise_sigma"] <= 0:
        raise ConfigError("net.task = denoise needs data.noise_sigma > 0: on clean clips "
                          "the identity is the best denoiser")
    return cfg


def load_config(path: str | None, overrides: list[str]) -> dict:
    cfg = {key: default for key, (_, default) in SCHEMA.items()}
    if path:
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got '{line}'")
            key, raw = line.split("=", 1)
            _set_key(cfg, key, raw, f"{path}:{lineno}")
    return apply_overrides(cfg, overrides)


def config_text(cfg: dict) -> str:
    """The resolved configuration as sorted `key = value` lines."""
    return "\n".join(f"{key} = {value}" for key, value in sorted(cfg.items()))


def echo_config(cfg: dict) -> None:
    print("# resolved configuration")
    print(config_text(cfg))


def _parse_block_set(raw: str) -> frozenset[int]:
    raw = raw.strip().lower()
    if raw in ("", "none"):
        return frozenset()
    if raw == "all":
        return frozenset(range(1, NetworkSpec.num_resblocks + 1))
    try:
        return frozenset(int(tok) for tok in raw.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad net.ls3d_blocks '{raw}': {exc}") from exc


def network_spec(cfg: dict) -> NetworkSpec:
    """The configured net; block count, deconv placement and branch kernel
    are NetworkSpec's defaults."""
    return NetworkSpec(channels=cfg["net.channels"],
                       ls3d_block_indices=_parse_block_set(cfg["net.ls3d_blocks"]),
                       task=cfg["net.task"])


def train_config(cfg: dict) -> TrainConfig:
    return TrainConfig(
        epochs=cfg["train.epochs"],
        batch_size=cfg["train.batch_size"],
        learning_rate=cfg["train.learning_rate"],
        seed=cfg["train.seed"],
        task=cfg["net.task"],
        clips=cfg["train.clips"],
        eval_clips=cfg["train.eval_clips"],
        size=cfg["data.size"],
        num_frames=cfg["data.num_frames"],
        motion=cfg["data.motion"],
        num_objects=cfg["data.num_objects"],
        noise_sigma=cfg["data.noise_sigma"],
        eval_every=cfg["train.eval_every"],
        grad_clip=cfg["train.grad_clip"],
    )


def _announce(path) -> None:
    print(f"wrote {path}")


def configured_net(cfg: dict) -> tuple[VINet, TrainConfig]:
    """The configured net, initialised from train.seed, and its training set-up."""
    tcfg = train_config(cfg)
    return build_net(network_spec(cfg), seed=tcfg.seed), tcfg


def score_heldout(net: VINet, tcfg: TrainConfig, out: Path | None = None) -> tuple[float, float]:
    """Score net on the held-out set, writing eval.csv under `out` if given;
    returns mean (PSNR, SSIM)."""
    reports = evaluate(net, heldout_set(tcfg))
    if out is not None:
        eval_csv = out / "eval.csv"
        write_eval_csv(eval_csv, reports)
        _announce(eval_csv)
    return mean_quality(reports)


# --- commands ----------------------------------------------------------------

def cmd_train(cfg: dict, out: Path) -> int:
    net, tcfg = configured_net(cfg)
    ckpt = out / "checkpoint.ls3d"
    result = train_loop(net, tcfg, abort_checkpoint_path=ckpt)
    save_checkpoint(ckpt, net, result.adam_state, config_echo=config_text(cfg))
    _announce(ckpt)
    loss_csv = out / "loss.csv"
    write_loss_csv(loss_csv, result.loss_rows)
    _announce(loss_csv)
    mean_psnr, mean_ssim = score_heldout(net, tcfg, out)
    print(f"final loss {result.epoch_losses[-1]:.6f}, eval PSNR {mean_psnr:.2f} dB, "
          f"SSIM {mean_ssim:.4f}")
    return EXIT_OK


def cmd_eval(cfg: dict, out: Path) -> int:
    ckpt = cfg["eval.checkpoint"] or str(out / "checkpoint.ls3d")
    net, tcfg = configured_net(cfg)
    load_checkpoint(ckpt, net)
    print(f"loaded {ckpt}")
    mean_psnr, mean_ssim = score_heldout(net, tcfg, out)
    print(f"eval PSNR {mean_psnr:.2f} dB, SSIM {mean_ssim:.4f}")
    return EXIT_OK


def cmd_gradcheck(cfg: dict, out: Path) -> int:
    seed = cfg["train.seed"]
    rng = np.random.default_rng(seed)
    results = []

    w = rng.standard_normal((2, 2, 3, 3, 3))
    conv = Conv3dLayer(Conv3dParams(w, rng.standard_normal(2), padding=(1, 1, 1)), "conv")
    x = rng.standard_normal((1, 2, 3, 6, 6))
    results.append(("plain conv3d", gradcheck(conv, x, seed=seed), 1e-6))

    layer = make_ls3d_layer(rng, channels=2, name="ls3d", dtype=np.float64,
                            random_branches=True)
    layer.offset_shift = 0.3
    results.append(("ls3d layer", gradcheck(layer, x, seed=seed,
                                            max_entries_per_tensor=64), 1e-4))

    spec = NetworkSpec(channels=4, num_resblocks=2, ls3d_block_indices=frozenset({2}),
                       temporal_deconv_after=frozenset({1, 2}), task="interpolate",
                       dtype=np.float64)
    net = build_net(spec, seed=seed)
    for p in net.parameters().values():
        if np.all(p == 0):
            p += 0.1 * rng.standard_normal(p.shape)
    for l in net.layers:
        if isinstance(l, ResBlock) and isinstance(l.first, Ls3dConv):
            l.first.offset_shift = 0.3
    xb = rng.standard_normal((1, 3, 2, 8, 8))
    results.append(("end-to-end net", gradcheck(net, xb, seed=seed,
                                                max_entries_per_tensor=24), 1e-4))

    ok = True
    for name, err, tol in results:
        status = "pass" if err < tol else "FAIL"
        ok = ok and err < tol
        print(f"gradcheck {name:16s} max relative error {err:.3e} (tol {tol:.0e}) {status}")
    print(f"gradcheck overall: {'pass' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_NUMERIC


def train_and_score(cfg: dict) -> tuple[float, float]:
    """Train the configured net from its initialisation; its held-out
    mean (PSNR, SSIM)."""
    net, tcfg = configured_net(cfg)
    train_loop(net, tcfg)
    return score_heldout(net, tcfg)


def map_in_workers(fn, args: list, workers: int) -> list:
    """list(map(fn, args)) over up to `workers` spawned processes, one BLAS
    thread each.

    A forked worker would inherit this process's BLAS thread pool, whose
    extra threads only compete with the other workers. A spawned worker
    loads numpy afresh, and OpenBLAS reads OPENBLAS_NUM_THREADS as it
    loads, so the variable is set while the pool runs, then restored.
    This process's own pool already exists and keeps its thread count.
    """
    saved = os.environ.get("OPENBLAS_NUM_THREADS")
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        with ProcessPoolExecutor(max_workers=min(workers, len(args)),
                                 mp_context=multiprocessing.get_context("spawn")) as pool:
            return list(pool.map(fn, args))
    finally:
        if saved is None:
            del os.environ["OPENBLAS_NUM_THREADS"]
        else:
            os.environ["OPENBLAS_NUM_THREADS"] = saved


def cmd_ablate(cfg: dict, out: Path, threads: int) -> int:
    """Train every variant over ablate.seeds seeds and write ablation.csv.

    Every training runs in a spawned worker with one BLAS thread, `threads`
    of them at a time, so the scores do not depend on `threads` or on this
    process's BLAS thread count.
    """
    seeds = [cfg["train.seed"] + i for i in range(cfg["ablate.seeds"])]
    runs = [(variant, seed, apply_overrides(cfg, [*overrides, f"train.seed={seed}"]))
            for variant, overrides in ABLATION_VARIANTS for seed in seeds]
    jobs = {config_text(run): run for _, _, run in runs}
    scores = dict(zip(jobs, map_in_workers(train_and_score, list(jobs.values()), threads)))
    table = {}
    for variant, seed, run in runs:
        p, s = scores[config_text(run)]
        table.setdefault(variant, []).append((p, s))
        print(f"variant {variant:10s} seed {seed}: PSNR {p:.2f} dB, SSIM {s:.4f}")

    path = out / "ablation.csv"
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["variant", "psnr_db", "ssim"])
        for variant, vruns in table.items():
            psnr_m = sum(p for p, _ in vruns) / len(vruns)
            ssim_m = sum(s for _, s in vruns) / len(vruns)
            print(f"variant {variant:10s} mean over {len(vruns)} seeds: "
                  f"PSNR {psnr_m:.2f} dB, SSIM {ssim_m:.4f}")
            writer.writerow([variant, repr(psnr_m), repr(ssim_m)])
    _announce(path)
    return EXIT_OK


def viz_coord(cfg: dict) -> tuple[int, int, int]:
    """The output point (frame, row, col) that `viz` maps; ConfigError if
    it is outside the output grid."""
    tcfg = train_config(cfg)
    # Both nets emit num_frames frames (5 for interpolation) at data.size.
    grid = (tcfg.num_frames, tcfg.size, tcfg.size)
    coord = []
    for key, size in zip(("viz.frame", "viz.row", "viz.col"), grid):
        value = size // 2 if cfg[key] == -1 else cfg[key]
        if not 0 <= value < size:
            raise ConfigError(f"{key} = {cfg[key]} is outside the output grid {grid} "
                              "(-1: the middle)")
        coord.append(value)
    return tuple(coord)


def cmd_viz(cfg: dict, out: Path) -> int:
    coord = viz_coord(cfg)
    net, tcfg = configured_net(cfg)
    if cfg["viz.checkpoint"]:
        load_checkpoint(cfg["viz.checkpoint"], net)
        print(f"loaded {cfg['viz.checkpoint']}")
    sample = make_dataset(tcfg, 1, seed_base=700_007)[0]
    smap = sampling_map(net, sample.inputs.astype(np.float64), coord)
    if smap.all_zero:
        print("warning: sampling map is all zero (disconnected output)")
    for path in emit_map_image(smap, out):
        _announce(path)
    return EXIT_OK


def cmd_bench(cfg: dict, out: Path) -> int:
    """Time the LS3D operator against the plain conv it replaces, forward and
    backward, at the input shape of the configured net's last residual block."""
    net, tcfg = configured_net(cfg)
    spec = net.spec
    # Input frames: the two end frames for interpolation, the clip for denoising.
    shape = (2 if spec.task == "interpolate" else tcfg.num_frames, tcfg.size, tcfg.size)
    last = max(i for i, layer in enumerate(net.layers) if isinstance(layer, ResBlock))
    for layer in net.layers[:last]:
        if isinstance(layer, Conv3dLayer):
            shape = layer.params.output_shape(shape)
    n, c, (t, h, w) = tcfg.batch_size, spec.channels, shape
    repeats = cfg["bench.repeats"]
    rng = np.random.default_rng(0)
    x = rng.standard_normal((n, c, t, h, w)).astype(np.float32)
    weight = rng.standard_normal((c, c, 3, 3, 3)).astype(np.float32)
    params = Conv3dParams(weight, np.zeros(c, dtype=np.float32), padding=(1, 1, 1))
    taps = num_taps((3, 3, 3))
    offsets = (rng.standard_normal((n, 2 * taps, t, h, w)) * 0.7).astype(np.float32)
    masks = rng.uniform(0.2, 0.8, (n, taps, t, h, w)).astype(np.float32)
    grad_y = rng.standard_normal(x.shape).astype(np.float32)

    # Multiply-adds of the main kernel; a backward does two such GEMMs
    # (input and weight gradients).
    macs = n * c * c * taps * t * h * w

    def timeit(fn):
        """Best of `repeats` timed calls after a warm-up, and the minor page
        faults per call over those calls."""
        fn()  # warm up
        best = float("inf")
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(repeats):
            start = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - start)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
        return best, faults / repeats

    _, conv_ctx = conv3d_forward(x, params)
    _, ls3d_ctx = ls3d_forward(x, params, offsets, masks)
    ops = [("conv3d_forward", lambda: conv3d_forward(x, params), macs),
           ("conv3d_backward", lambda: conv3d_backward(conv_ctx, grad_y), 2 * macs),
           ("ls3d_forward", lambda: ls3d_forward(x, params, offsets, masks), macs),
           ("ls3d_backward", lambda: ls3d_backward(ls3d_ctx, grad_y), 2 * macs)]
    rows = []
    for name, fn, op_macs in ops:
        secs, faults = timeit(fn)
        rows.append((name, secs, 1.0 / secs, op_macs / secs, faults))
    print(f"shape ({n},{c},{t},{h},{w}), kernel 3x3x3, best of {repeats}")
    for name, secs, calls, mps, faults in rows:
        print(f"{name:15s} {secs * 1e3:9.2f} ms/call  {calls:8.2f} calls/s  "
              f"{mps / 1e6:9.1f} MMAC/s  {faults:8.1f} minor faults/call")
    path = out / "bench.csv"
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["op", "seconds_per_call", "calls_per_sec", "mac_per_sec",
                         "minor_faults_per_call"])
        writer.writerows([name, *map(repr, values)] for name, *values in rows)
    _announce(path)
    return EXIT_OK


# --- entry point ---------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ls3dconv",
        description="learnable-sampling 3D convolution experiments")
    parser.add_argument("command",
                        choices=["train", "eval", "gradcheck", "ablate", "viz", "bench"])
    parser.add_argument("--config", default=None, help="key=value config file")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE", help="override one config key")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override train.seed")
    parser.add_argument("--threads", type=_count, default=1,
                        help="ablate's worker processes, one BLAS thread each")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        seed = [] if args.seed is None else [f"train.seed={args.seed}"]
        cfg = load_config(args.config, [*args.overrides, *seed])
        # Every NetworkSpec and TrainConfig rule, checked before any file is written.
        network_spec(cfg)
        train_config(cfg)
        if args.command == "viz":
            viz_coord(cfg)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        echo_config(cfg)
        if args.command == "train":
            return cmd_train(cfg, out)
        if args.command == "eval":
            return cmd_eval(cfg, out)
        if args.command == "gradcheck":
            return cmd_gradcheck(cfg, out)
        if args.command == "ablate":
            return cmd_ablate(cfg, out, args.threads)
        if args.command == "viz":
            return cmd_viz(cfg, out)
        return cmd_bench(cfg, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ShapeError as exc:
        print(f"shape/task error: {exc}", file=sys.stderr)
        return EXIT_SHAPE
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (CheckpointError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
