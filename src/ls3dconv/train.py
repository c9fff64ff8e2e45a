"""Adam optimizer, training/eval loops, and checkpoint persistence.

Training is fully deterministic given (config, seed): the dataset is a
pure function of derived seeds, batches run in a fixed order, and the loss
history is bit-identical from run to run at one BLAS thread count
(OpenBLAS starts one thread per core unless OPENBLAS_NUM_THREADS says
otherwise). scipy's `csr_matvecs` and `csc_matvecs`, which sum the LS3D
sampling and the strided transposed conv's overlap-add, are
single-threaded and sum in a fixed order: row by row, and each row's
entries in turn.

A plain net's loss history is also the same under any thread count, and
a test compares loss.csv under one and two threads. A net with LS3D
layers is not: of the GEMM shapes the 32-channel nets run, only those
whose inner dimension is K = 27 * 81 = 2187 give other bits under two
OpenBLAS threads than under one. That is the branch conv's stride-1 input
gradient, which gathers 27 taps of its 81 output channels. The GEMMs with
K = 32, 81 and 864 keep their bits. `ls3dconv ablate` trains every run in
a worker process with one BLAS thread, so its table is the same whatever
the thread count. Nor does training depend on the allocator setting made
at import (`ls3dconv._keep_freed_pages`), which only decides whether
freed memory goes back to the kernel.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import CheckpointError, ConfigError, NumericError, ShapeError
from .fileio import load_named_tensors, save_named_tensors
from .metrics import EvalReport, evaluate_pair, l1_loss
from .net import VINet
from .synthdata import add_gaussian_noise, gen_clip, random_clip_spec


@dataclass
class TrainConfig:
    epochs: int = 10
    batch_size: int = 2
    learning_rate: float = 1e-3
    seed: int = 0
    task: str = "interpolate"
    clips: int = 16
    eval_clips: int = 8
    size: int = 32
    num_frames: int = 5
    motion: float = 4.0
    num_objects: int = 2
    noise_sigma: float = 0.0
    eval_every: int = 5
    grad_clip: float = 10.0

    def __post_init__(self):
        if min(self.epochs, self.batch_size, self.clips, self.eval_clips) < 1:
            raise ConfigError("epochs, batch_size, clips and eval_clips must be positive")
        if self.eval_every < 0:
            raise ConfigError("eval_every must be >= 0 (0: no held-out evaluation)")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0 (numpy seeds are non-negative), got {self.seed}")
        if self.num_objects < 0:
            raise ConfigError(f"num_objects must be >= 0, got {self.num_objects}")
        for name in ("learning_rate", "grad_clip", "motion", "noise_sigma"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 0):
                note = " (0: no clipping)" if name == "grad_clip" else ""
                raise ConfigError(f"{name} must be finite and >= 0{note}, got {value}")


# Adam's moment decay rates and denominator guard (Kingma & Ba's defaults).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0

    @classmethod
    def init(cls, params: dict[str, np.ndarray]) -> "AdamState":
        return cls(m={k: np.zeros_like(p) for k, p in params.items()},
                   v={k: np.zeros_like(p) for k, p in params.items()})


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
              state: AdamState, config: TrainConfig) -> None:
    """Standard bias-corrected Adam update, in place."""
    state.step += 1
    t = state.step
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ShapeError(f"adam_step: grad for '{name}' has shape {g.shape}, "
                             f"param has {p.shape}")
        if not np.isfinite(g).all():
            bad = int(np.flatnonzero(~np.isfinite(g))[0])
            raise NumericError(f"adam_step: non-finite gradient in '{name}' "
                               f"at flat index {bad}")
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1 - b1) * g
        v *= b2
        v += (1 - b2) * g * g
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        p -= (config.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)).astype(p.dtype)


def clip_grad_norm(grads: dict[str, np.ndarray], max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most max_norm."""
    total = float(np.sqrt(sum(float(np.sum(g.astype(np.float64) ** 2))
                              for g in grads.values())))
    if max_norm > 0 and total > max_norm:
        scale = max_norm / total
        for g in grads.values():
            g *= scale
    return total


# --- datasets ---------------------------------------------------------------

@dataclass
class Sample:
    inputs: np.ndarray
    targets: np.ndarray          # loss target, every output frame
    eval_slice: slice            # the target frames the metrics score


def _interp_sample(seed: int, cfg: TrainConfig) -> Sample:
    spec = random_clip_spec(seed, size=cfg.size, motion=cfg.motion,
                            num_objects=cfg.num_objects, num_frames=5)
    clip = gen_clip(spec)
    return Sample(clip[:, :, [0, 4]], clip, slice(1, 4))


def _denoise_sample(seed: int, cfg: TrainConfig) -> Sample:
    spec = random_clip_spec(seed, size=cfg.size, motion=cfg.motion,
                            num_objects=cfg.num_objects, num_frames=cfg.num_frames)
    clean = gen_clip(spec)
    noisy = add_gaussian_noise(clean, cfg.noise_sigma, seed=seed + 1)
    return Sample(noisy, clean, slice(None))


def make_dataset(cfg: TrainConfig, count: int, seed_base: int) -> list[Sample]:
    maker = _interp_sample if cfg.task == "interpolate" else _denoise_sample
    return [maker(seed_base + 977 * i, cfg) for i in range(count)]


# Seed base of the held-out set, kept apart from the training seed bases.
HELDOUT_SEED = 900_001


def heldout_set(cfg: TrainConfig) -> list[Sample]:
    """The cfg.eval_clips clips that train, eval and ablate all score on."""
    return make_dataset(cfg, cfg.eval_clips, seed_base=HELDOUT_SEED)


# --- loops -------------------------------------------------------------------

def evaluate(net: VINet, samples: list[Sample]) -> list[EvalReport]:
    reports = []
    for i, s in enumerate(samples):
        pred = net.forward(s.inputs)[:, :, s.eval_slice]
        reports.append(evaluate_pair(i, pred, s.targets[:, :, s.eval_slice]))
    return reports


def mean_quality(reports: list[EvalReport]) -> tuple[float, float]:
    """(PSNR, SSIM) averaged over the per-clip means of reports."""
    psnr_m = sum(r.psnr_mean for r in reports) / len(reports)
    ssim_m = sum(r.ssim_mean for r in reports) / len(reports)
    return psnr_m, ssim_m


@dataclass
class TrainResult:
    loss_rows: list[tuple[int, float]]          # (step, loss), one per step
    epoch_losses: list[float]
    eval_history: list[tuple[int, float, float]]  # (epoch, psnr, ssim)
    adam_state: "AdamState | None" = None


def train_loop(net: VINet, config: TrainConfig,
               abort_checkpoint_path=None) -> TrainResult:
    if net.spec.task != config.task:
        raise ShapeError(f"net task '{net.spec.task}' does not match "
                         f"config task '{config.task}'")
    train_set = make_dataset(config, config.clips, seed_base=config.seed * 100_003 + 11)
    eval_set = heldout_set(config) if config.eval_every else []

    params = net.parameters()
    state = AdamState.init(params)
    rows: list[tuple[int, float]] = []
    epoch_losses: list[float] = []
    eval_history: list[tuple[int, float, float]] = []
    step = 0

    for epoch in range(1, config.epochs + 1):
        losses = []
        for start in range(0, len(train_set), config.batch_size):
            batch = train_set[start:start + config.batch_size]
            x = np.concatenate([s.inputs for s in batch], axis=0)
            t = np.concatenate([s.targets for s in batch], axis=0)
            pred = net.forward(x, keep_state=True)
            loss, grad = l1_loss(pred, t)
            if not np.isfinite(loss):
                if abort_checkpoint_path is not None:
                    save_checkpoint(abort_checkpoint_path, net, state, config_echo="diverged")
                raise NumericError(f"training diverged at step {step}: loss={loss}"
                                   + (f"; last checkpoint at {abort_checkpoint_path}"
                                      if abort_checkpoint_path else ""))
            net.backward(grad)
            clip_grad_norm(net.grads, config.grad_clip)
            adam_step(params, net.grads, state, config)
            for name, p in params.items():
                if not np.isfinite(p).all():
                    raise NumericError(f"parameter '{name}' became non-finite "
                                       f"at step {step}")
            step += 1
            rows.append((step, loss))
            losses.append(loss)
        epoch_losses.append(sum(losses) / len(losses))
        if config.eval_every and epoch % config.eval_every == 0:
            eval_history.append((epoch, *mean_quality(evaluate(net, eval_set))))

    return TrainResult(rows, epoch_losses, eval_history, adam_state=state)


def write_loss_csv(path, rows: list[tuple[int, float]]) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["step", "loss"])
        for step, loss in rows:
            writer.writerow([step, repr(loss)])


# --- checkpoints ---------------------------------------------------------------

def save_checkpoint(path, net: VINet, state: AdamState | None = None,
                    config_echo: str = "") -> None:
    tensors: dict[str, np.ndarray] = {}
    for name, p in net.parameters().items():
        tensors[f"param/{name}"] = p
    if state is not None:
        for name, m in state.m.items():
            tensors[f"adam.m/{name}"] = m
        for name, v in state.v.items():
            tensors[f"adam.v/{name}"] = v
        tensors["step"] = np.array([float(state.step)], dtype=np.float64)
    tensors["config"] = np.frombuffer(config_echo.encode("utf-8"), dtype=np.uint8).copy() \
        if config_echo else np.zeros(0, dtype=np.uint8)
    save_named_tensors(path, tensors)


def load_checkpoint(path, net: VINet) -> tuple[AdamState | None, str]:
    """Restore parameters (bit-identical) into net; returns (adam state, config echo).

    The checkpoint must hold exactly the net's parameters and the config
    echo, plus, if it holds `step`, an Adam moment pair for every
    parameter, and a `step` that is a whole number >= 0. Everything is
    checked before the net is touched, so a failed load leaves no
    partially restored parameter set behind.
    """
    tensors = load_named_tensors(path)
    params = net.parameters()
    # Name -> an array of the shape and dtype that tensor must have.
    expected = {f"param/{n}": p for n, p in params.items()}
    if "step" in tensors:
        expected.update({f"adam.{mv}/{n}": p for mv in "mv" for n, p in params.items()})
        expected["step"] = np.zeros(1)
    for key in [*expected, "config"]:
        if key not in tensors:
            raise CheckpointError(f"{path}: missing tensor '{key}'")
    for key, like in expected.items():
        t = tensors[key]
        if (t.shape, t.dtype) != (like.shape, like.dtype):
            raise CheckpointError(f"{path}: tensor '{key}' has shape {t.shape} and dtype "
                                  f"{t.dtype}, net expects {like.shape} and {like.dtype}")
    extra = [k for k in tensors if k not in expected and k != "config"]
    if extra:
        raise CheckpointError(f"{path}: {len(extra)} unexpected tensor(s), first "
                              f"'{extra[0]}': not a parameter of this net, or Adam "
                              "moments without 'step'")
    if "step" in tensors:
        step = tensors["step"][0]
        if not (np.isfinite(step) and step >= 0 and step == np.floor(step)):
            raise CheckpointError(f"{path}: 'step' is {step}, not a whole number >= 0")
    try:
        echo = tensors["config"].tobytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CheckpointError(f"{path}: config echo is not UTF-8 ({exc})") from exc
    state = None
    if "step" in tensors:
        state = AdamState(m={n: tensors[f"adam.m/{n}"] for n in params},
                          v={n: tensors[f"adam.v/{n}"] for n in params},
                          step=int(step))
    for name, p in params.items():
        p[...] = tensors[f"param/{name}"]
    return state, echo
