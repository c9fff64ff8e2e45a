"""Finite-difference validation of analytic backward passes.

Works on anything following the layer protocol: ``parameters() -> dict``
of named arrays (live views), ``forward(x, keep_state=...)``,
``backward(grad_y) -> grad_x`` filling ``.grads``. A container's
backward moves its parts' gradients into its own ``.grads`` and leaves
theirs empty, so each gradient has one holder. ``.grads`` is read right
after the backward: it holds that backward's gradients until the next
backward replaces them or the holder is emptied, as ``train_loop`` does
after each optimizer step. The scalar under test
is sum(forward(x) * R) for a seeded random projection R, so one backward
call yields every analytic gradient at once.

Checks run at float64; bilinear sampling layers must be configured with a
fractional offset shift (e.g. 0.3) first, since the kernel is not
differentiable at integer offsets.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError, ShapeError

# The central difference's half-step, applied to one entry at a time.
STEP = 1e-5


def _central_diff(model, x: np.ndarray, tensor: np.ndarray, flat_idx: int,
                  proj: np.ndarray) -> float:
    orig = tensor.flat[flat_idx]
    tensor.flat[flat_idx] = orig + STEP
    s_plus = float(np.sum(model.forward(x) * proj))
    tensor.flat[flat_idx] = orig - STEP
    s_minus = float(np.sum(model.forward(x) * proj))
    tensor.flat[flat_idx] = orig
    return (s_plus - s_minus) / (2.0 * STEP)


def gradcheck(model, x: np.ndarray, seed: int = 0,
              max_entries_per_tensor: int | None = None) -> float:
    """Worst relative error max|a - n| / max(1, |n|) over all checked entries.

    Every parameter group and the input are compared against central
    differences. With ``max_entries_per_tensor`` set, large tensors are
    checked on a seeded random subset of entries (small ones still fully).
    """
    if x.dtype != np.float64:
        raise ShapeError(f"gradcheck requires float64 input, got {x.dtype}")
    for name, p in model.parameters().items():
        if p.dtype != np.float64:
            raise ShapeError(f"gradcheck requires float64 parameters; '{name}' is {p.dtype}")

    rng = np.random.default_rng(seed)
    x = x.copy()
    y = model.forward(x, keep_state=True)
    proj = rng.standard_normal(y.shape)
    grad_x = model.backward(proj)

    analytic = dict(model.grads)
    analytic["<input>"] = grad_x
    tensors = dict(model.parameters())
    tensors["<input>"] = x

    for name, g in analytic.items():
        if not np.isfinite(g).all():
            bad = int(np.flatnonzero(~np.isfinite(g))[0])
            raise NumericError(f"gradcheck: non-finite analytic gradient in '{name}' "
                               f"at flat index {bad}")

    worst = 0.0
    for name, tensor in tensors.items():
        a = analytic[name]
        if a.shape != tensor.shape:
            raise ShapeError(f"gradcheck: gradient for '{name}' has shape {a.shape}, "
                             f"parameter has {tensor.shape}")
        size = tensor.size
        if max_entries_per_tensor is not None and size > max_entries_per_tensor:
            idxs = rng.choice(size, size=max_entries_per_tensor, replace=False)
        else:
            idxs = range(size)
        for i in idxs:
            numeric = _central_diff(model, x, tensor, int(i), proj)
            if not np.isfinite(numeric):
                raise NumericError(f"gradcheck: non-finite finite-difference value for "
                                   f"'{name}' at flat index {int(i)}")
            err = abs(a.flat[int(i)] - numeric) / max(1.0, abs(numeric))
            if err > worst:
                worst = err
    return worst
