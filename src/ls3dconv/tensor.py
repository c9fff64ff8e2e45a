"""Dense 5-D tensors and elementwise math.

A "Tensor5" is a plain C-contiguous numpy array of shape (N, C, T, H, W),
dtype float32 or float64, W fastest. Helpers here validate that contract,
provide the two elementwise ops the layer code needs, and size the state a
forward keeps for its backward.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError

DTYPES = (np.float32, np.float64)
AXIS_NAMES = ("N", "C", "T", "H", "W")


def check_tensor5(x: np.ndarray, name: str = "tensor") -> None:
    """Raise ShapeError unless x is a non-empty (N, C, T, H, W) float array."""
    if not isinstance(x, np.ndarray) or x.ndim != 5:
        ndim = getattr(x, "ndim", None)
        raise ShapeError(f"{name}: expected a 5-D (N, C, T, H, W) array, got ndim={ndim}")
    for axis, n in zip(AXIS_NAMES, x.shape):
        if n < 1:
            raise ShapeError(f"{name}: dimension {axis} must be >= 1, got {n}")
    if x.dtype.type not in DTYPES:
        raise ShapeError(f"{name}: dtype must be float32 or float64, got {x.dtype}")


def check_same_shape(a: np.ndarray, b: np.ndarray, op: str) -> None:
    if a.shape != b.shape:
        for axis, (na, nb) in enumerate(zip(a.shape, b.shape)):
            if na != nb:
                name = AXIS_NAMES[axis] if a.ndim == 5 else str(axis)
                raise ShapeError(f"{op}: operand shapes differ at axis {name}: {na} vs {nb} "
                                 f"(full shapes {a.shape} vs {b.shape})")
        raise ShapeError(f"{op}: operand ranks differ: {a.shape} vs {b.shape}")


# --- elementwise ops ----------------------------------------------------

def relu_backward(grad_out: np.ndarray, positive: np.ndarray) -> np.ndarray:
    """Zero the upstream gradient where the forward input was <= 0.

    positive: the boolean array forward_input > 0, all a ReLU's backward
    reads of its input.
    """
    check_same_shape(grad_out, positive, "relu_backward")
    return np.where(positive, grad_out, 0).astype(grad_out.dtype, copy=False)


def distinct_nbytes(state) -> int:
    """Bytes of the distinct array buffers in `state`, a nest of tuples and
    lists: a view counts as its base array, and each base once. Other
    objects (shapes, a layer's Conv3dParams) are not walked."""
    bases = {}
    stack = [state]
    while stack:
        item = stack.pop()
        if isinstance(item, np.ndarray):
            while isinstance(item.base, np.ndarray):
                item = item.base
            bases[id(item)] = item.nbytes
        elif isinstance(item, (tuple, list)):
            stack.extend(item)
    return sum(bases.values())


def sigmoid(a: np.ndarray) -> np.ndarray:
    # exp(-|a|) never overflows: 1 / (1 + e) for a >= 0, e / (1 + e) below.
    e = np.exp(-np.abs(a))
    return np.where(a >= 0, 1, e) / (1 + e)
