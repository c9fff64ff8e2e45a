"""Binary file formats: checkpoints and PGM images.

Checkpoint ("LS3D"): magic, u32 version (currently 1), u32 tensor count,
then per tensor: u16 name length, name bytes (utf-8), u8 ndim, ndim u32
dims, u8 dtype tag, raw little-endian data. Tag 2 = uint8 is used for the
embedded config-echo blob; numeric tensors use tags 0/1.
"""

from __future__ import annotations

import math
import os
import struct
from pathlib import Path

import numpy as np

from .errors import CheckpointError

CHECKPOINT_MAGIC = b"LS3D"
CHECKPOINT_VERSION = 1

_TAG_TO_DTYPE = {0: np.dtype("<f4"), 1: np.dtype("<f8"), 2: np.dtype("u1")}
_DTYPE_TO_TAG = {np.float32: 0, np.float64: 1, np.uint8: 2}


def _dtype_tag(arr: np.ndarray) -> int:
    tag = _DTYPE_TO_TAG.get(arr.dtype.type)
    if tag is None:
        raise CheckpointError(f"unsupported dtype {arr.dtype} for binary serialization")
    return tag


# --- checkpoint ----------------------------------------------------------

def save_named_tensors(path, tensors: dict[str, np.ndarray]) -> None:
    """Write a checkpoint file, atomically.

    The bytes go to a temporary file in the same directory, which then
    replaces `path`. A write that fails part-way removes the temporary
    file and leaves any previous file at `path` as it was.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(CHECKPOINT_MAGIC)
            f.write(struct.pack("<II", CHECKPOINT_VERSION, len(tensors)))
            for name, arr in tensors.items():
                raw = name.encode("utf-8")
                tag = _dtype_tag(arr)
                f.write(struct.pack("<H", len(raw)))
                f.write(raw)
                f.write(struct.pack("<B", arr.ndim))
                f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
                f.write(struct.pack("<B", tag))
                f.write(np.ascontiguousarray(arr, dtype=_TAG_TO_DTYPE[tag]).tobytes())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_named_tensors(path) -> dict[str, np.ndarray]:
    data = Path(path).read_bytes()
    view = memoryview(data)
    pos = 0

    def take(n: int, what: str) -> memoryview:
        nonlocal pos
        if pos + n > len(view):
            raise CheckpointError(f"{path}: truncated checkpoint while reading {what}")
        chunk = view[pos:pos + n]
        pos += n
        return chunk

    if bytes(take(4, "magic")) != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: bad checkpoint magic")
    version, count = struct.unpack("<II", take(8, "header"))
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: incompatible checkpoint version {version}, "
                              f"expected {CHECKPOINT_VERSION}")
    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2, "name length"))
        try:
            name = bytes(take(name_len, "name")).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"{path}: tensor name is not UTF-8 ({exc})") from exc
        (ndim,) = struct.unpack("<B", take(1, "ndim"))
        dims = struct.unpack(f"<{ndim}I", take(4 * ndim, "dims"))
        (tag,) = struct.unpack("<B", take(1, "dtype tag"))
        if tag not in _TAG_TO_DTYPE:
            raise CheckpointError(f"{path}: unknown dtype tag {tag} for tensor '{name}'")
        dtype = _TAG_TO_DTYPE[tag]
        # Python ints: a count of u32 dims in int64 can wrap past the check.
        body = take(math.prod(dims) * dtype.itemsize, f"data of '{name}'")
        arr = np.frombuffer(body, dtype=dtype)
        try:
            tensors[name] = arr.reshape(dims).copy() if ndim else arr.copy()
        except ValueError as exc:  # dims numpy cannot index, e.g. (2**32-1, 2**32-1, 0)
            raise CheckpointError(f"{path}: tensor '{name}' has dims {dims} ({exc})") from exc
    if pos != len(view):
        raise CheckpointError(f"{path}: {len(view) - pos} trailing bytes after last tensor")
    return tensors


# --- PGM -----------------------------------------------------------------

def write_pgm(path, image: np.ndarray) -> None:
    """Write a 2-D array as binary 8-bit PGM (P5), max-normalized."""
    if image.ndim != 2:
        raise CheckpointError(f"write_pgm: expected a 2-D array, got shape {image.shape}")
    img = np.asarray(image, dtype=np.float64)
    peak = img.max()
    scaled = img / peak if peak > 0 else img
    pixels = np.clip(np.rint(scaled * 255.0), 0, 255).astype(np.uint8)
    h, w = pixels.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(pixels.tobytes())


def read_pgm(path) -> np.ndarray:
    """Read a binary P5 PGM back as uint8; used by tests only."""
    data = Path(path).read_bytes()
    if not data.startswith(b"P5"):
        raise CheckpointError(f"{path}: not a P5 PGM file")
    fields: list[bytes] = []
    pos = 2
    while len(fields) < 3:
        while pos < len(data) and data[pos:pos + 1].isspace():
            pos += 1
        if data[pos:pos + 1] == b"#":
            while pos < len(data) and data[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        fields.append(data[start:pos])
    pos += 1  # single whitespace after maxval
    w, h, maxval = (int(x) for x in fields)
    if maxval != 255:
        raise CheckpointError(f"{path}: expected maxval 255, got {maxval}")
    body = data[pos:pos + w * h]
    if len(body) != w * h:
        raise CheckpointError(f"{path}: truncated pixel data")
    return np.frombuffer(body, dtype=np.uint8).reshape(h, w).copy()
