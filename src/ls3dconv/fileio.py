"""File formats: checkpoints and PGM images.

A checkpoint is an uncompressed numpy archive (`np.savez`): a zip file
with one `<name>.npy` member per tensor. Zip's CRC-32 covers every
member, and `ZipFile.open(name, "w")` stamps every member 1980-01-01, so
the same tensors always give the same bytes.
"""

from __future__ import annotations

import os
import zipfile
from pathlib import Path

import numpy as np

from .errors import CheckpointError

# Every zip archive np.savez writes starts with a local file header.
_ZIP_MAGIC = b"PK\x03\x04"

# What numpy and zipfile raise on a damaged archive or a crafted npy header:
# a bad zip structure or CRC (BadZipFile), a header numpy cannot parse or
# size (ValueError, MemoryError), a flag or compression method zipfile does
# not support (RuntimeError, NotImplementedError), a member that ends early
# (EOFError), and a member offset before the start of the file (OSError).
_DAMAGED = (zipfile.BadZipFile, ValueError, MemoryError, RuntimeError,
            NotImplementedError, EOFError, OSError)


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
            np.savez(f, allow_pickle=False, **tensors)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_named_tensors(path) -> dict[str, np.ndarray]:
    """Read every tensor of a checkpoint; a damaged or foreign file raises
    CheckpointError naming `path`."""
    with open(path, "rb") as f:
        # np.load reads a .npy file whole and meets any other file with
        # advice to unpickle it; a checkpoint is always a zip archive.
        if f.read(len(_ZIP_MAGIC)) != _ZIP_MAGIC:
            raise CheckpointError(f"{path}: not a numpy .npz archive")
        f.seek(0)
        try:
            with np.load(f, allow_pickle=False) as archive:
                # zipfile checks a member's CRC-32 only when a read reaches
                # the member's end, and a member whose npy header declares
                # fewer bytes than it holds is never read that far.
                bad = archive.zip.testzip()
                if bad is not None:
                    raise CheckpointError(f"{path}: member '{bad}' is damaged "
                                          "(CRC-32 or header mismatch)")
                tensors = {name: archive[name] for name in archive.files}
        except _DAMAGED as exc:
            raise CheckpointError(f"{path}: not a readable checkpoint "
                                  f"({type(exc).__name__}: {exc})") from exc
    for name, arr in tensors.items():
        if not isinstance(arr, np.ndarray):
            raise CheckpointError(f"{path}: member '{name}' is not a .npy array")
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
