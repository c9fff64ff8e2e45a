"""File formats: checkpoints and PGM images, and the atomic write every
artifact goes through.

A checkpoint is an uncompressed numpy archive (`np.savez`): a zip file
with one `<name>.npy` member per tensor. Zip's CRC-32 covers every
member, and `ZipFile.open(name, "w")` stamps every member 1980-01-01, so
the same tensors always give the same bytes.
"""

from __future__ import annotations

import contextlib
import os
import zipfile
from pathlib import Path

import numpy as np

from .errors import CheckpointError, ShapeError

# Every zip archive np.savez writes starts with a local file header.
_ZIP_MAGIC = b"PK\x03\x04"

# What numpy and zipfile raise on a damaged archive or a crafted npy header:
# a bad zip structure or CRC (BadZipFile), a header numpy cannot parse or
# size (ValueError, MemoryError), a flag or compression method zipfile does
# not support (RuntimeError, NotImplementedError), a member that ends early
# (EOFError), and a member offset before the start of the file (OSError).
_DAMAGED = (zipfile.BadZipFile, ValueError, MemoryError, RuntimeError,
            NotImplementedError, EOFError, OSError)


@contextlib.contextmanager
def atomic_open(path, mode: str, **kwargs):
    """`open(path, mode, **kwargs)` for writing, where the file replaces
    `path` only once it is complete.

    The bytes go to a temporary file in the same directory, which replaces
    `path` when the block ends. A write that fails part-way removes the
    temporary file and leaves any previous file at `path` as it was.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# --- checkpoint ----------------------------------------------------------

def save_named_tensors(path, tensors: dict[str, np.ndarray]) -> None:
    """Write a checkpoint file, atomically."""
    with atomic_open(path, "wb") as f:
        np.savez(f, allow_pickle=False, **tensors)


def load_named_tensors(path) -> dict[str, np.ndarray]:
    """Read every tensor of a checkpoint; a damaged or foreign file raises
    CheckpointError naming `path`.

    Each member is read once, to its end: zipfile checks a member's CRC-32
    only when a read reaches the end, and a member whose npy header
    declares fewer bytes than it holds would otherwise never be read that
    far.
    """
    with open(path, "rb") as f:
        # A checkpoint is always a zip archive that starts with one; zipfile
        # alone would also open a zip appended to some other file.
        if f.read(len(_ZIP_MAGIC)) != _ZIP_MAGIC:
            raise CheckpointError(f"{path}: not a numpy .npz archive")
        f.seek(0)
        tensors = {}
        try:
            with zipfile.ZipFile(f) as archive:
                for info in archive.infolist():
                    name = info.filename.removesuffix(".npy")
                    with archive.open(info) as member:
                        tensors[name] = np.lib.format.read_array(member, allow_pickle=False)
                        if member.read(1):
                            raise CheckpointError(f"{path}: member '{name}' is damaged "
                                                  "(bytes past its array)")
        except _DAMAGED as exc:
            raise CheckpointError(f"{path}: not a readable checkpoint "
                                  f"({type(exc).__name__}: {exc})") from exc
    return tensors


# --- PGM -----------------------------------------------------------------

def write_pgm(path, image: np.ndarray) -> None:
    """Write a 2-D array of values in [0, 1] as binary 8-bit PGM (P5):
    0 is black, 1 white, and values outside the range are clipped to it."""
    if image.ndim != 2:
        raise ShapeError(f"write_pgm: expected a 2-D array, got shape {image.shape}")
    img = np.asarray(image, dtype=np.float64)
    pixels = np.clip(np.rint(img * 255.0), 0, 255).astype(np.uint8)
    h, w = pixels.shape
    with atomic_open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(pixels.tobytes())

