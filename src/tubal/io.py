"""Binary container for tensors.

Magic bytes identifying the kind, a dims triple as three little-endian
uint64, then the payload as little-endian IEEE-754 doubles in the
package storage order (Fortran / frontal-slice-major), so every file is
self-describing.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .algebra import as_tensor3

__all__ = [
    "load_tensor",
    "save_tensor",
]

MAGIC_TENSOR = b"TNS3"
_HEADER = struct.Struct("<3Q")


def save_tensor(path, x: np.ndarray) -> None:
    x = as_tensor3(x)
    with open(path, "wb") as fh:
        fh.write(MAGIC_TENSOR)
        fh.write(_HEADER.pack(*x.shape))
        fh.write(np.ascontiguousarray(x.ravel(order="F"), dtype="<f8").tobytes())


def load_tensor(path) -> np.ndarray:
    raw = Path(path).read_bytes()
    magic, raw = raw[:4], raw[4:]
    if magic != MAGIC_TENSOR:
        raise ValueError(f"{path}: expected {MAGIC_TENSOR!r} container, found {magic!r}")
    if len(raw) < _HEADER.size:
        raise ValueError(f"{path}: truncated container header")
    dims = _HEADER.unpack_from(raw)
    body = raw[_HEADER.size :]
    count = dims[0] * dims[1] * dims[2]
    if len(body) != 8 * count:
        raise ValueError(f"{path}: payload holds {len(body) // 8} doubles, header says {count}")
    flat = np.frombuffer(body, dtype="<f8").astype(np.float64)
    return as_tensor3(flat.reshape(dims, order="F"))
