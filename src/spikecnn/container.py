"""The one binary container behind every artifact file.

An artifact is a magic tag, packed header fields and raw array payloads,
nothing else.  ``write`` lays the parts out back to back; ``Reader`` walks
them in the same order and checks the remaining length before every read,
so a cut, padded or corrupt file raises ``ValueError`` and never
``struct.error`` or a short array.  Every file the package writes goes
through ``replacing``, so it appears whole or not at all.
"""

from __future__ import annotations

import contextlib
import math
import os
import struct
from pathlib import Path

import numpy as np


def varint(value: int) -> bytes:
    """LEB128 encoding of a non-negative integer."""
    out = bytearray()
    while value >= 0x80:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)
    return bytes(out)


def u8(values, what: str) -> np.ndarray:
    """``values`` as uint8, refusing anything the cast would wrap."""
    values = np.asarray(values)
    if values.size and (values.min() < 0 or values.max() > 255):
        raise ValueError(f"{what} must lie in [0, 255] to be stored as u8")
    return values.astype(np.uint8)


@contextlib.contextmanager
def replacing(path, mode: str = "wb"):
    """The file object of a sibling temporary file, renamed over ``path``
    when the block ends.  If the block raises, the temporary file is removed
    and ``path`` keeps what it held, so a killed or failed write never
    leaves a cut file under the real name."""
    tmp = Path(f"{path}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode) as f:
            yield f
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write(path, magic: bytes, *parts) -> None:
    """Write ``magic`` then each part: a ``(struct_fmt, *values)`` tuple is
    packed, an ndarray goes in as its C-order bytes, bytes as they are."""
    with replacing(path) as f:
        f.write(magic)
        for part in parts:
            if isinstance(part, tuple):
                part = struct.pack(*part)
            f.write(np.ascontiguousarray(part) if isinstance(part, np.ndarray) else part)


class Reader:
    """Bounds-checked cursor over one artifact file."""

    def __init__(self, path, magic: bytes, what: str):
        self.buf = Path(path).read_bytes()
        self.pos = 0
        self.what = what
        start = self._take(len(magic))
        if self.buf[start:self.pos] != magic:
            raise ValueError(f"bad {what} magic")

    def _take(self, n: int) -> int:
        if n > len(self.buf) - self.pos:
            raise ValueError(f"truncated {self.what}")
        start = self.pos
        self.pos += n
        return start

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack_from(fmt, self.buf, self._take(struct.calcsize(fmt)))

    def array(self, dtype, *shape: int) -> np.ndarray:
        """Read-only view of the next ``prod(shape)`` items."""
        dtype = np.dtype(dtype)
        count = math.prod(shape)
        start = self._take(count * dtype.itemsize)
        return np.frombuffer(self.buf, dtype, count, start).reshape(shape)

    def varint(self) -> int:
        result = shift = 0
        while True:
            byte = self.buf[self._take(1)]
            result |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return result
            shift += 7

    def done(self) -> None:
        extra = len(self.buf) - self.pos
        if extra:
            raise ValueError(f"{extra} trailing bytes after {self.what}")
