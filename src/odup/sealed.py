"""Sealed bytes: a little-endian body and a u32 CRC-32 of it, the trailer
of delta frames and the container of table checkpoints.

Also the one writer of every file a run leaves behind: ``write_file``
writes text or bytes, making the parent directory first, and an output
path that cannot be made or written is a ConfigError (exit 2), as an
unreadable sealed file is a DataError (exit 3)."""

import os
import struct
import zlib

import numpy as np

from .errors import ConfigError, DataError


def seal(body: bytes) -> bytes:
    """``body`` followed by its u32 CRC-32."""
    return body + struct.pack("<I", zlib.crc32(body))


def crc_ok(buf: bytes) -> bool:
    """True when ``buf`` ends in the u32 CRC-32 of the bytes before it."""
    return len(buf) >= 4 and zlib.crc32(buf[:-4]) == int.from_bytes(buf[-4:], "little")


def make_dir(path) -> str:
    """Make the directory ``path`` (and its parents) if missing; return it."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from None
    return path


def write_file(path, data: str | bytes) -> None:
    """Write ``data`` to ``path``, str as UTF-8, in a directory made if missing."""
    make_dir(os.path.dirname(path) or ".")
    try:
        with open(path, "wb") as fh:
            fh.write(data.encode("utf-8") if isinstance(data, str) else data)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from None


class SealedReader:
    """Reads a sealed body field by field. A missing file, a bad CRC, a
    body shorter or longer than its fields and a NaN or infinite float all
    raise DataError."""

    def __init__(self, path, what: str):
        self.path, self.what, self.off = path, what, 0
        try:
            with open(path, "rb") as fh:
                buf = fh.read()
        except OSError as exc:
            raise DataError(f"cannot read {what} {path}: {exc.strerror or exc}") from None
        self.body = buf[:-4]
        if not crc_ok(buf):
            raise self.error("CRC mismatch")

    def error(self, problem: str) -> DataError:
        return DataError(f"{self.path}: {self.what} {problem}")

    def take(self, size: int) -> bytes:
        if self.off + size > len(self.body):
            raise self.error("is truncated")
        self.off += size
        return self.body[self.off - size: self.off]

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def array(self, dtype: str, count: int) -> np.ndarray:
        out = np.frombuffer(self.take(count * np.dtype(dtype).itemsize), dtype)
        if not np.all(np.isfinite(out)):
            raise self.error("holds a non-finite value")
        return out

    def finish(self) -> None:
        if self.off != len(self.body):
            raise self.error("has trailing bytes")
