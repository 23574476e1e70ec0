"""Bit-exact binary wire format for update deltas.

Frame layout (normative; every multi-byte integer little-endian):

    offset  size  field
    0       4     magic, ASCII "ODUP"
    4       1     version = 1
    5       1     strategy: 0 = full, 1 = stack, 2 = queue
    6       2     reserved, zero
    8       4     u32 epoch
    12      4     u32 vocab
    16      2     u16 n
    18      2     u16 k
    20      4     u32 d
    24      4     u32 beta                      (header = 28 bytes)
    28      ...   packed codes: for items v = 0..vocab-1 and components
                  i = 0..n-1, each code written as b = max(1, ceil(log2 k))
                  bits, most-significant-bit first, one continuous
                  bitstream zero-padded to a byte boundary at the end
    ...     4*b   slot list: beta u32 row indices in application order
    ...     4*b*d rows: beta*d finite IEEE-754 binary32, row-major
    ...     4     u32 CRC-32 (IEEE) over all preceding bytes

beta = 0 frames are invalid: a skipped update means "no frame at all".
A full frame carries every row: its beta is n*k.
Persisted frames use the ``.odup`` file extension.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import FrameError
from .sealed import crc_ok, seal
from .updater import UpdateDelta

MAGIC = b"ODUP"
VERSION = 1
HEADER_LEN = 28
_HEADER = "<4sBB2xIIHHII"

STRATEGY_CODES = {"full": 0, "stack": 1, "queue": 2}
STRATEGY_NAMES = {v: k for k, v in STRATEGY_CODES.items()}


def code_bits(k: int) -> int:
    """Bits per code component; k = 1 still occupies one bit."""
    if k < 1:
        raise ValueError("k must be positive")
    return max(1, (k - 1).bit_length())


def packed_code_bytes(vocab: int, n: int, k: int) -> int:
    return (vocab * n * code_bits(k) + 7) // 8


def pack_codes(codes: np.ndarray, k: int) -> bytes:
    """Pack a (vocab, n) code matrix MSB-first at code_bits(k) bits each,
    one bit plane at a time."""
    codes = np.asarray(codes)
    if codes.size and (codes.min() < 0 or codes.max() >= k):
        raise ValueError("code value out of range [0, k)")
    b = code_bits(k)
    flat = codes.ravel()
    bits = np.empty(flat.size * b, dtype=np.uint8)
    for j in range(b):
        bits[j::b] = (flat >> (b - 1 - j)) & 1
    return np.packbits(bits).tobytes()


def unpack_codes(buf: bytes, vocab: int, n: int, k: int) -> np.ndarray:
    """Inverse of pack_codes: an int32 (vocab, n) code matrix."""
    b = code_bits(k)
    total = vocab * n
    if len(buf) < (total * b + 7) // 8:
        raise ValueError("code buffer too short")
    bits = np.unpackbits(np.frombuffer(buf, dtype=np.uint8), count=total * b)
    vals = np.zeros(total, dtype=np.int32)
    for j in range(b):
        vals <<= 1
        vals |= bits[j::b]
    return vals.reshape(vocab, n)


def delta_bytes(vocab: int, n: int, k: int, d: int, beta: int) -> int:
    """Closed-form frame length; equals len(encode_delta(...)) exactly."""
    if min(vocab, n, k, d, beta) < 1:
        raise ValueError("all arguments must be positive")
    return HEADER_LEN + packed_code_bytes(vocab, n, k) + 4 * beta + 4 * beta * d + 4


def encode_delta(delta: UpdateDelta, *, vocab: int, d: int, n: int, k: int) -> bytes:
    """Serialize a delta to the frame layout above. ``UpdateDelta`` holds
    float32 row values, so the rows are written exactly and
    ``decode_delta(encode_delta(delta)) == delta``."""
    nk = n * k
    if delta.strategy not in STRATEGY_CODES:
        raise ValueError(f"unknown strategy {delta.strategy!r}")
    if not 1 <= delta.beta <= nk or (delta.strategy == "full" and delta.beta != nk):
        raise ValueError(f"beta must lie in [1, {nk}], and a full frame carries all {nk} rows")
    if delta.codes.shape != (vocab, n):
        raise ValueError("codes shape does not match (vocab, n)")
    if delta.new_rows.shape != (delta.beta, d):
        raise ValueError("rows shape does not match (beta, d)")
    slots = np.asarray(delta.replaced_slots, dtype=np.int64)
    if slots.min() < 0 or slots.max() >= nk:
        raise ValueError("slot index out of range [0, nk)")
    if not 0 <= delta.epoch < 2**32:
        raise ValueError("epoch does not fit in u32")
    head = struct.pack(
        _HEADER, MAGIC, VERSION, STRATEGY_CODES[delta.strategy],
        delta.epoch, vocab, n, k, d, delta.beta,
    )
    return seal(
        head
        + pack_codes(delta.codes, k)
        + slots.astype("<u4").tobytes()
        + delta.new_rows.astype("<f4").tobytes()
    )


def frame_dims(buf: bytes) -> tuple[int, int, int, int]:
    """The header's (vocab, n, k, d) of a frame that decode_delta accepted."""
    return struct.unpack_from(_HEADER, buf)[4:8]


def decode_delta(buf: bytes) -> UpdateDelta:
    """Inverse of encode_delta. Raises FrameError with ``check`` naming the
    failed validation: size, magic, version, strategy, beta, crc,
    code_range, slot_range, rows (a NaN or infinite row value)."""
    buf = bytes(buf)
    if len(buf) < HEADER_LEN + 4:
        raise FrameError("size", f"frame too short ({len(buf)} bytes)")
    magic, version, scode, epoch, vocab, n, k, d, beta = struct.unpack_from(_HEADER, buf, 0)
    if magic != MAGIC:
        raise FrameError("magic", f"bad magic {magic!r}")
    if version != VERSION:
        raise FrameError("version", f"unsupported version {version}")
    if scode not in STRATEGY_NAMES:
        raise FrameError("strategy", f"unknown strategy byte {scode}")
    if min(vocab, n, k, d) < 1:
        raise FrameError("size", "zero dimension in header")
    nk = n * k
    if not 1 <= beta <= nk or (STRATEGY_NAMES[scode] == "full" and beta != nk):
        raise FrameError("beta", f"beta {beta} outside [1, {nk}] or not {nk} in a full frame")
    expected = delta_bytes(vocab, n, k, d, beta)
    if len(buf) != expected:
        raise FrameError("size", f"frame is {len(buf)} bytes, layout requires {expected}")
    if not crc_ok(buf):
        raise FrameError("crc", "CRC-32 mismatch")
    off = HEADER_LEN
    ncb = packed_code_bytes(vocab, n, k)
    codes = unpack_codes(buf[off: off + ncb], vocab, n, k)
    if codes.size and codes.max() >= k:
        raise FrameError("code_range", f"code value >= k ({k}) in stream")
    off += ncb
    slots = np.frombuffer(buf, "<u4", beta, off).astype(np.int64)
    if slots.size and slots.max() >= nk:
        raise FrameError("slot_range", f"slot index >= nk ({nk})")
    off += 4 * beta
    rows = np.frombuffer(buf, "<f4", beta * d, off).reshape(beta, d)
    if not np.all(np.isfinite(rows)):
        raise FrameError("rows", "NaN or infinite row value")
    return UpdateDelta(
        epoch=epoch,
        strategy=STRATEGY_NAMES[scode],
        beta=beta,
        new_rows=rows,
        codes=codes,
        replaced_slots=[int(s) for s in slots],
    )
