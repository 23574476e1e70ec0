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

import math
import struct
import zlib

import numpy as np

from .codec import check_integer_codes
from .errors import FrameError
from .updater import UpdateDelta

MAGIC = b"ODUP"
VERSION = 1
HEADER_LEN = 28
_HEADER = "<4sBB2xIIHHII"

# the width in bits of each header field encode_delta fills from its arguments
FIELD_BITS = {"epoch": 32, "vocab": 32, "n": 16, "k": 16, "d": 32}

STRATEGY_CODES = {"full": 0, "stack": 1, "queue": 2}
STRATEGY_NAMES = {v: k for k, v in STRATEGY_CODES.items()}


def code_bits(k: int) -> int:
    """Bits per code component; k = 1 still occupies one bit."""
    if k < 1:
        raise ValueError("k must be positive")
    return max(1, (k - 1).bit_length())


def packed_code_bytes(vocab: int, n: int, k: int) -> int:
    return (vocab * n * code_bits(k) + 7) // 8


def _byte_lanes(b: int):
    """The byte-lane plan for codes of b bits: g = 8 / gcd(b, 8) consecutive
    codes fill L = lcm(b, 8) / 8 whole bytes. Code r of a group starts at
    byte (r b) // 8, bit (r b) % 8, and spans m <= 3 bytes, since b <= 16.
    Returns (g, L, lanes, w): lanes[r] = (first byte, m, left shift that
    puts the code's last bit at the end of its m-byte window), and w is the
    narrowest unsigned dtype that holds every window."""
    g = 8 // math.gcd(b, 8)
    lanes = []
    for r in range(g):
        first, phase = divmod(r * b, 8)
        m = (phase + b + 7) // 8
        lanes.append((first, m, 8 * m - phase - b))
    w = np.dtype((np.uint8, np.uint16, np.uint32)[max(m for _, m, _ in lanes) - 1])
    return g, b * g // 8, lanes, w


def pack_codes(codes: np.ndarray, k: int) -> bytes:
    """Pack a (vocab, n) integer code matrix MSB-first at code_bits(k) bits
    each, as one continuous bitstream zero-padded to a byte boundary.

    Works by byte lanes (see _byte_lanes): each group of g codes fills L
    whole bytes, so code r of every group is ORed into the same <= 3 byte
    columns at once. The layout and the bytes are unchanged: exactly those
    of a bit-by-bit MSB-first packer, which golden bytes in the tests pin."""
    codes = np.asarray(codes)
    check_integer_codes(codes)
    if codes.size and (codes.min() < 0 or codes.max() >= k):
        raise ValueError("code value out of range [0, k)")
    b = code_bits(k)
    g, L, lanes, w = _byte_lanes(b)
    total = codes.size
    groups = -(-total // g)
    vals = np.zeros(groups * g, dtype=w)  # the partial last group is zero-padded
    vals[:total] = codes.ravel()
    vals = vals.reshape(groups, g)
    out = np.zeros((groups, L), dtype=np.uint8)
    for r, (first, m, shift) in enumerate(lanes):
        window = vals[:, r] << w.type(shift)
        for t in range(m):
            out[:, first + t] |= (window >> w.type(8 * (m - 1 - t))).astype(np.uint8, copy=False)
    return out.reshape(-1)[: (total * b + 7) // 8].tobytes()


def unpack_codes(buf: bytes, vocab: int, n: int, k: int) -> np.ndarray:
    """Inverse of pack_codes: an int32 (vocab, n) code matrix. Reads the
    same byte lanes back, so any byte stream decodes exactly as a
    bit-by-bit reader would, values >= k included."""
    b = code_bits(k)
    g, L, lanes, w = _byte_lanes(b)
    total = vocab * n
    nbytes = (total * b + 7) // 8
    if len(buf) < nbytes:
        raise ValueError("code buffer too short")
    groups = -(-total // g)
    src = np.zeros(groups * L, dtype=np.uint8)  # the partial last group reads zeros
    src[:nbytes] = np.frombuffer(buf, dtype=np.uint8, count=nbytes)
    src = src.reshape(groups, L)
    vals = np.empty((groups, g), dtype=np.int32)
    mask = w.type((1 << b) - 1)
    for r, (first, m, shift) in enumerate(lanes):
        window = src[:, first].astype(w)
        for t in range(1, m):
            window <<= w.type(8)
            window |= src[:, first + t]
        vals[:, r] = (window >> w.type(shift)) & mask
    return vals.reshape(-1)[:total].reshape(vocab, n)


def delta_bytes(vocab: int, n: int, k: int, d: int, beta: int) -> int:
    """Closed-form frame length; equals len(encode_delta(...)) exactly."""
    if min(vocab, n, k, d, beta) < 1:
        raise ValueError("all arguments must be positive")
    return HEADER_LEN + packed_code_bytes(vocab, n, k) + 4 * beta + 4 * beta * d + 4


def encode_delta(delta: UpdateDelta, *, vocab: int, d: int, n: int, k: int) -> bytes:
    """Serialize a delta to the frame layout above;
    ``decode_delta(encode_delta(delta))`` holds every field of ``delta``
    bit for bit."""
    for name, value in (("epoch", delta.epoch), ("vocab", vocab), ("n", n), ("k", k), ("d", d)):
        if not 0 <= value < 2 ** FIELD_BITS[name]:
            raise ValueError(f"{name} = {value} does not fit in the header's u{FIELD_BITS[name]}")
        if value == 0 and name != "epoch":
            raise ValueError(f"{name} = 0: every header dimension must be at least 1")
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
    head = struct.pack(
        _HEADER, MAGIC, VERSION, STRATEGY_CODES[delta.strategy],
        delta.epoch, vocab, n, k, d, delta.beta,
    )
    body = (
        head
        + pack_codes(delta.codes, k)
        + slots.astype("<u4").tobytes()
        + delta.new_rows.astype("<f4").tobytes()
    )
    return body + struct.pack("<I", zlib.crc32(body))


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
    if zlib.crc32(buf[:-4]) != int.from_bytes(buf[-4:], "little"):
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
