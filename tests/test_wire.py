import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from odup.errors import FrameError
from odup.numkit import Rng
from odup.updater import UpdateDelta
from odup.wire import (
    code_bits, decode_delta, delta_bytes, encode_delta, pack_codes, packed_code_bytes,
    unpack_codes,
)

from helpers import pack_codes_bit_matrix, unpack_codes_bit_matrix


def random_delta(rng: Rng, vocab, n, k, d, beta, strategy="queue", epoch=2):
    codes = rng.integers(0, k, (vocab, n)).astype(np.int32)
    rows = rng.uniform((beta, d))
    slots = [int(s) for s in np.sort(rng.choice(n * k, beta, replace=False))]
    return UpdateDelta(epoch, strategy, beta, rows, codes, slots)


class TestCodeBits:
    def test_values(self):
        assert code_bits(1) == 1
        assert code_bits(2) == 1
        assert code_bits(3) == 2
        assert code_bits(16) == 4
        assert code_bits(32) == 5
        assert code_bits(33) == 6


class TestPacking:
    def test_roundtrip(self):
        rng = Rng(1)
        for k in (1, 2, 3, 7, 16, 32):
            codes = rng.integers(0, k, (17, 5)).astype(np.int32)
            buf = pack_codes(codes, k)
            assert len(buf) == (17 * 5 * code_bits(k) + 7) // 8
            out = unpack_codes(buf, 17, 5, k)
            assert np.array_equal(codes, out)

    def test_msb_first(self):
        # single code value 1 at k=16 occupies the top nibble: 0b0001 0000...
        buf = pack_codes(np.array([[1]]), 16)
        assert buf[0] == 0b00010000

    def test_range_rejected(self):
        with pytest.raises(ValueError):
            pack_codes(np.array([[4]]), 4)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_bit_planes_equal_bit_matrix(self, data):
        b = data.draw(st.integers(1, 16))
        k = data.draw(st.sampled_from([2**b, 2 ** (b - 1) + 1]))
        assert code_bits(k) == b
        dtype = data.draw(st.sampled_from([np.int32, np.int64, np.uint8]))
        # odd vocab and n: the bit count vocab*n*b is a multiple of 8 only when b is
        vocab, n = (data.draw(st.integers(0, 20).map(lambda i: 2 * i + 1)) for _ in range(2))
        rng = Rng(data.draw(st.integers(0, 2**16)))
        high = min(k, 256) if dtype is np.uint8 else k
        codes = rng.integers(0, high, (vocab, n)).astype(dtype)
        codes.flat[0] = high - 1
        buf = pack_codes(codes, k)
        assert buf == pack_codes_bit_matrix(codes, k)
        assert len(buf) == packed_code_bytes(vocab, n, k)
        out = unpack_codes(buf, vocab, n, k)
        assert out.dtype == np.int32
        assert np.array_equal(out, codes)
        # any bit stream, including values >= k that decode_delta rejects afterwards
        noise = rng.integers(0, 256, len(buf)).astype(np.uint8).tobytes()
        decoded = unpack_codes(noise, vocab, n, k)
        assert decoded.dtype == np.int32
        assert np.array_equal(decoded, unpack_codes_bit_matrix(noise, vocab, n, k))


class TestDeltaBytes:
    def test_spec_example(self):
        assert delta_bytes(1000, 8, 16, 32, 16) == 6144

    def test_beta_extremes_difference(self):
        nk, d = 8 * 16, 32
        full = delta_bytes(1000, 8, 16, d, nk)
        one = delta_bytes(1000, 8, 16, d, 1)
        assert full - one == (nk - 1) * d * 4 + (nk - 1) * 4

    def test_lastfm_scale(self):
        got = delta_bytes(10000, 20, 32, 128, 64)
        assert got == 28 + 125000 + 256 + 32768 + 4 == 158056
        raw = 10000 * 128 * 4
        assert raw == 5_120_000
        assert abs(raw / got - 32.39) < 0.01

    @settings(max_examples=80, deadline=None)
    @given(
        vocab=st.integers(1, 300),
        n=st.integers(1, 8),
        k=st.integers(1, 33),
        d=st.integers(1, 24),
        data=st.data(),
    )
    def test_matches_encoded_length(self, vocab, n, k, d, data):
        beta = data.draw(st.integers(1, n * k))
        delta = random_delta(Rng(5), vocab, n, k, d, beta)
        frame = encode_delta(delta, vocab=vocab, d=d, n=n, k=k)
        assert len(frame) == delta_bytes(vocab, n, k, d, beta)


class TestRoundTrip:
    def test_random_frames_bitwise(self):
        rng = Rng(77)
        for trial in range(20):
            vocab = int(rng.integers(1, 200))
            n = int(rng.integers(1, 6))
            k = int(rng.integers(2, 40))
            d = int(rng.integers(2, 20))
            beta = int(rng.integers(1, n * k + 1))
            strategy = ("full", "stack", "queue")[trial % 3]
            if strategy == "full":
                beta = n * k
            delta = random_delta(rng, vocab, n, k, d, beta, strategy, epoch=trial + 1)
            frame = encode_delta(delta, vocab=vocab, d=d, n=n, k=k)
            out = decode_delta(frame)
            assert out == delta
            assert encode_delta(out, vocab=vocab, d=d, n=n, k=k) == frame

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 4), k=st.integers(1, 8), d=st.integers(1, 6), data=st.data())
    def test_unrounded_rows_roundtrip(self, n, k, d, data):
        beta = data.draw(st.integers(1, n * k))
        f32_max = float(np.finfo(np.float32).max)
        rows = data.draw(arrays(np.float64, (beta, d), elements=st.floats(-f32_max, f32_max)))
        d0 = random_delta(Rng(0), 7, n, k, d, beta)
        delta = UpdateDelta(d0.epoch, d0.strategy, beta, rows, d0.codes, d0.replaced_slots)
        assert decode_delta(encode_delta(delta, vocab=7, d=d, n=n, k=k)) == delta

    @settings(max_examples=100, deadline=None)
    @given(rows=arrays(np.float64, st.tuples(st.integers(1, 3), st.integers(1, 3)),
                       elements=st.floats(allow_nan=False, allow_infinity=False)))
    @example(rows=np.array([[1e39, 0.0], [1.0, 0.0]]))
    @example(rows=np.array([[float(np.finfo(np.float32).max) * (1 + 2.0 ** -25)]]))
    def test_finite_rows_construct_only_if_they_roundtrip(self, rows):
        beta, d = rows.shape
        try:
            delta = UpdateDelta(1, "stack", beta, rows, np.zeros((5, 1), dtype=np.int32), list(range(beta)))
        except ValueError:
            with np.errstate(over="ignore"):
                assert not np.all(np.isfinite(rows.astype(np.float32)))
            return
        assert decode_delta(encode_delta(delta, vocab=5, d=d, n=1, k=4)) == delta

    def test_encode_decode_encode_idempotent(self):
        delta = random_delta(Rng(3), 50, 4, 8, 6, 9)
        frame = encode_delta(delta, vocab=50, d=6, n=4, k=8)
        again = encode_delta(decode_delta(frame), vocab=50, d=6, n=4, k=8)
        assert frame == again

    def test_k_one_uses_one_bit(self):
        delta = random_delta(Rng(4), 30, 2, 1, 4, 2)
        frame = encode_delta(delta, vocab=30, d=4, n=2, k=1)
        assert len(frame) == delta_bytes(30, 2, 1, 4, 2)
        assert np.array_equal(decode_delta(frame).codes, delta.codes)


class TestCorruption:
    def test_every_single_bit_flip_rejected(self):
        delta = random_delta(Rng(9), 12, 2, 4, 4, 3)
        frame = bytearray(encode_delta(delta, vocab=12, d=4, n=2, k=4))
        for byte_idx in range(len(frame)):
            for bit in range(8):
                frame[byte_idx] ^= 1 << bit
                with pytest.raises(FrameError):
                    decode_delta(bytes(frame))
                frame[byte_idx] ^= 1 << bit
        decode_delta(bytes(frame))  # restored frame still valid

    def test_payload_flip_is_crc(self):
        delta = random_delta(Rng(9), 12, 2, 4, 4, 3)
        frame = bytearray(encode_delta(delta, vocab=12, d=4, n=2, k=4))
        frame[40] ^= 0x01
        with pytest.raises(FrameError) as exc:
            decode_delta(bytes(frame))
        assert exc.value.check == "crc"

    def test_truncation_is_size_error(self):
        delta = random_delta(Rng(9), 12, 2, 4, 4, 3)
        frame = encode_delta(delta, vocab=12, d=4, n=2, k=4)
        with pytest.raises(FrameError) as exc:
            decode_delta(frame[:-5])
        assert exc.value.check == "size"
        with pytest.raises(FrameError) as exc:
            decode_delta(frame[:10])
        assert exc.value.check == "size"

    def test_bad_magic_and_version(self):
        delta = random_delta(Rng(9), 12, 2, 4, 4, 3)
        frame = bytearray(encode_delta(delta, vocab=12, d=4, n=2, k=4))
        bad = bytes(b"XXXX") + bytes(frame[4:])
        with pytest.raises(FrameError) as exc:
            decode_delta(bad)
        assert exc.value.check == "magic"
        frame2 = bytearray(frame)
        frame2[4] = 2
        with pytest.raises(FrameError) as exc:
            decode_delta(bytes(frame2))
        assert exc.value.check == "version"

    def _refresh_crc(self, frame: bytearray) -> bytes:
        import struct
        import zlib

        body = bytes(frame[:-4])
        return body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)

    def test_code_out_of_range(self):
        # k=3 packs into 2 bits, so the value 3 is encodable but invalid
        delta = random_delta(Rng(10), 4, 1, 3, 2, 2)
        delta.codes[:] = 0
        frame = bytearray(encode_delta(delta, vocab=4, d=2, n=1, k=3))
        frame[28] = 0b11000000  # first code component -> 3
        with pytest.raises(FrameError) as exc:
            decode_delta(self._refresh_crc(frame))
        assert exc.value.check == "code_range"

    def test_slot_out_of_range(self):
        import struct

        delta = random_delta(Rng(11), 4, 1, 4, 2, 2)
        frame = bytearray(encode_delta(delta, vocab=4, d=2, n=1, k=4))
        code_bytes = (4 * 1 * 2 + 7) // 8
        slot_off = 28 + code_bytes
        frame[slot_off: slot_off + 4] = struct.pack("<I", 99)
        with pytest.raises(FrameError) as exc:
            decode_delta(self._refresh_crc(frame))
        assert exc.value.check == "slot_range"

    def test_beta_zero_invalid(self):
        import struct

        delta = random_delta(Rng(12), 4, 1, 4, 2, 2)
        frame = bytearray(encode_delta(delta, vocab=4, d=2, n=1, k=4))
        frame[24:28] = struct.pack("<I", 0)
        with pytest.raises(FrameError) as exc:
            decode_delta(self._refresh_crc(frame))
        assert exc.value.check == "beta"

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_row_is_rows_error(self, value):
        delta = random_delta(Rng(13), 4, 1, 4, 2, 2)
        delta.new_rows[1, 0] = value
        with pytest.raises(FrameError) as exc:
            decode_delta(encode_delta(delta, vocab=4, d=2, n=1, k=4))
        assert exc.value.check == "rows"

