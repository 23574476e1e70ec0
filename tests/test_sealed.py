import zlib

import numpy as np
import pytest

from odup.errors import DataError
from odup.recommender import load_checkpoint, save_checkpoint


def write_ckpt(path):
    save_checkpoint(path, np.arange(12.0).reshape(4, 3))


def reseal(path, body: bytes):
    path.write_bytes(body + zlib.crc32(body).to_bytes(4, "little"))


class TestSealedFiles:
    def test_round_trip_loads(self, tmp_path):
        path = tmp_path / "f.ckpt"
        write_ckpt(path)
        load_checkpoint(path)

    @pytest.mark.parametrize("cut", [1, 4, 13])
    def test_truncated_body_with_valid_crc(self, tmp_path, cut):
        path = tmp_path / "f.ckpt"
        write_ckpt(path)
        reseal(path, path.read_bytes()[:-4 - cut])
        with pytest.raises(DataError, match="truncated"):
            load_checkpoint(path)

    def test_trailing_bytes_with_valid_crc(self, tmp_path):
        path = tmp_path / "f.ckpt"
        write_ckpt(path)
        reseal(path, path.read_bytes()[:-4] + b"\0")
        with pytest.raises(DataError, match="trailing"):
            load_checkpoint(path)

    def test_crc_mismatch(self, tmp_path):
        path = tmp_path / "f.ckpt"
        write_ckpt(path)
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0x01
        path.write_bytes(bytes(raw))
        with pytest.raises(DataError, match="CRC mismatch"):
            load_checkpoint(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "f.ckpt"
        write_ckpt(path)
        reseal(path, b"\x02" + path.read_bytes()[1:-4])
        with pytest.raises(DataError, match="version 2 is unsupported"):
            load_checkpoint(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            load_checkpoint(tmp_path / "missing.ckpt")


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_float_rejected(tmp_path, value):
    path = tmp_path / "f.ckpt"
    write_ckpt(path)
    # a checkpoint ends in float32 rows, so the last 4 body bytes are a float
    reseal(path, path.read_bytes()[:-8] + np.float32(value).astype("<f4").tobytes())
    with pytest.raises(DataError, match="non-finite"):
        load_checkpoint(path)
