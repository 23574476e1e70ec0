import zlib

import numpy as np
import pytest

from odup.errors import DataError
from odup.recommender import load_checkpoint, save_checkpoint


def write_ckpt(path):
    save_checkpoint(path, np.arange(12.0).reshape(4, 3))
    return load_checkpoint


WRITERS = {".ckpt": write_ckpt}


def reseal(path, body: bytes):
    path.write_bytes(body + zlib.crc32(body).to_bytes(4, "little"))


@pytest.mark.parametrize("suffix", sorted(WRITERS))
class TestSealedFiles:
    def test_round_trip_loads(self, tmp_path, suffix):
        path = tmp_path / f"f{suffix}"
        WRITERS[suffix](path)(path)

    @pytest.mark.parametrize("cut", [1, 4, 13])
    def test_truncated_body_with_valid_crc(self, tmp_path, suffix, cut):
        path = tmp_path / f"f{suffix}"
        load = WRITERS[suffix](path)
        reseal(path, path.read_bytes()[:-4 - cut])
        with pytest.raises(DataError, match="truncated"):
            load(path)

    def test_trailing_bytes_with_valid_crc(self, tmp_path, suffix):
        path = tmp_path / f"f{suffix}"
        load = WRITERS[suffix](path)
        reseal(path, path.read_bytes()[:-4] + b"\0")
        with pytest.raises(DataError, match="trailing"):
            load(path)

    def test_missing_file(self, tmp_path, suffix):
        load = WRITERS[suffix](tmp_path / f"f{suffix}")
        with pytest.raises(DataError, match="cannot read"):
            load(tmp_path / f"missing{suffix}")


@pytest.mark.parametrize("suffix", sorted(WRITERS))
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_float_rejected(tmp_path, suffix, value):
    path = tmp_path / f"f{suffix}"
    load = WRITERS[suffix](path)
    # a checkpoint ends in float32 rows, so the last 4 body bytes are a float
    reseal(path, path.read_bytes()[:-8] + np.float32(value).astype("<f4").tobytes())
    with pytest.raises(DataError, match="non-finite"):
        load(path)
