import zlib

import numpy as np
import pytest

from odup.codec import CodebookStore, load_compressed_model, save_compressed_model
from odup.errors import DataError
from odup.numkit import Rng
from odup.recommender import load_checkpoint, save_checkpoint
from odup.sessions import (
    SessionDataset, SlicePlan, load_dataset_cache, save_dataset_cache, synth_generate,
)


def write_ckpt(path):
    save_checkpoint(path, np.arange(12.0).reshape(4, 3))
    return load_checkpoint


def write_odcm(path):
    store = CodebookStore(2, 4, 3, np.arange(24.0).reshape(8, 3))
    save_compressed_model(path, store, np.zeros((5, 2), dtype=np.int32), 5)
    return load_compressed_model


def write_cache(path):
    res = synth_generate(Rng(3).child("s"), 60, 200, 0.3, SlicePlan.from_ratios([1, 2]))
    save_dataset_cache(path, res.slices, res.test, [f"i{j}" for j in range(60)])
    return load_dataset_cache


WRITERS = {".ckpt": write_ckpt, ".odcm": write_odcm, ".cache": write_cache}


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


class TestDatasetCacheChecks:
    def test_version_1_cache_rejected(self, tmp_path):
        path = tmp_path / "data.cache"
        write_cache(path)
        body = bytearray(path.read_bytes()[:-4])
        body[0] = 1
        reseal(path, bytes(body))
        with pytest.raises(DataError, match="version 1"):
            load_dataset_cache(path)

    def test_non_utf8_item_id_rejected(self, tmp_path):
        path = tmp_path / "data.cache"
        ds = SessionDataset(np.array([0, 1]), np.array([0]), np.array([1]), 2)
        save_dataset_cache(path, [ds], ds, ["ab", "cd"])
        body = path.read_bytes()[:-4]
        reseal(path, body.replace(b"ab", b"\xff\xfe", 1))
        with pytest.raises(DataError, match="UTF-8"):
            load_dataset_cache(path)

    @pytest.mark.parametrize("items,starts,ends", [
        ([0, 1], [0], [2]),        # label position past the item array
        ([0, 1, 1], [1], [1]),     # empty prefix
        ([0, 1, 1], [2], [1]),     # prefix runs backwards
        ([0, 5], [0], [1]),        # item outside the vocabulary
    ])
    def test_out_of_bounds_layout_rejected(self, tmp_path, items, starts, ends):
        path = tmp_path / "data.cache"
        good = SessionDataset(np.array([0, 1]), np.array([0]), np.array([1]), 2)
        bad = SessionDataset(np.array(items), np.array(starts), np.array(ends), 2)
        save_dataset_cache(path, [good], bad, ["a", "b"])
        with pytest.raises(DataError, match="outside"):
            load_dataset_cache(path)
