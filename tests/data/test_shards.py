"""Shard format round-trip, integrity checking, and error surfaces."""

import json
import os

import numpy as np
import pytest

from repro.data import (
    SHARD_FORMAT_VERSION,
    ShardError,
    make_dataset,
    open_shards,
    write_shards,
)
from repro.data.shards import MANIFEST_NAME
from repro.errors import ReproError


@pytest.fixture(scope="module")
def dataset():
    return make_dataset(4, 8, train_per_class=30, test_per_class=10,
                        seed=5, name="shard-test")


@pytest.fixture()
def shard_dir(dataset, tmp_path):
    return write_shards(dataset, tmp_path / "shards", shard_size=32)


class TestWriteOpen:
    def test_round_trip_is_bitwise(self, dataset, shard_dir):
        sharded = open_shards(shard_dir)
        assert np.array_equal(sharded.train_y, dataset.train_y)
        assert np.array_equal(sharded.test_x, dataset.test_x)
        assert np.array_equal(sharded.test_y, dataset.test_y)
        full = sharded.gather_train(np.arange(len(dataset.train_y)))
        assert np.array_equal(full, dataset.train_x)

    def test_dataset_surface(self, dataset, shard_dir):
        sharded = open_shards(shard_dir)
        assert sharded.name == dataset.name
        assert sharded.num_classes == dataset.num_classes
        assert sharded.image_shape == dataset.image_shape
        assert sharded.num_train == len(dataset.train_y)
        assert sharded.num_test == len(dataset.test_y)
        assert "shard-test" in repr(sharded)

    def test_train_head_matches_slice(self, dataset, shard_dir):
        sharded = open_shards(shard_dir)
        assert np.array_equal(sharded.train_head(50), dataset.train_x[:50])
        # clamped past the end
        assert len(sharded.train_head(10_000)) == len(dataset.train_y)

    def test_gather_routes_across_shards(self, dataset, shard_dir):
        sharded = open_shards(shard_dir)
        idx = np.array([0, 119, 33, 64, 64, 1])  # repeats + both shards
        assert np.array_equal(sharded.gather_train(idx), dataset.train_x[idx])

    def test_shard_size_bounds_files(self, dataset, tmp_path):
        root = write_shards(dataset, tmp_path / "s", shard_size=25)
        manifest = json.loads((root / MANIFEST_NAME).read_text())
        train = manifest["splits"]["train"]
        assert len(train["shards"]) == -(-len(dataset.train_y) // 25)
        assert all(e["num_images"] <= 25 for e in train["shards"])

    def test_open_accepts_manifest_path(self, dataset, shard_dir):
        sharded = open_shards(shard_dir / MANIFEST_NAME)
        assert sharded.num_train == len(dataset.train_y)

    def test_content_digest_stable_across_opens(self, shard_dir):
        assert (open_shards(shard_dir).content_digest
                == open_shards(shard_dir).content_digest)

    def test_verify_counts_all_shards(self, shard_dir):
        sharded = open_shards(shard_dir)
        manifest = sharded.manifest
        expected = sum(len(s["shards"]) for s in manifest["splits"].values())
        assert sharded.verify() == expected

    def test_existing_dir_refused_without_force(self, dataset, shard_dir):
        with pytest.raises(ShardError, match="force"):
            write_shards(dataset, shard_dir)
        write_shards(dataset, shard_dir, force=True)  # and force works
        assert open_shards(shard_dir).verify() > 0

    def test_bad_shard_size(self, dataset, tmp_path):
        with pytest.raises(ValueError, match="shard_size"):
            write_shards(dataset, tmp_path / "s", shard_size=0)


class TestIntegrity:
    def test_missing_manifest(self, tmp_path):
        with pytest.raises(ShardError, match="not a shard directory"):
            open_shards(tmp_path)

    def test_corrupt_manifest_json(self, shard_dir):
        (shard_dir / MANIFEST_NAME).write_text("{nope")
        with pytest.raises(ShardError, match="not valid JSON"):
            open_shards(shard_dir)

    @pytest.mark.parametrize("content", [b"[1]", b"\xff",
                                         b"[" * 100_000],
                             ids=["list", "non-utf8", "deep"])
    def test_hostile_manifest_names_the_file(self, shard_dir, content):
        (shard_dir / MANIFEST_NAME).write_bytes(content)
        with pytest.raises(ShardError,
                           match=rf"{MANIFEST_NAME}: corrupted shard "):
            open_shards(shard_dir)

    def test_wrong_format_version(self, shard_dir):
        manifest = json.loads((shard_dir / MANIFEST_NAME).read_text())
        manifest["format_version"] = SHARD_FORMAT_VERSION + 1
        (shard_dir / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(ShardError, match="format version"):
            open_shards(shard_dir)

    def test_edited_manifest_body(self, shard_dir):
        manifest = json.loads((shard_dir / MANIFEST_NAME).read_text())
        manifest["num_classes"] = 99  # digest not recomputed
        (shard_dir / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(ShardError, match="digest mismatch"):
            open_shards(shard_dir)

    def test_missing_required_key(self, shard_dir):
        manifest = json.loads((shard_dir / MANIFEST_NAME).read_text())
        del manifest["dtypes"]
        (shard_dir / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(ShardError, match="dtypes"):
            open_shards(shard_dir)

    def test_tampered_shard_content(self, shard_dir):
        sharded = open_shards(shard_dir)
        fname = sharded.manifest["splits"]["train"]["shards"][0]["file"]
        path = shard_dir / fname
        data = bytearray(path.read_bytes())
        # flip a byte inside the stored array payload (past the zip
        # local header + npy header)
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(data))
        # train labels load (and digest-check) eagerly, so a fresh open
        # already trips on the tampered shard
        with pytest.raises(ShardError, match="digest mismatch"):
            open_shards(shard_dir)

    def test_truncated_shard(self, shard_dir):
        sharded = open_shards(shard_dir)
        fname = sharded.manifest["splits"]["train"]["shards"][0]["file"]
        path = shard_dir / fname
        path.write_bytes(path.read_bytes()[:100])
        with pytest.raises(ShardError, match="truncated or corrupt"):
            open_shards(shard_dir)

    def test_deleted_shard(self, shard_dir):
        sharded = open_shards(shard_dir)
        fname = sharded.manifest["splits"]["test"]["shards"][0]["file"]
        os.unlink(shard_dir / fname)
        fresh = open_shards(shard_dir)
        with pytest.raises(ShardError, match="missing"):
            _ = fresh.test_x

    def test_digest_checked_once_then_cached(self, shard_dir):
        sharded = open_shards(shard_dir)
        sharded.gather_train(np.array([0]))
        assert ("train", 0) in sharded._verified
        # second gather hits the verified-set fast path
        sharded.gather_train(np.array([1]))

    def test_shard_error_is_repro_error(self):
        assert issubclass(ShardError, ReproError)
