"""Synthetic dataset generators, loaders and transforms."""

import numpy as np
import pytest

from repro.data import (
    StreamingDataLoader,
    available,
    load,
    make_dataset,
    mini_cifar10,
    normalize,
    random_crop,
    random_hflip,
    synthetic_cifar10,
    synthetic_tiny_imagenet,
)


class TestGenerators:
    def test_deterministic(self):
        a = make_dataset(4, 8, 10, 5, seed=3)
        b = make_dataset(4, 8, 10, 5, seed=3)
        assert np.array_equal(a.train_x, b.train_x)
        assert np.array_equal(a.test_y, b.test_y)

    def test_seed_changes_data(self):
        a = make_dataset(4, 8, 10, 5, seed=3)
        b = make_dataset(4, 8, 10, 5, seed=4)
        assert not np.array_equal(a.train_x, b.train_x)

    def test_shapes_and_range(self):
        ds = make_dataset(6, 16, 10, 4, channels=3)
        assert ds.train_x.shape == (60, 3, 16, 16)
        assert ds.test_x.shape == (24, 3, 16, 16)
        assert ds.train_x.min() >= 0.0 and ds.train_x.max() <= 1.0

    def test_class_balance(self):
        ds = make_dataset(5, 8, 12, 6, seed=0)
        counts = np.bincount(ds.train_y)
        assert np.all(counts == 12)

    def test_labels_int64(self):
        ds = make_dataset(3, 8, 4, 2)
        assert ds.train_y.dtype == np.int64

    def test_classes_are_distinguishable(self):
        """A nearest-prototype classifier should beat chance by a lot."""
        ds = make_dataset(4, 16, 40, 20, seed=5, noise_std=0.3)
        protos = np.stack([
            ds.train_x[ds.train_y == c].mean(axis=0) for c in range(4)
        ])
        flat_p = protos.reshape(4, -1)
        flat_x = ds.test_x.reshape(len(ds.test_x), -1)
        dists = ((flat_x[:, None] - flat_p[None]) ** 2).sum(axis=2)
        acc = (dists.argmin(axis=1) == ds.test_y).mean()
        assert acc > 0.5  # chance = 0.25

    def test_geometry_of_named_sets(self):
        c10 = synthetic_cifar10(train_per_class=2, test_per_class=1)
        assert c10.image_shape == (3, 32, 32) and c10.num_classes == 10
        tin = synthetic_tiny_imagenet(train_per_class=1, test_per_class=1)
        assert tin.image_shape == (3, 64, 64) and tin.num_classes == 200

    def test_registry(self):
        assert "cifar10" in available()
        ds = load("mini-cifar10")
        assert ds.num_classes == 10

    def test_registry_unknown(self):
        with pytest.raises(KeyError):
            load("imagenet-22k")

    def test_repr(self):
        assert "mini-cifar10" in repr(mini_cifar10())


class TestDataLoader:
    def test_batching_covers_all(self):
        ds = make_dataset(3, 8, 10, 3, seed=1)
        loader = StreamingDataLoader(ds.train_x, ds.train_y, batch_size=8,
                                     prefetch=0)
        seen = sum(len(y) for _, y in loader)
        assert seen == 30
        assert len(loader) == 4

    def test_shuffle_changes_order(self):
        ds = make_dataset(3, 8, 20, 3, seed=1)
        l1 = StreamingDataLoader(ds.train_x, ds.train_y, batch_size=60,
                                 shuffle=True, seed=1, prefetch=0)
        l2 = StreamingDataLoader(ds.train_x, ds.train_y, batch_size=60,
                                 shuffle=False, prefetch=0)
        _, y1 = next(iter(l1))
        _, y2 = next(iter(l2))
        assert not np.array_equal(y1, y2)

    def test_augment_changes_images(self):
        ds = make_dataset(3, 8, 10, 3, seed=1)
        loader = StreamingDataLoader(ds.train_x, ds.train_y, batch_size=30,
                                     shuffle=False, augment=True, seed=0,
                                     prefetch=0)
        x, _ = next(iter(loader))
        assert x.shape == ds.train_x.shape
        assert not np.allclose(x, ds.train_x)

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            StreamingDataLoader(np.zeros((3, 1, 2, 2)), np.zeros(4),
                                prefetch=0)


class TestTransforms:
    def test_random_crop_preserves_shape(self, rng):
        x = rng.random((4, 3, 8, 8)).astype(np.float32)
        out = random_crop(x, 2, rng)
        assert out.shape == x.shape

    def test_random_crop_pad_zero_identity(self, rng):
        x = rng.random((2, 3, 8, 8)).astype(np.float32)
        assert random_crop(x, 0, rng) is x

    def test_hflip_flips_some(self):
        rng = np.random.default_rng(0)
        x = np.arange(2 * 1 * 2 * 3, dtype=np.float32).reshape(2, 1, 2, 3)
        out = random_hflip(x, rng, p=1.0)
        assert np.allclose(out, x[:, :, :, ::-1])

    def test_hflip_p_zero_identity(self, rng):
        x = rng.random((3, 1, 2, 2)).astype(np.float32)
        assert np.allclose(random_hflip(x, rng, p=0.0), x)

    def test_normalize(self):
        x = np.ones((2, 3, 2, 2), dtype=np.float32)
        out = normalize(x, mean=0.5, std=0.5)
        assert np.allclose(out, 1.0)

    def test_normalize_per_channel(self):
        x = np.ones((1, 2, 2, 2), dtype=np.float32)
        out = normalize(x, mean=np.array([1.0, 0.0]), std=np.array([1.0, 2.0]))
        assert np.allclose(out[0, 0], 0.0)
        assert np.allclose(out[0, 1], 0.5)
