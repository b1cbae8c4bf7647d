"""Synthetic class-conditional image datasets.

The paper evaluates on CIFAR-10, CIFAR-100 and Tiny-ImageNet.  Those
datasets (and the network to download them) are unavailable offline, so
this module generates *procedural* stand-ins with matched geometry:

* class-conditional smooth "prototype" textures (low-frequency random
  fields per class, optionally several modes per class),
* instance variation from random shifts, contrast/brightness jitter and
  additive noise.

The generators are deterministic given a seed.  They preserve what the
paper's experiments actually measure — the *relative* accuracy between
training recipes and the degradation introduced by discretising
activations — because those effects depend on decision-boundary geometry
rather than on natural-image statistics.  Absolute accuracies are not
comparable to the paper's (documented in EXPERIMENTS.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np
from scipy import ndimage

from ..util import Registry


@dataclass
class Dataset:
    """An in-memory split dataset of NCHW float32 images in [0, 1]."""

    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray
    num_classes: int
    name: str = "synthetic"
    meta: Dict = field(default_factory=dict)

    @property
    def image_shape(self) -> Tuple[int, int, int]:
        return tuple(self.train_x.shape[1:])

    def train_head(self, n: int) -> np.ndarray:
        """First ``n`` train images (same surface as ShardedDataset)."""
        return self.train_x[:n]

    def __repr__(self) -> str:
        return (
            f"Dataset({self.name}, classes={self.num_classes}, "
            f"train={len(self.train_y)}, test={len(self.test_y)}, "
            f"shape={self.image_shape})"
        )


def _class_prototypes(
    rng: np.random.Generator,
    num_classes: int,
    modes_per_class: int,
    channels: int,
    size: int,
    smoothness: float,
) -> np.ndarray:
    """Smooth random fields: (classes, modes, C, H, W), zero-mean unit-ish."""
    raw = rng.standard_normal((num_classes, modes_per_class, channels, size, size))
    smooth = ndimage.gaussian_filter(
        raw, sigma=(0, 0, 0, smoothness, smoothness), mode="wrap"
    )
    # Normalise each prototype to unit std so class difficulty is uniform.
    std = smooth.std(axis=(-1, -2, -3), keepdims=True)
    return (smooth / np.maximum(std, 1e-8)).astype(np.float32)


def roll_images(images: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """Circularly shift each NCHW image by its own (dy, dx).

    Batched equivalent of ``np.roll(images[i], tuple(shifts[i]), axis=(1, 2))``
    for every ``i``: a roll by ``s`` reads element ``(j - s) % size``, so two
    ``take_along_axis`` gathers with per-image modular index rows reproduce
    the per-image loop bit for bit.
    """
    n, _, h, w = images.shape
    rows = (np.arange(h)[None, :] - shifts[:, 0:1]) % h
    cols = (np.arange(w)[None, :] - shifts[:, 1:2]) % w
    out = np.take_along_axis(images, rows[:, None, :, None], axis=2)
    return np.take_along_axis(out, cols[:, None, None, :], axis=3)


def _render(
    rng: np.random.Generator,
    prototypes: np.ndarray,
    labels: np.ndarray,
    size: int,
    noise_std: float,
    max_shift: int,
) -> np.ndarray:
    """Render one image per label with instance-level variation."""
    num_classes, modes = prototypes.shape[:2]
    n = len(labels)
    channels = prototypes.shape[2]
    mode_pick = rng.integers(0, modes, size=n)
    shifts = rng.integers(-max_shift, max_shift + 1, size=(n, 2))
    contrast = rng.uniform(0.8, 1.2, size=n).astype(np.float32)
    brightness = rng.uniform(-0.1, 0.1, size=n).astype(np.float32)
    noise = rng.standard_normal((n, channels, size, size)).astype(np.float32)
    rolled = roll_images(prototypes[labels, mode_pick], shifts)
    images = (
        contrast[:, None, None, None] * rolled
        + brightness[:, None, None, None]
        + noise_std * noise
    )
    # Map roughly N(0,1) field to [0,1] pixel range.
    images = 0.5 + 0.22 * images
    return np.clip(images, 0.0, 1.0)


def make_dataset(
    num_classes: int,
    image_size: int,
    train_per_class: int,
    test_per_class: int,
    channels: int = 3,
    modes_per_class: int = 2,
    noise_std: float = 0.35,
    smoothness: float = 3.0,
    max_shift: int = 2,
    seed: int = 2022,
    name: str = "synthetic",
) -> Dataset:
    """Build a deterministic synthetic classification dataset.

    ``noise_std`` is the difficulty knob: higher values push class
    distributions together, which makes accuracy sensitive to activation
    precision — the property the conversion-loss experiments need.
    """
    rng = np.random.default_rng(seed)
    prototypes = _class_prototypes(
        rng, num_classes, modes_per_class, channels, image_size, smoothness
    )
    train_y = np.repeat(np.arange(num_classes), train_per_class)
    test_y = np.repeat(np.arange(num_classes), test_per_class)
    rng.shuffle(train_y)
    rng.shuffle(test_y)
    train_x = _render(rng, prototypes, train_y, image_size, noise_std, max_shift)
    test_x = _render(rng, prototypes, test_y, image_size, noise_std, max_shift)
    return Dataset(
        train_x=train_x,
        train_y=train_y.astype(np.int64),
        test_x=test_x,
        test_y=test_y.astype(np.int64),
        num_classes=num_classes,
        name=name,
        meta={
            "image_size": image_size,
            "channels": channels,
            "noise_std": noise_std,
            "seed": seed,
        },
    )


# ----------------------------------------------------------------------
# Named stand-ins for the paper's three datasets (full-geometry and mini)
# ----------------------------------------------------------------------

#: Every named dataset generator; ``load(name, **kwargs)`` calls one.
DATASETS = Registry("dataset")


@DATASETS.register("cifar10")
def synthetic_cifar10(train_per_class: int = 200, test_per_class: int = 50,
                      seed: int = 10) -> Dataset:
    """32x32x3, 10 classes — CIFAR-10 stand-in."""
    return make_dataset(10, 32, train_per_class, test_per_class, seed=seed,
                        name="synthetic-cifar10")


@DATASETS.register("cifar100")
def synthetic_cifar100(train_per_class: int = 40, test_per_class: int = 10,
                       seed: int = 100) -> Dataset:
    """32x32x3, 100 classes — CIFAR-100 stand-in."""
    return make_dataset(100, 32, train_per_class, test_per_class, seed=seed,
                        name="synthetic-cifar100")


@DATASETS.register("tiny-imagenet")
def synthetic_tiny_imagenet(train_per_class: int = 20, test_per_class: int = 5,
                            seed: int = 200) -> Dataset:
    """64x64x3, 200 classes — Tiny-ImageNet stand-in."""
    return make_dataset(200, 64, train_per_class, test_per_class, seed=seed,
                        name="synthetic-tiny-imagenet")


@DATASETS.register("mini-cifar10")
def mini_cifar10(seed: int = 11) -> Dataset:
    """16x16x3, 10 classes — CI-speed CIFAR-10 analogue."""
    return make_dataset(10, 16, 60, 20, noise_std=0.30, seed=seed,
                        name="mini-cifar10")


@DATASETS.register("mini-cifar100")
def mini_cifar100(seed: int = 101) -> Dataset:
    """16x16x3, 20 classes — CI-speed CIFAR-100 analogue (denser classes)."""
    return make_dataset(20, 16, 30, 10, noise_std=0.30, seed=seed,
                        name="mini-cifar100")


@DATASETS.register("mini-tiny-imagenet")
def mini_tiny_imagenet(seed: int = 201) -> Dataset:
    """24x24x3, 30 classes — CI-speed Tiny-ImageNet analogue."""
    return make_dataset(30, 24, 20, 8, noise_std=0.32, seed=seed,
                        name="mini-tiny-imagenet")


load = DATASETS.create
available = DATASETS.names
