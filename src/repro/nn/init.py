"""Weight initialization (He-normal), seeded for reproducibility."""

from __future__ import annotations

import numpy as np

_rng = np.random.default_rng(0)


def seed(value: int) -> None:
    """Reset the global initializer RNG (used for reproducible experiments)."""
    global _rng
    _rng = np.random.default_rng(value)


def kaiming_normal(shape, fan_in: int) -> np.ndarray:
    """He-normal init, suited to ReLU-family activations (paper trains VGG)."""
    std = np.sqrt(2.0 / fan_in)
    return (_rng.standard_normal(shape) * std).astype(np.float32)


def zeros(shape) -> np.ndarray:
    return np.zeros(shape, dtype=np.float32)


def ones(shape) -> np.ndarray:
    return np.ones(shape, dtype=np.float32)
