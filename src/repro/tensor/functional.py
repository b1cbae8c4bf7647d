"""Loss functions and misc differentiable helpers."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor


def log_softmax(logits: Tensor, axis: int = -1) -> Tensor:
    """Numerically-stable log-softmax."""
    shifted_max = logits.data.max(axis=axis, keepdims=True)
    shifted = logits - Tensor(shifted_max)  # constant shift: gradient-safe
    exp = shifted.exp()
    return shifted - exp.sum(axis=axis, keepdims=True).log()


def softmax(logits: Tensor, axis: int = -1) -> Tensor:
    return log_softmax(logits, axis=axis).exp()


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean cross-entropy between ``logits`` (N, C) and integer ``targets`` (N,)."""
    targets = np.asarray(targets)
    n = logits.data.shape[0]
    logp = log_softmax(logits, axis=-1)
    picked = logp[np.arange(n), targets]
    return -picked.mean()


def accuracy(logits: Tensor | np.ndarray, targets: np.ndarray) -> float:
    """Top-1 accuracy in [0, 1]."""
    data = logits.data if isinstance(logits, Tensor) else np.asarray(logits)
    pred = data.argmax(axis=-1)
    return float((pred == np.asarray(targets)).mean())
