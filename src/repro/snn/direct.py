"""Direct SNN training with surrogate gradients (the intro's alternative).

The paper positions ANN-to-SNN conversion against *direct* SNN training
[2]: backpropagation-through-time over the spiking dynamics with a
surrogate derivative for the non-differentiable threshold, which "still
suffers from low accuracies compared to ANN".  This module implements
that baseline so the claim is measurable (``bench_direct_training``):

* IF neurons with reset-by-subtraction, simulated for T timesteps;
* forward spike = Heaviside(u - theta); backward surrogate = the
  fast-sigmoid derivative ``1 / (1 + alpha * |u - theta|)^2`` [2];
* constant-current input coding, spike-count readout.

Built directly on :mod:`repro.tensor`'s autograd — the graph simply
unrolls across timesteps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

import numpy as np

from ..data import Dataset, make_train_loader
from ..nn.layers import Conv2d, Linear, MaxPool2d
from ..nn.module import Module
from ..nn.sequential import Sequential
from ..optim import SGD
from ..tensor import Tensor, accuracy, cross_entropy, custom_op, max_pool2d


def surrogate_spike(u: Tensor, theta: float, alpha: float = 2.0) -> Tensor:
    """Heaviside forward, fast-sigmoid surrogate backward [2]."""
    fired = (u.data >= theta).astype(u.data.dtype)
    grad = 1.0 / (1.0 + alpha * np.abs(u.data - theta)) ** 2

    def backward(g):
        return (g * grad,)

    return custom_op([u], fired, backward)


class DirectSNN(Module):
    """A small spiking CNN trained directly with BPTT + surrogates.

    Architecture mirrors :func:`repro.nn.vgg_micro`'s topology (conv,
    pool, conv, pool, linear readout) without batch-norm — direct SNN
    training operates on raw membrane dynamics.
    """

    def __init__(self, num_classes: int = 4, in_channels: int = 3,
                 input_size: int = 8, channels: Sequence[int] = (8, 16),
                 timesteps: int = 8, theta: float = 1.0,
                 alpha: float = 2.0):
        super().__init__()
        self.timesteps = timesteps
        self.theta = theta
        self.alpha = alpha
        self.conv1 = Conv2d(in_channels, channels[0], 3, padding=1)
        self.conv2 = Conv2d(channels[0], channels[1], 3, padding=1)
        spatial = input_size // 4
        self.readout = Linear(channels[1] * spatial * spatial, num_classes)

    def forward(self, x: Tensor) -> Tensor:
        """Unroll T timesteps; returns mean readout membrane."""
        theta = self.theta
        u1 = u2 = out_sum = None
        for _ in range(self.timesteps):
            z1 = self.conv1(x)  # constant-current input coding
            u1 = z1 if u1 is None else u1 + z1
            s1 = surrogate_spike(u1, theta, self.alpha)
            u1 = u1 - s1 * theta  # reset by subtraction
            p1 = max_pool2d(s1, 2)

            z2 = self.conv2(p1)
            u2 = z2 if u2 is None else u2 + z2
            s2 = surrogate_spike(u2, theta, self.alpha)
            u2 = u2 - s2 * theta
            p2 = max_pool2d(s2, 2)

            o = self.readout(p2.flatten(1))
            out_sum = o if out_sum is None else out_sum + o
        return out_sum * (1.0 / self.timesteps)


@dataclass
class DirectTrainResult:
    model: DirectSNN
    epoch_losses: List[float] = field(default_factory=list)
    test_accuracies: List[float] = field(default_factory=list)

    @property
    def final_test_acc(self) -> float:
        return self.test_accuracies[-1] if self.test_accuracies else float("nan")


def train_direct(dataset: Dataset, epochs: int = 10, timesteps: int = 8,
                 lr: float = 0.05, batch_size: int = 32,
                 channels: Sequence[int] = (8, 16), seed: int = 0,
                 alpha: float = 2.0) -> DirectTrainResult:
    """Train a DirectSNN on a dataset; returns the model + curves."""
    from ..nn import init as nninit

    nninit.seed(seed)
    size = dataset.image_shape[-1]
    model = DirectSNN(num_classes=dataset.num_classes,
                      in_channels=dataset.image_shape[0],
                      input_size=size, channels=channels,
                      timesteps=timesteps, alpha=alpha)
    opt = SGD(model.parameters(), lr=lr, momentum=0.9, weight_decay=5e-4)
    loader = make_train_loader(dataset, batch_size=batch_size, seed=seed)
    result = DirectTrainResult(model=model)
    for _ in range(epochs):
        losses = []
        for x, y in loader:
            logits = model(Tensor(x))
            loss = cross_entropy(logits, y)
            opt.zero_grad()
            loss.backward()
            opt.step()
            losses.append(loss.item())
        result.epoch_losses.append(float(np.mean(losses)))
        preds = model(Tensor(dataset.test_x))
        result.test_accuracies.append(accuracy(preds, dataset.test_y))
    return result
