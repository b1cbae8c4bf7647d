"""Quantisation-aware training for logarithmic weights.

The paper quantises weights *post training* and notes (Sec. 5) that the
accuracy gap to the TPU baseline "can be improved if the quantization
aware training is applied instead of post-training quantization".  This
module implements that extension:

* :func:`fake_quantize` — the forward pass sees the dequantised 5-bit
  log weights (Eq. 15) while the backward pass uses a straight-through
  estimator, exactly mirroring how phi_TTFS simulates activation coding
  during CAT;
* :func:`enable_weight_qat` / :func:`disable_weight_qat` — install or
  remove the fake-quantiser on every Conv2d/Linear of a model;
* :func:`qat_finetune` — the recommended recipe: take a CAT-trained
  model, switch weights to fake-quantised mode, and fine-tune for a few
  epochs at low LR with the TTFS activation still in place.

The ``bench_qat_ablation`` benchmark compares PTQ vs QAT at low bit
widths, reproducing the claimed recovery.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..cat.activations import make_activation
from ..cat.schedule import CATConfig
from ..data import Dataset, make_train_loader
from ..nn.layers import Conv2d, Linear
from ..nn.module import Module
from ..optim import SGD
from ..tensor import Tensor, accuracy, cross_entropy, custom_op
from .logquant import LogQuantConfig, quantize_dequantize


def fake_quantize(weight: Tensor, config: LogQuantConfig) -> Tensor:
    """Log-quantise in the forward pass, straight-through backward.

    The STE passes gradients unchanged (including for flushed-to-zero
    weights, so they can grow back into range — standard practice for
    log-domain QAT).
    """
    fwd = quantize_dequantize(weight.data, config)

    def backward(g):
        return (g,)

    return custom_op([weight], fwd, backward)


class _QATForward:
    """Bound forward replacement that fake-quantises the layer weight."""

    def __init__(self, layer: Module, config: LogQuantConfig):
        self.layer = layer
        self.config = config
        self.original_forward = layer.forward

    def __call__(self, x: Tensor) -> Tensor:
        layer = self.layer
        w_q = fake_quantize(layer.weight, self.config)
        if isinstance(layer, Conv2d):
            from ..tensor import conv2d

            return conv2d(x, w_q, layer.bias, layer.stride, layer.padding)
        out = x @ w_q.transpose()
        if layer.bias is not None:
            out = out + layer.bias
        return out


def enable_weight_qat(model: Module, config: LogQuantConfig) -> List[Module]:
    """Install weight fake-quantisation on every Conv2d/Linear.

    Returns the list of wrapped layers.  Idempotent: re-enabling replaces
    the previous config.
    """
    wrapped = []
    for module in model.modules():
        if isinstance(module, (Conv2d, Linear)):
            if not hasattr(module, "_qat_hook"):
                hook = _QATForward(module, config)
                object.__setattr__(module, "_qat_hook", hook)
                object.__setattr__(module, "forward", hook)
            else:
                module._qat_hook.config = config
            wrapped.append(module)
    return wrapped


def disable_weight_qat(model: Module) -> None:
    """Restore the original float forward on all wrapped layers."""
    for module in model.modules():
        hook = getattr(module, "_qat_hook", None)
        if hook is not None:
            object.__setattr__(module, "forward", hook.original_forward)
            object.__delattr__(module, "_qat_hook")


def qat_finetune(
    model: Module,
    dataset: Dataset,
    quant_config: LogQuantConfig,
    cat_config: Optional[CATConfig] = None,
    epochs: int = 3,
    lr: float = 1e-3,
    batch_size: int = 40,
    seed: int = 0,
) -> List[float]:
    """Fine-tune a trained model with fake-quantised weights.

    Keeps the TTFS activation installed (when ``cat_config`` is given) so
    the network trains against *both* discretisations at once — the
    combination the paper's Sec. 5 remark points to.  Returns per-epoch
    mean training losses.
    """
    if cat_config is not None and hasattr(model, "set_hidden_activation"):
        act = make_activation("ttfs", cat_config.window, cat_config.tau,
                              cat_config.theta0, cat_config.base)
        model.set_hidden_activation(act, "ttfs")
    enable_weight_qat(model, quant_config)
    optimizer = SGD(model.parameters(), lr=lr, momentum=0.9,
                    weight_decay=5e-4)
    loader = make_train_loader(dataset, batch_size=batch_size, seed=seed)
    losses: List[float] = []
    model.train()
    try:
        for _ in range(epochs):
            epoch_losses = []
            for x, y in loader:
                logits = model(Tensor(x))
                loss = cross_entropy(logits, y)
                optimizer.zero_grad()
                loss.backward()
                optimizer.step()
                epoch_losses.append(loss.item())
            losses.append(float(np.mean(epoch_losses)))
    finally:
        disable_weight_qat(model)
    return losses
