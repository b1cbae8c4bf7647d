"""Data-representation error analysis (paper Fig. 2).

Fig. 2(a) plots the three CAT activations over the input range; Fig. 2(b)
plots each activation's deviation from the value the converted SNN will
actually represent (the TTFS spike-time grid).  phi_TTFS is error-free by
construction; ReLU and clip show the staircase-shaped residual error that
motivates the final TTFS training stage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from .activations import clip_array, ttfs_quantize_array


@dataclass(frozen=True)
class ActivationCurves:
    """Sampled activation values and conversion errors over an input sweep."""

    inputs: np.ndarray
    activations: Dict[str, np.ndarray]
    errors: Dict[str, np.ndarray]

    def max_error(self, kind: str) -> float:
        return float(np.max(self.errors[kind]))

    def mean_error(self, kind: str) -> float:
        return float(np.mean(self.errors[kind]))


def activation_curves(
    window: int = 24,
    tau: float = 4.0,
    theta0: float = 1.0,
    x_max: float = 1.2,
    num_points: int = 481,
) -> ActivationCurves:
    """Reproduce Fig. 2: activations and SNN-representation errors.

    The SNN reference representation of an ANN activation ``a`` is
    ``ttfs_quantize(a)`` — what the spike emitted for ``a`` decodes to in
    the next layer.  The error of activation phi is
    ``|phi(x) - ttfs_quantize(phi(x))|`` plus the saturation mismatch for
    values outside the coding range, which simplifies to
    ``|phi(x) - ttfs_quantize(x)|`` for these monotone activations.
    """
    xs = np.linspace(0.0, x_max, num_points)
    snn_repr = ttfs_quantize_array(xs, window, tau, theta0)
    acts = {
        "relu": np.maximum(xs, 0.0),
        "clip": clip_array(xs, theta0),
        "ttfs": ttfs_quantize_array(xs, window, tau, theta0),
    }
    errors = {kind: np.abs(a - snn_repr) for kind, a in acts.items()}
    return ActivationCurves(inputs=xs, activations=acts, errors=errors)
