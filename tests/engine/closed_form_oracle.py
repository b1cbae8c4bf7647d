"""Reference formulas for the dense closed-form TTFS primitives.

The engine decodes spike times through a table, fires in place, pools
on the unsigned view of the times and fuses each hidden conv layer into
one pass.  These are the straightforward formulations those replaced:
elementwise kernel evaluation, out-of-place closed-form spike times, a
windowed min with an explicit ``NO_SPIKE`` sentinel, and the layer as
decode -> affine map -> bias -> fire.  Slow, but obviously
right, so the tests hold the engine to them bitwise.
"""

from __future__ import annotations

import math

import numpy as np

from repro.cat.kernels import GRID_SNAP_TOL, NO_SPIKE
from repro.engine import executor


def decode(kernel, dt, theta0: float = 1.0) -> np.ndarray:
    """Value of each spike time: ``theta0 * kappa(t)``, 0 for NO_SPIKE."""
    dt = np.asarray(dt)
    vals = theta0 * kernel.value(np.maximum(dt, 0))
    return np.where(dt == NO_SPIKE, 0.0, vals)


def spike_time(kernel, x, theta0: float = 1.0, window=None) -> np.ndarray:
    """First integer step with ``x >= theta0 * kappa(step)`` (Eq. 14)."""
    values = np.asarray(x, dtype=np.float64)
    positive = values > 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        raw = kernel.tau * np.log(
            theta0 / np.where(positive, values, 1.0)) / math.log(kernel.base)
    dt = np.ceil(raw - GRID_SNAP_TOL)
    dt = np.maximum(dt, 0.0)
    finite = np.isfinite(dt)
    out = np.where(finite, dt, 0).astype(np.int64)
    no_fire = ~positive | ~finite
    if window is not None:
        no_fire |= out > window
    return np.where(no_fire, NO_SPIKE, out)


def pool_times(times: np.ndarray, kernel: int, stride: int) -> np.ndarray:
    """Earliest spike of each window, ``NO_SPIKE`` counted as +inf."""
    times = np.asarray(times, dtype=np.int64)
    n, c, h, w = times.shape
    oh = (h - kernel) // stride + 1
    ow = (w - kernel) // stride + 1
    big = np.where(times == NO_SPIKE, np.iinfo(np.int64).max, times)
    sn, sc, sh, sw = big.strides
    view = np.lib.stride_tricks.as_strided(
        big, shape=(n, c, oh, ow, kernel, kernel),
        strides=(sn, sc, sh * stride, sw * stride, sh, sw), writeable=False)
    pooled = view.min(axis=(4, 5))
    return np.where(pooled == np.iinfo(np.int64).max, NO_SPIKE, pooled)


def conv_layer(spec, times: np.ndarray, window: int, kernel,
               theta0: float = 1.0):
    """A hidden conv layer as decode -> affine -> bias -> fire:
    ``(fire times, membrane)``, both NCHW."""
    membrane = (executor.affine(spec, decode(kernel, times, theta0),
                                include_bias=False)
                + executor.bias_shaped(spec))
    fired = spike_time(kernel, np.maximum(membrane, 0.0), theta0, window)
    return fired, membrane


def value_walk(snn, images: np.ndarray):
    """The float64 value-domain walk of a converted network.

    Pixels encode in float64; each weight layer is the affine map of
    the decoded activations with its bias added after integration (as
    the spiking schemes add it), then quantised to the spike-time grid
    by :func:`spike_time` and :func:`decode`; pooling runs on values.
    Returns ``(readout, spikes)``: ``spikes[0]`` counts input spikes,
    ``spikes[i]`` the output spikes of hidden weight layer ``i - 1``.
    """
    from repro.cat import Base2Kernel

    cfg = snn.config
    kernel = Base2Kernel(tau=cfg.tau, base=cfg.base)

    def code(values):
        times = spike_time(kernel, values, cfg.theta0, cfg.window)
        return decode(kernel, times, cfg.theta0)

    x = code(np.asarray(images, dtype=np.float64))
    spikes = [int(np.count_nonzero(x))]
    for spec in snn.layers:
        if spec.is_weight_layer:
            z = (executor.affine(spec, x, include_bias=False)
                 + executor.bias_shaped(spec))
            if spec.is_output:
                return z * snn.output_scale, spikes
            x = code(np.maximum(z, 0.0))
            spikes.append(int(np.count_nonzero(x)))
        elif spec.kind == "flatten":
            x = x.reshape(len(x), -1)
        else:
            x = executor.pool_values(spec, x)
    raise ValueError("network has no readout layer")
