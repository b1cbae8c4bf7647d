"""Reference formulas for the dense closed-form TTFS primitives.

The engine decodes spike times through a table, fires in place, pools
on the unsigned view of the times and fuses each hidden conv layer into
one pass.  These are the straightforward formulations those replaced:
elementwise kernel evaluation, out-of-place closed-form spike times, a
windowed min with an explicit ``NO_SPIKE`` sentinel, and the layer as
decode -> affine map -> neuron pool -> fire.  Slow, but obviously
right, so the tests hold the engine to them bitwise.
"""

from __future__ import annotations

import math

import numpy as np

from repro.cat.kernels import GRID_SNAP_TOL, NO_SPIKE
from repro.engine import executor
from repro.snn import IFNeuronPool


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
    """A hidden conv layer as decode -> affine -> pool -> fire:
    ``(fire times, membrane)``, both NCHW."""
    out_shape = executor.output_shape(spec, times.shape)
    pool = IFNeuronPool(shape=out_shape, kernel=kernel, theta0=theta0)
    pool.integrate(executor.affine(spec, decode(kernel, times, theta0),
                                   include_bias=False))
    pool.add_bias(executor.bias_shaped(spec))
    fired = spike_time(kernel, np.maximum(pool.membrane, 0.0), theta0,
                       window)
    return fired, pool.membrane
