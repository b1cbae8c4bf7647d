"""Reference kernel for the fixed-point log-PE product sums.

The straightforward formulation of Eq. 17 over a layer: for every output
channel, multiply each fired input by that channel's weights through
:meth:`~repro.quant.lut.LogDomainPE.multiply` and sum the integer
products.  It is one PE call per output channel, far too slow for the
engine, but obviously right, so the tests hold the engine's table-driven
kernels to it bitwise.
"""

from __future__ import annotations

import math

import numpy as np

from repro.cat.kernels import NO_SPIKE
from repro.tensor import im2col


def linear_products(pe, tau: float, times: np.ndarray, qt) -> np.ndarray:
    """(N, out) int64 PSP sums of ``times`` (N, in) through ``qt`` (out, in)."""
    n, _ = times.shape
    codes = qt.codes.reshape(qt.codes.shape[0], -1)
    signs = qt.signs.reshape(codes.shape)
    d_out = codes.shape[0]
    fired = times != NO_SPIKE
    w_nonzero = codes >= 0
    # an all-zero tensor (fsr == 0) has no log2 magnitude; no weight fires
    log2_fsr = math.log2(qt.fsr) if qt.fsr > 0 else 0.0
    xc = pe.encode_log2(-times / tau)
    wc = pe.encode_log2(log2_fsr - qt.config.step * np.maximum(codes, 0))
    acc = np.zeros((n, d_out), dtype=np.int64)
    for j in range(d_out):
        active = fired & w_nonzero[j][None, :]
        if not active.any():
            continue
        prods = pe.multiply(xc, np.broadcast_to(wc[j], xc.shape),
                            np.broadcast_to(signs[j], xc.shape))
        acc[:, j] = np.where(active, prods, 0).sum(axis=1)
    return acc


def conv_products(pe, tau: float, times: np.ndarray, qt,
                  stride: int, padding: int) -> np.ndarray:
    """(N, C_out, OH, OW) int64 PSP sums of a conv layer via im2col."""
    n = times.shape[0]
    k = qt.codes.shape[-1]
    # NO_SPIKE must survive the zero padding: shift times by +1
    shifted = np.where(times == NO_SPIKE, 0, times + 1).astype(np.float64)
    cols, (oh, ow) = im2col(shifted, k, stride, padding)
    col_times = np.where(cols == 0, NO_SPIKE, cols - 1)
    acc = linear_products(pe, tau, col_times, qt)
    return acc.reshape(n, oh, ow, -1).transpose(0, 3, 1, 2)
