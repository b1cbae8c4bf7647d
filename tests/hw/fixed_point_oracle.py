"""Reference kernels for the fixed-point datapath's weights and sums.

The straightforward formulations, far too slow for the engine but
obviously right, so the tests hold the engine's table-driven kernels to
them bitwise:

* :func:`log_quantize` -- Eq. 15 as one float64 ``log2`` formula over
  the whole tensor, the codes, signs and FSR that
  :func:`repro.quant.logquant.quantize_tensor` reads from its bucket
  table;
* :func:`linear_products` and :func:`conv_products` -- Eq. 17 over a
  layer: for every output channel, multiply each fired input by that
  channel's weights through
  :meth:`~repro.quant.lut.LogDomainPE.multiply` and sum the integer
  products, one PE call per output channel.
"""

from __future__ import annotations

import math

import numpy as np

from repro.cat.kernels import NO_SPIKE
from repro.tensor import im2col


def log_quantize(w, config):
    """``(codes, signs, fsr)`` of ``w`` under ``config`` (Eq. 15): the
    level nearest each magnitude's ``log2`` on the grid below the
    per-tensor FSR, clipped to the L levels, -1 for zero and for
    magnitudes more than half a step below the last level."""
    w = np.asarray(w, dtype=np.float64)
    fsr = float(np.abs(w).max())
    if config.align_fsr and fsr > 0.0:
        fsr = 2.0 ** (math.ceil(math.log2(fsr) / config.step) * config.step)
    if fsr == 0.0:
        return (np.full(w.shape, -1, dtype=np.int32),
                np.ones(w.shape, dtype=np.int8), 0.0)
    signs = np.where(w < 0, -1, 1).astype(np.int8)
    mags = np.abs(w)
    with np.errstate(divide="ignore"):
        raw = (math.log2(fsr) - np.log2(np.where(mags > 0, mags, fsr))
               ) / config.step
    k = np.clip(np.round(raw).astype(np.int64), 0, config.num_levels - 1)
    zero = (mags == 0) | (raw > config.num_levels - 0.5)
    return np.where(zero, -1, k).astype(np.int32), signs, fsr


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
