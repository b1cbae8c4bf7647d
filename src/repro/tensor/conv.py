"""im2col-based convolution and pooling primitives with autograd support.

These are the compute-heavy primitives of the training substrate.  Forward
and backward are both expressed as matrix multiplies over an im2col
unfolding, which is the fastest portable formulation in pure numpy.

Layout convention: NCHW (batch, channels, height, width), matching the
description of feature maps in the paper's VGG-16 workloads.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..events import scatter_add_rows
from .tensor import Tensor


def _out_size(size: int, kernel: int, stride: int, pad: int) -> int:
    return (size + 2 * pad - kernel) // stride + 1


def im2col(
    x: np.ndarray, kernel: int, stride: int, pad: int
) -> Tuple[np.ndarray, Tuple[int, int]]:
    """Unfold ``x`` (N, C, H, W) into columns of shape (N*OH*OW, C*K*K).

    One strided copy per kernel tap, each reading a channels-last view,
    which runs several times fewer, longer inner loops than one copy of
    a (N, OH, OW, C, K, K) window view; ``x`` may be any view.
    """
    n, c, h, w = x.shape
    oh = _out_size(h, kernel, stride, pad)
    ow = _out_size(w, kernel, stride, pad)
    if pad > 0:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    cols = np.empty((n, oh, ow, c, kernel, kernel), dtype=x.dtype)
    for ky in range(kernel):
        for kx in range(kernel):
            cols[..., ky, kx] = x[:, :, ky:ky + stride * oh:stride,
                                  kx:kx + stride * ow:stride
                                  ].transpose(0, 2, 3, 1)
    return cols.reshape(n * oh * ow, c * kernel * kernel), (oh, ow)


#: Most GEMM rows (output pixels) :func:`conv_gemm` computes
#: weight-major.  Row-major ``cols @ w.T`` against weight-major, in ms,
#: float32, one-thread OpenBLAS, one core of a 2-core host, best of
#: three medians; warm cache, and in brackets with a 128 MB buffer read
#: before each call:
#:
#: =====  ====  ================  ================  ================
#: K      N     4 rows            64 rows           128 rows
#: =====  ====  ================  ================  ================
#: 4608   512   2.05 -> 1.09      5.79 -> 4.60      9.22 -> 8.30
#:              (2.89 -> 1.43)    (4.86 -> 4.13)    (8.03 -> 6.82)
#: 2304   256   0.44 -> 0.22      1.07 -> 0.84      2.34 -> 1.60
#:              (0.73 -> 0.46)    (1.76 -> 1.32)    (2.45 -> 2.51)
#: 1152   128   0.013 -> 0.013    0.26 -> 0.23      0.45 -> 0.43
#: 576    64    0.004 -> 0.004    0.069 -> 0.069    0.154 -> 0.177
#: =====  ====  ================  ================  ================
#:
#: Past 64 rows the gain shrinks and turns to a loss: at 128 rows with
#: K=2304 (cold) and N=64, and at 512 rows for every shape (K=4608:
#: 27.3 -> 28.4 cold).  On VGG-16 at batch 1 the rule takes conv4 to
#: conv12 (64, 16 and 4 rows); at batch 32 no conv GEMM has fewer than
#: 128 rows, so that path is unchanged.
WEIGHT_MAJOR_ROWS = 64


def conv_gemm(cols: np.ndarray, w2d: np.ndarray) -> np.ndarray:
    """A conv's GEMM ``cols @ w2d.T``: (rows, K) by (N, K) -> (rows, N).

    With at most :data:`WEIGHT_MAJOR_ROWS` rows it runs as
    ``(w2d @ cols.T).T``, which BLAS tiles by the weight matrix; the
    result is then a transposed (Fortran-ordered) view.  Both orders
    give every output the same K-long dot product, summed in the same
    order, so they agree bitwise (a property test pins this).
    """
    if len(cols) <= WEIGHT_MAJOR_ROWS:
        return (w2d @ cols.T).T
    return cols @ w2d.T


def col2im(
    cols: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kernel: int,
    stride: int,
    pad: int,
) -> np.ndarray:
    """Fold columns back into an image, accumulating overlapping patches."""
    n, c, h, w = x_shape
    oh = _out_size(h, kernel, stride, pad)
    ow = _out_size(w, kernel, stride, pad)
    padded = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=cols.dtype)
    cols6 = cols.reshape(n, oh, ow, c, kernel, kernel).transpose(0, 3, 1, 2, 4, 5)
    for ki in range(kernel):
        h_end = ki + stride * oh
        for kj in range(kernel):
            w_end = kj + stride * ow
            padded[:, :, ki:h_end:stride, kj:w_end:stride] += cols6[:, :, :, :, ki, kj]
    if pad > 0:
        return padded[:, :, pad:-pad, pad:-pad]
    return padded


def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None, stride: int, pad: int) -> Tensor:
    """2-D convolution, NCHW, square kernel.

    Parameters
    ----------
    x:       input tensor (N, C_in, H, W)
    weight:  filter tensor (C_out, C_in, K, K)
    bias:    optional bias (C_out,)
    """
    n = x.data.shape[0]
    c_out, c_in, k, _ = weight.data.shape
    cols, (oh, ow) = im2col(x.data, k, stride, pad)
    w_mat = weight.data.reshape(c_out, -1)  # (C_out, C_in*K*K)
    out = conv_gemm(cols, w_mat)  # (N*OH*OW, C_out)
    if bias is not None:
        out = out + bias.data
    out_data = out.reshape(n, oh, ow, c_out).transpose(0, 3, 1, 2)

    x_shape = x.data.shape
    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(g):
        # g: (N, C_out, OH, OW) -> (N*OH*OW, C_out)
        g_mat = g.transpose(0, 2, 3, 1).reshape(-1, c_out)
        g_cols = g_mat @ w_mat  # (N*OH*OW, C_in*K*K)
        gx = col2im(g_cols, x_shape, k, stride, pad)
        gw = (g_mat.T @ cols).reshape(weight.data.shape)
        if bias is None:
            return gx, gw
        gb = g_mat.sum(axis=0)
        return gx, gw, gb

    return Tensor._make(out_data, parents, backward)


def max_pool2d(x: Tensor, kernel: int, stride: int | None = None) -> Tensor:
    """Max pooling, NCHW, square window, no padding."""
    if stride is None:
        stride = kernel
    n, c, h, w = x.data.shape
    oh = _out_size(h, kernel, stride, 0)
    ow = _out_size(w, kernel, stride, 0)
    sn, sc, sh, sw = x.data.strides
    view = np.lib.stride_tricks.as_strided(
        x.data,
        shape=(n, c, oh, ow, kernel, kernel),
        strides=(sn, sc, sh * stride, sw * stride, sh, sw),
        writeable=False,
    )
    patches = view.reshape(n, c, oh, ow, kernel * kernel)
    arg = patches.argmax(axis=-1)
    out_data = np.take_along_axis(patches, arg[..., None], axis=-1)[..., 0]
    x_shape = x.data.shape

    def backward(g):
        hi = arg // kernel + stride * np.arange(oh).reshape(1, 1, oh, 1)
        wj = arg % kernel + stride * np.arange(ow).reshape(1, 1, 1, ow)
        if stride >= kernel:
            # Disjoint windows: every input cell receives at most one
            # contribution, so the segment-sum scatter (shared with the
            # engine's event plans) is exact — bitwise identical to the
            # old np.indices + np.add.at formulation at a fraction of
            # the cost.
            gx = np.zeros((n * c * h * w, 1), dtype=g.dtype)
            plane = (np.arange(n * c) * h).reshape(n, c, 1, 1)
            rows = ((plane + hi) * w + wj).ravel()
            scatter_add_rows(gx, rows, g.reshape(-1, 1))
            return (gx.reshape(x_shape),)
        # Overlapping windows can land 3+ float32 contributions on one
        # cell, where a widened segment sum no longer reproduces the
        # sequential float32 rounding — keep the reference scatter.
        gx = np.zeros(x_shape, dtype=g.dtype)
        ni = np.arange(n).reshape(n, 1, 1, 1)
        ci = np.arange(c).reshape(1, c, 1, 1)
        np.add.at(gx, (ni, ci, hi, wj), g)
        return (gx,)

    return Tensor._make(np.ascontiguousarray(out_data), (x,), backward)


def avg_pool2d(x: Tensor, kernel: int, stride: int | None = None) -> Tensor:
    """Average pooling, NCHW, square window, no padding."""
    if stride is None:
        stride = kernel
    n, c, h, w = x.data.shape
    oh = _out_size(h, kernel, stride, 0)
    ow = _out_size(w, kernel, stride, 0)
    sn, sc, sh, sw = x.data.strides
    view = np.lib.stride_tricks.as_strided(
        x.data,
        shape=(n, c, oh, ow, kernel, kernel),
        strides=(sn, sc, sh * stride, sw * stride, sh, sw),
        writeable=False,
    )
    out_data = view.mean(axis=(4, 5))
    x_shape = x.data.shape
    scale = 1.0 / (kernel * kernel)

    def backward(g):
        gk = g * scale
        if stride == kernel and h == kernel * oh and w == kernel * ow:
            # Windows tile the input exactly (the VGG 2x2 case): the
            # gradient is gk with every cell replicated kernel x kernel
            # — one vectorised expansion, no zeros buffer, bitwise
            # identical to the K*K accumulation loop (each cell
            # received exactly one += against zero).
            return (gk.repeat(kernel, axis=2).repeat(kernel, axis=3),)
        gx = np.zeros(x_shape, dtype=g.dtype)
        if stride >= kernel:
            # Disjoint windows with uncovered remainder cells or gaps:
            # one strided-view broadcast writes each window cell once
            # and leaves the rest zero.
            gn, gc, gh, gw = gx.strides
            window = np.lib.stride_tricks.as_strided(
                gx, shape=(n, c, oh, ow, kernel, kernel),
                strides=(gn, gc, gh * stride, gw * stride, gh, gw))
            window[...] = gk[..., None, None]
            return (gx,)
        # Overlapping windows accumulate; keep the per-tap strided adds
        # (one vectorised += per (ki, kj), same order as before).
        for ki in range(kernel):
            for kj in range(kernel):
                gx[:, :, ki : ki + stride * oh : stride, kj : kj + stride * ow : stride] += gk
        return (gx,)

    return Tensor._make(np.ascontiguousarray(out_data), (x,), backward)


def global_avg_pool2d(x: Tensor) -> Tensor:
    """Average over all spatial positions -> (N, C)."""
    return x.mean(axis=(2, 3))
