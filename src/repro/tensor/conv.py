"""im2col-based convolution and pooling primitives with autograd support.

These are the compute-heavy primitives of the training substrate.  Forward
and backward are both expressed as matrix multiplies over an im2col
unfolding, which is the fastest portable formulation in pure numpy.

Layout convention: NCHW (batch, channels, height, width), matching the
description of feature maps in the paper's VGG-16 workloads.
"""

from __future__ import annotations

import functools
from typing import Tuple

import numpy as np

from ..events import scatter_add_rows
from .tensor import Tensor


def _out_size(size: int, kernel: int, stride: int, pad: int) -> int:
    return (size + 2 * pad - kernel) // stride + 1


#: Shortest output row :func:`im2col` fills with strided copies.  Each
#: copy's inner loop is one output row, and at a few elements a loop
#: costs more than its elements, so shorter rows are gathered instead.
#: Unfolding a 3x3 conv's padded (C, N, OH+2, OW+2) input, in ms, float32,
#: one core of a 2-core host, copy -> gather:
#:
#: ====  ====  ====  ================
#: C     N     OW    ms
#: ====  ====  ====  ================
#: 512   32    2     1.96 -> 0.47
#: 512   16    4     2.05 -> 0.98
#: 256   4     8     0.55 -> 0.50
#: 128   4     16    0.67 -> 0.91
#: 64    4     32    0.90 -> 1.76
#: ====  ====  ====  ================
COPY_ROW = 16


def im2col(
    x: np.ndarray, kernel: int, stride: int, pad: int
) -> Tuple[np.ndarray, Tuple[int, int]]:
    """Unfold ``x`` (N, C, H, W) into columns of shape (N*OH*OW, C*K*K).

    The columns are the transposed view of a K-major ``(C, K, K, N, OH,
    OW)`` buffer, the layout a GEMM reads them in (:func:`conv_gemm`);
    ``x`` may be any view.  Rows of at least :data:`COPY_ROW` outputs
    fill it with one copy per kernel tap, whose inner run is an output
    row, contiguous in the buffer and, at stride 1, in a channel-major
    ``x``.  Shorter rows take one gather per channel, from the
    channel-major input (a copy unless ``x`` is the transpose of one).
    """
    n, c, h, w = x.shape
    oh = _out_size(h, kernel, stride, pad)
    ow = _out_size(w, kernel, stride, pad)
    if pad > 0:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    x = x.transpose(1, 0, 2, 3)
    hp, wp = x.shape[2:]
    if ow < COPY_ROW:
        cols = x.reshape(c, n * hp * wp).take(
            _tap_index(n, hp, wp, kernel, stride), axis=1)
    else:
        cols = np.empty((c, kernel, kernel, n, oh, ow), dtype=x.dtype)
        for ky in range(kernel):
            for kx in range(kernel):
                cols[:, ky, kx] = x[:, :, ky:ky + stride * oh:stride,
                                    kx:kx + stride * ow:stride]
    return cols.reshape(c * kernel * kernel, n * oh * ow).T, (oh, ow)


@functools.lru_cache(maxsize=64)
def _tap_index(n: int, hp: int, wp: int, kernel: int,
               stride: int) -> np.ndarray:
    """Where each ``(ky, kx, n, oy, ox)`` of the unfolding reads in one
    channel's ``(N, HP, WP)`` plane."""
    oh = (hp - kernel) // stride + 1
    ow = (wp - kernel) // stride + 1
    ky, kx, image, oy, ox = np.ix_(range(kernel), range(kernel), range(n),
                                   range(oh), range(ow))
    index = (image * hp + ky + stride * oy) * wp + kx + stride * ox
    index.setflags(write=False)
    return index


#: Most GEMM rows (output pixels) :func:`conv_gemm` computes
#: weight-major.  Row-major ``cols @ w.T`` against weight-major on
#: :func:`im2col`'s K-major columns, in ms, float32, one-thread
#: OpenBLAS, one core of a 2-core host, warm cache, best of three
#: medians:
#:
#: =====  ====  ==============  ==============  ==============  ==============
#: K      N     4 rows          64 rows         256 rows        1024 rows
#: =====  ====  ==============  ==============  ==============  ==============
#: 4608   512   1.69 -> 0.88    4.55 -> 3.63    11.91 -> 11.87  44.5 -> 46.9
#: 2304   256   0.40 -> 0.20    1.04 -> 0.76    3.01 -> 2.83    12.2 -> 13.2
#: 1152   128   0.057 -> 0.019  0.26 -> 0.20    0.74 -> 0.74    3.26 -> 3.71
#: 576    64    0.015 -> 0.005  0.069 -> 0.054  0.194 -> 0.187  0.82 -> 0.86
#: =====  ====  ==============  ==============  ==============  ==============
#:
#: On the K-major layout weight-major stays ahead up to 256 rows (at
#: 128 rows, K=4608: 6.79 -> 5.85) and loses from 512.  The cut stays
#: at 64 all the same: the orientation decides the memory order of
#: :func:`conv2d`'s output, which batch norm's reductions sum in, so
#: moving it changed VGG-16 training losses in their last bits.  On
#: VGG-16 at batch 1 the rule takes conv4 to conv12 (64, 16 and 4
#: rows); at batch 32 no conv GEMM has fewer than 128 rows.
WEIGHT_MAJOR_ROWS = 64


#: Most multiply-adds (rows x K x N) of a GEMM for which OpenBLAS may
#: take a small-matrix sgemm kernel (its ``gemm_small_kernel_permit``:
#: 100**3), whose rounding depends on which way the operands are laid
#: out.  Above it every layout runs the same blocked kernel, summing
#: each output's K products in the same order, and gives the same bits.
SMALL_GEMM_MACS = 100 ** 3


def gemm_columns(cols: np.ndarray, n_out: int) -> np.ndarray:
    """``cols`` (rows, K) as a GEMM with ``n_out`` outputs per row reads
    them: :func:`im2col`'s K-major view, or a C-ordered copy where the
    layout would change the bits (a small GEMM, or one output, which
    BLAS runs as a matrix-vector product).  Either way the products
    and their sums are those of C-ordered columns, bitwise."""
    if n_out == 1 or cols.size * n_out <= SMALL_GEMM_MACS:
        return np.ascontiguousarray(cols)
    return cols


def conv_gemm(cols: np.ndarray, w2d: np.ndarray) -> np.ndarray:
    """A conv's GEMM ``cols @ w2d.T``: (rows, K) by (N, K) -> (rows, N).

    ``cols`` are laid out by :func:`gemm_columns`.  With at most
    :data:`WEIGHT_MAJOR_ROWS` rows it runs as ``(w2d @ cols.T).T``,
    which BLAS tiles by the weight matrix; the result is then a
    transposed (Fortran-ordered) view.  Both orders give every output
    the same K-long dot product, summed in the same order, so they
    agree bitwise (a property test pins this).
    """
    cols = gemm_columns(cols, len(w2d))
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
    cols = gemm_columns(cols, c_out)  # the backward's gw GEMM reads it too
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
