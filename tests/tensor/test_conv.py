"""Convolution/pooling correctness against naive references + gradchecks."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.tensor import (
    Tensor,
    avg_pool2d,
    col2im,
    conv2d,
    conv_gemm,
    im2col,
    max_pool2d,
)
from repro.tensor.conv import COPY_ROW, SMALL_GEMM_MACS, WEIGHT_MAJOR_ROWS


def naive_conv2d(x, w, b, stride, pad):
    n, c_in, h, wdt = x.shape
    c_out, _, k, _ = w.shape
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    oh = (h + 2 * pad - k) // stride + 1
    ow = (wdt + 2 * pad - k) // stride + 1
    out = np.zeros((n, c_out, oh, ow))
    for ni in range(n):
        for co in range(c_out):
            for oi in range(oh):
                for oj in range(ow):
                    patch = x[ni, :, oi * stride : oi * stride + k,
                              oj * stride : oj * stride + k]
                    out[ni, co, oi, oj] = (patch * w[co]).sum()
            if b is not None:
                out[ni, co] += b[co]
    return out


class TestConvForward:
    @pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 0), (2, 1)])
    def test_matches_naive(self, rng, stride, pad):
        x = rng.standard_normal((2, 3, 6, 6)).astype(np.float32)
        w = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
        b = rng.standard_normal(4).astype(np.float32)
        got = conv2d(Tensor(x), Tensor(w), Tensor(b), stride, pad).data
        want = naive_conv2d(x, w, b, stride, pad)
        assert np.allclose(got, want, atol=1e-4)

    def test_no_bias(self, rng):
        x = rng.standard_normal((1, 2, 4, 4)).astype(np.float32)
        w = rng.standard_normal((3, 2, 3, 3)).astype(np.float32)
        got = conv2d(Tensor(x), Tensor(w), None, 1, 1).data
        want = naive_conv2d(x, w, None, 1, 1)
        assert np.allclose(got, want, atol=1e-4)

    def test_1x1_kernel(self, rng):
        x = rng.standard_normal((1, 4, 5, 5)).astype(np.float32)
        w = rng.standard_normal((2, 4, 1, 1)).astype(np.float32)
        got = conv2d(Tensor(x), Tensor(w), None, 1, 0).data
        want = np.einsum("nchw,oc->nohw", x, w[:, :, 0, 0])
        assert np.allclose(got, want, atol=1e-4)


class TestConvBackward:
    def test_weight_grad_numeric(self, rng):
        x = Tensor(rng.standard_normal((2, 2, 5, 5)).astype(np.float32))
        w = Tensor(rng.standard_normal((3, 2, 3, 3)).astype(np.float32) * 0.3,
                   requires_grad=True)
        b = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)

        def loss():
            out = conv2d(x, w, b, 1, 1)
            return (out * out).sum()

        loss().backward()
        analytic = w.grad.copy()
        for idx in [(0, 0, 0, 0), (2, 1, 2, 2), (1, 0, 1, 1)]:
            eps = 1e-2
            w.data[idx] += eps
            hi = loss().item()
            w.data[idx] -= 2 * eps
            lo = loss().item()
            w.data[idx] += eps
            assert np.isclose(analytic[idx], (hi - lo) / (2 * eps),
                              rtol=2e-2, atol=2e-2)

    def test_input_grad_numeric(self, rng):
        x = Tensor(rng.standard_normal((1, 2, 4, 4)).astype(np.float32),
                   requires_grad=True)
        w = Tensor(rng.standard_normal((2, 2, 3, 3)).astype(np.float32) * 0.3)

        def loss():
            out = conv2d(x, w, None, 1, 1)
            return (out * out).sum()

        loss().backward()
        analytic = x.grad.copy()
        idx = (0, 1, 2, 2)
        eps = 1e-2
        x.data[idx] += eps
        hi = loss().item()
        x.data[idx] -= 2 * eps
        lo = loss().item()
        x.data[idx] += eps
        assert np.isclose(analytic[idx], (hi - lo) / (2 * eps), rtol=2e-2)

    def test_bias_grad_is_output_count(self, rng):
        x = Tensor(rng.standard_normal((2, 2, 4, 4)).astype(np.float32))
        w = Tensor(rng.standard_normal((3, 2, 3, 3)).astype(np.float32))
        b = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
        conv2d(x, w, b, 1, 1).sum().backward()
        assert np.allclose(b.grad, 2 * 4 * 4)


def _sparse_cols(rng, rows, k, density):
    """float32 GEMM rows as a spiking layer sees them: mostly zero."""
    values = rng.random((rows, k), dtype=np.float32)
    return np.where(rng.random((rows, k)) < density, values, np.float32(0))


class TestConvGemm:
    """The few-row rule changes speed, never bits: both orders give
    each output the same K-long dot product, summed in one order."""

    @given(rows=st.integers(1, WEIGHT_MAJOR_ROWS + 16),
           k=st.one_of(st.sampled_from([27, 576, 1152, 2304, 4608]),
                       st.integers(1, 700).map(lambda i: 2 * i + 1)),
           n=st.sampled_from([10, 64, 512]),
           density=st.sampled_from([0.0, 0.05, 0.3, 1.0]),
           seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_bitwise_equal_to_row_major(self, rows, k, n, density, seed):
        rng = np.random.default_rng(seed)
        cols = _sparse_cols(rng, rows, k, density)
        w2d = rng.standard_normal((n, k)).astype(np.float32)
        got = conv_gemm(cols, w2d)
        want = cols @ w2d.T
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)

    @given(rows=st.integers(1, 4 * WEIGHT_MAJOR_ROWS),
           k=st.one_of(st.sampled_from([27, 576, 1152, 2304, 4608]),
                       st.integers(1, 700).map(lambda i: 2 * i + 1)),
           n=st.sampled_from([1, 2, 10, 64, 512]),
           density=st.sampled_from([0.0, 0.05, 0.3, 1.0]),
           seed=st.integers(0, 2**16))
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_f_ordered_columns_give_the_c_ordered_bits(self, rows, k, n,
                                                       density, seed):
        # im2col hands out the transposed view of a K-major buffer; small
        # GEMMs and single outputs read a C-ordered copy, the rest the
        # view, and either way the bits are those of C-ordered columns
        rng = np.random.default_rng(seed)
        cols = _sparse_cols(rng, rows, k, density)
        w2d = rng.standard_normal((n, k)).astype(np.float32)
        kmajor = np.ascontiguousarray(cols.T).T
        assert kmajor.flags.f_contiguous
        got = conv_gemm(kmajor, w2d)
        want = (w2d @ cols.T).T if rows <= WEIGHT_MAJOR_ROWS else cols @ w2d.T
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.strides == want.strides
        assert np.array_equal(got, want)

    def test_weight_major_up_to_the_cut(self, rng):
        w2d = rng.standard_normal((8, 27)).astype(np.float32)
        few = conv_gemm(_sparse_cols(rng, WEIGHT_MAJOR_ROWS, 27, 0.3), w2d)
        many = conv_gemm(_sparse_cols(rng, WEIGHT_MAJOR_ROWS + 1, 27, 0.3),
                         w2d)
        assert few.flags.f_contiguous and not few.flags.c_contiguous
        assert many.flags.c_contiguous

    def test_conv2d_equals_the_row_major_gemm(self, rng):
        # one 4x4 image is 16 GEMM rows: the weight-major side
        x = rng.standard_normal((1, 3, 4, 4)).astype(np.float32)
        w = rng.standard_normal((5, 3, 3, 3)).astype(np.float32)
        b = rng.standard_normal(5).astype(np.float32)
        got = conv2d(Tensor(x), Tensor(w), Tensor(b), stride=1, pad=1).data
        cols, _ = im2col(x, 3, 1, 1)
        want = (cols @ w.reshape(5, -1).T + b).reshape(1, 4, 4, 5)
        assert np.array_equal(got, want.transpose(0, 3, 1, 2))


def rows_im2col(x, kernel, stride, pad):
    """The C-ordered (N*OH*OW, C*K*K) unfolding conv2d used to GEMM on:
    one strided copy per kernel tap into (N, OH, OW, C, K, K)."""
    n, c, h, w = x.shape
    oh = (h + 2 * pad - kernel) // stride + 1
    ow = (w + 2 * pad - kernel) // stride + 1
    x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    cols = np.empty((n, oh, ow, c, kernel, kernel), dtype=x.dtype)
    for ky in range(kernel):
        for kx in range(kernel):
            cols[..., ky, kx] = x[:, :, ky:ky + stride * oh:stride,
                                  kx:kx + stride * ow:stride
                                  ].transpose(0, 2, 3, 1)
    return cols.reshape(n * oh * ow, c * kernel * kernel), (oh, ow)


def rows_conv2d(x, w, b, stride, pad, g):
    """conv2d's output and (gx, gw, gb) for the upstream gradient ``g``,
    as computed on C-ordered columns (the weight-major GEMM at few
    rows, as before)."""
    n, c_out, k = len(x), len(w), w.shape[-1]
    cols, (oh, ow) = rows_im2col(x, k, stride, pad)
    w_mat = w.reshape(c_out, -1)
    out = ((w_mat @ cols.T).T if len(cols) <= WEIGHT_MAJOR_ROWS
           else cols @ w_mat.T) + b
    out = out.reshape(n, oh, ow, c_out).transpose(0, 3, 1, 2)
    g_mat = g.transpose(0, 2, 3, 1).reshape(-1, c_out)
    gx = col2im(g_mat @ w_mat, x.shape, k, stride, pad)
    gw = (g_mat.T @ cols).reshape(w.shape)
    return out, gx, gw, g_mat.sum(axis=0)


#: Convs whose GEMMs pass :data:`SMALL_GEMM_MACS`, so they read the
#: K-major columns in place: (batch, C_in, C_out, size, kernel).
LARGE_CONVS = [(2, 16, 32, 16, 3), (4, 32, 64, 8, 3), (1, 64, 64, 32, 3),
               (8, 64, 128, 4, 3), (3, 8, 64, 24, 5)]


class TestConv2dBitwise:
    """conv2d on the K-major unfolding gives the C-ordered formulation's
    output (values and memory layout, which downstream reductions such
    as batch norm sum in) and gradients, bit for bit."""

    @staticmethod
    def _check(x, w, b, stride, pad, seed):
        rng = np.random.default_rng(seed)
        xt = Tensor(x, requires_grad=True)
        wt = Tensor(w, requires_grad=True)
        bt = Tensor(b, requires_grad=True)
        out = conv2d(xt, wt, bt, stride, pad)
        g = rng.standard_normal(out.shape).astype(np.float32)
        out.backward(g)
        want, gx, gw, gb = rows_conv2d(x, w, b, stride, pad, g)
        assert out.data.strides == want.strides
        for got, ref in ((out.data, want), (xt.grad, gx), (wt.grad, gw),
                         (bt.grad, gb)):
            assert got.dtype == ref.dtype and np.array_equal(got, ref)

    @given(batch=st.integers(1, 6), c_in=st.integers(1, 12),
           c_out=st.integers(1, 12), size=st.integers(1, 12),
           kernel=st.sampled_from([1, 2, 3, 5]), stride=st.integers(1, 3),
           pad=st.integers(0, 2), seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_small_convs(self, batch, c_in, c_out, size, kernel, stride,
                         pad, seed):
        if size + 2 * pad < kernel:
            return
        rng = np.random.default_rng(seed)
        x = np.maximum(rng.standard_normal((batch, c_in, size, size)),
                       0).astype(np.float32)
        w = rng.standard_normal((c_out, c_in, kernel, kernel)).astype(
            np.float32)
        b = rng.standard_normal(c_out).astype(np.float32)
        self._check(x, w, b, stride, pad, seed)

    @pytest.mark.parametrize("batch,c_in,c_out,size,kernel", LARGE_CONVS)
    @pytest.mark.parametrize("stride", [1, 2])
    def test_large_convs(self, rng, batch, c_in, c_out, size, kernel,
                         stride):
        x = np.maximum(rng.standard_normal((batch, c_in, size, size)),
                       0).astype(np.float32)
        w = (rng.standard_normal((c_out, c_in, kernel, kernel))
             * 0.1).astype(np.float32)
        b = rng.standard_normal(c_out).astype(np.float32)
        self._check(x, w, b, stride, kernel // 2, 0)


class TestIm2Col:
    def test_shapes(self, rng):
        x = rng.standard_normal((2, 3, 8, 8)).astype(np.float32)
        cols, (oh, ow) = im2col(x, 3, 1, 1)
        assert (oh, ow) == (8, 8)
        assert cols.shape == (2 * 64, 27)

    @pytest.mark.parametrize("kernel,stride,pad",
                             [(3, 1, 1), (3, 2, 0), (2, 2, 0), (3, 3, 1),
                              (1, 1, 0), (5, 2, 2), (4, 3, 0)])
    @pytest.mark.parametrize("channels_last", [False, True])
    def test_rows_are_the_patches(self, rng, kernel, stride, pad,
                                  channels_last):
        x = rng.standard_normal((2, 3, 7, 6)).astype(np.float32)
        if channels_last:   # an NCHW view of NHWC memory
            x = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(
                0, 3, 1, 2)
        cols, (oh, ow) = im2col(x, kernel, stride, pad)
        padded = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
        want = [padded[n, :, i * stride:i * stride + kernel,
                       j * stride:j * stride + kernel].ravel()
                for n in range(2) for i in range(oh) for j in range(ow)]
        assert cols.dtype == x.dtype
        assert np.array_equal(cols, np.array(want))

    @pytest.mark.parametrize("width", [COPY_ROW - 1, COPY_ROW])
    @pytest.mark.parametrize("stride,pad", [(1, 1), (2, 1), (1, 0)])
    def test_gathered_and_copied_rows_agree(self, rng, width, stride, pad):
        # rows shorter than COPY_ROW are gathered, longer ones copied
        x = rng.standard_normal((3, 4, 5, width * stride)).astype(np.float32)
        cols, (oh, ow) = im2col(x, 3, stride, pad)
        want, _ = rows_im2col(x, 3, stride, pad)
        assert cols.flags.f_contiguous
        assert np.array_equal(cols, want)

    def test_col2im_adjoint_property(self, rng):
        """col2im is the transpose of im2col: <im2col(x), y> == <x, col2im(y)>."""
        x = rng.standard_normal((1, 2, 5, 5)).astype(np.float64)
        cols, _ = im2col(x, 3, 2, 1)
        y = rng.standard_normal(cols.shape)
        lhs = float((cols * y).sum())
        back = col2im(y, x.shape, 3, 2, 1)
        rhs = float((x * back).sum())
        assert np.isclose(lhs, rhs, rtol=1e-10)


class TestPooling:
    def test_max_pool_values(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        out = max_pool2d(Tensor(x), 2).data
        assert np.allclose(out[0, 0], [[5, 7], [13, 15]])

    def test_max_pool_grad_to_argmax_only(self):
        x = Tensor(np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4),
                   requires_grad=True)
        max_pool2d(x, 2).sum().backward()
        grad = x.grad[0, 0]
        assert grad.sum() == 4
        assert grad[1, 1] == 1 and grad[3, 3] == 1
        assert grad[0, 0] == 0

    def test_avg_pool_values_and_grad(self):
        x = Tensor(np.ones((1, 1, 4, 4), dtype=np.float32), requires_grad=True)
        out = avg_pool2d(x, 2)
        assert np.allclose(out.data, 1.0)
        out.sum().backward()
        assert np.allclose(x.grad, 0.25)

    def test_strided_max_pool(self, rng):
        x = rng.standard_normal((1, 2, 6, 6)).astype(np.float32)
        out = max_pool2d(Tensor(x), 3, 3).data
        assert out.shape == (1, 2, 2, 2)
        assert np.isclose(out[0, 0, 0, 0], x[0, 0, :3, :3].max())
