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
    global_avg_pool2d,
    im2col,
    max_pool2d,
)
from repro.tensor.conv import WEIGHT_MAJOR_ROWS


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

    def test_global_avg_pool(self, rng):
        x = rng.standard_normal((2, 3, 4, 4)).astype(np.float32)
        out = global_avg_pool2d(Tensor(x)).data
        assert out.shape == (2, 3)
        assert np.allclose(out, x.mean(axis=(2, 3)), atol=1e-6)
