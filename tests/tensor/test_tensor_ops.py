"""Forward and backward correctness of elementwise/matrix Tensor ops."""

import numpy as np
import pytest

from repro.tensor import Tensor, concatenate, stack, where


def numeric_grad(fn, x, idx, eps=1e-3):
    """Central finite difference of scalar fn at x.data[idx]."""
    x.data[idx] += eps
    hi = fn().item()
    x.data[idx] -= 2 * eps
    lo = fn().item()
    x.data[idx] += eps
    return (hi - lo) / (2 * eps)


class TestArithmetic:
    def test_add_forward(self):
        a = Tensor([1.0, 2.0])
        b = Tensor([3.0, 4.0])
        assert np.allclose((a + b).data, [4.0, 6.0])

    def test_add_backward_both_sides(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        (a + b).sum().backward()
        assert np.allclose(a.grad, [1, 1])
        assert np.allclose(b.grad, [1, 1])

    def test_add_scalar(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        out = (a + 5.0).sum()
        out.backward()
        assert np.allclose(out.item(), 13.0)
        assert np.allclose(a.grad, [1, 1])

    def test_radd(self):
        a = Tensor([1.0])
        assert np.allclose((2.0 + a).data, [3.0])

    def test_mul_backward(self):
        a = Tensor([2.0, 3.0], requires_grad=True)
        b = Tensor([5.0, 7.0], requires_grad=True)
        (a * b).sum().backward()
        assert np.allclose(a.grad, [5, 7])
        assert np.allclose(b.grad, [2, 3])

    def test_sub_and_neg(self):
        a = Tensor([5.0], requires_grad=True)
        b = Tensor([2.0], requires_grad=True)
        (a - b).backward()
        assert a.grad[0] == 1.0
        assert b.grad[0] == -1.0
        c = Tensor([4.0], requires_grad=True)
        (-c).backward()
        assert c.grad[0] == -1.0

    def test_rsub(self):
        a = Tensor([2.0], requires_grad=True)
        (10.0 - a).backward()
        assert a.grad[0] == -1.0

    def test_div_backward(self):
        a = Tensor([6.0], requires_grad=True)
        b = Tensor([2.0], requires_grad=True)
        (a / b).backward()
        assert np.isclose(a.grad[0], 0.5)
        assert np.isclose(b.grad[0], -1.5)

    def test_pow_backward(self):
        a = Tensor([3.0], requires_grad=True)
        (a**2).backward()
        assert np.isclose(a.grad[0], 6.0)

    def test_pow_rejects_tensor_exponent(self):
        a = Tensor([3.0])
        with pytest.raises(TypeError):
            a ** Tensor([2.0])

    def test_matmul_shapes_and_grad(self):
        a = Tensor(np.arange(6, dtype=np.float32).reshape(2, 3),
                   requires_grad=True)
        b = Tensor(np.ones((3, 4), dtype=np.float32), requires_grad=True)
        out = a @ b
        assert out.shape == (2, 4)
        out.sum().backward()
        assert a.grad.shape == (2, 3)
        assert b.grad.shape == (3, 4)
        assert np.allclose(a.grad, 4.0)

    def test_matmul_numeric_grad(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal((4, 2)))

        def fn():
            return ((a @ b) * (a @ b)).sum()

        fn().backward()
        got = a.grad[1, 2]
        a.zero_grad()
        want = numeric_grad(fn, a, (1, 2))
        assert np.isclose(got, want, rtol=1e-2)


class TestBroadcasting:
    def test_add_broadcast_bias(self):
        x = Tensor(np.ones((4, 3)), requires_grad=True)
        b = Tensor(np.zeros(3), requires_grad=True)
        (x + b).sum().backward()
        assert b.grad.shape == (3,)
        assert np.allclose(b.grad, 4.0)

    def test_mul_broadcast_rows(self):
        x = Tensor(np.ones((2, 5)), requires_grad=True)
        s = Tensor(np.full((2, 1), 3.0), requires_grad=True)
        (x * s).sum().backward()
        assert s.grad.shape == (2, 1)
        assert np.allclose(s.grad, 5.0)

    def test_broadcast_leading_dims(self):
        x = Tensor(np.ones((2, 3, 4)), requires_grad=True)
        y = Tensor(np.ones((4,)), requires_grad=True)
        (x * y).sum().backward()
        assert y.grad.shape == (4,)
        assert np.allclose(y.grad, 6.0)


class TestElementwise:
    def test_exp_log_roundtrip(self):
        x = Tensor([0.5, 1.0, 2.0], requires_grad=True)
        y = x.exp().log()
        assert np.allclose(y.data, x.data, atol=1e-6)

    def test_exp_grad(self):
        x = Tensor([1.0], requires_grad=True)
        x.exp().backward()
        assert np.isclose(x.grad[0], np.e)

    def test_log_grad(self):
        x = Tensor([4.0], requires_grad=True)
        x.log().backward()
        assert np.isclose(x.grad[0], 0.25)

    def test_sqrt(self):
        x = Tensor([9.0], requires_grad=True)
        x.sqrt().backward()
        assert np.isclose(x.grad[0], 1.0 / 6.0)

    def test_relu_forward_backward(self):
        x = Tensor([-1.0, 0.0, 2.0], requires_grad=True)
        x.relu().sum().backward()
        assert np.allclose(x.relu().data, [0, 0, 2])
        assert np.allclose(x.grad, [0, 0, 1])

    def test_sigmoid_range(self):
        x = Tensor(np.linspace(-5, 5, 11))
        s = x.sigmoid().data
        assert np.all((s > 0) & (s < 1))

    def test_abs_grad_sign(self):
        x = Tensor([-2.0, 3.0], requires_grad=True)
        x.abs().sum().backward()
        assert np.allclose(x.grad, [-1, 1])

    def test_clip_gradient_window(self):
        x = Tensor([-0.5, 0.5, 1.5], requires_grad=True)
        x.clip(0.0, 1.0).sum().backward()
        assert np.allclose(x.clip(0.0, 1.0).data, [0.0, 0.5, 1.0])
        assert np.allclose(x.grad, [0, 1, 0])


class TestReductions:
    def test_sum_axis_keepdims(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        out = x.sum(axis=1, keepdims=True)
        assert out.shape == (2, 1)
        out.sum().backward()
        assert np.allclose(x.grad, 1.0)

    def test_sum_tuple_axis(self):
        x = Tensor(np.ones((2, 3, 4)), requires_grad=True)
        out = x.sum(axis=(0, 2))
        assert out.shape == (3,)
        out.sum().backward()
        assert np.allclose(x.grad, 1.0)

    def test_mean_value_and_grad(self):
        x = Tensor([2.0, 4.0], requires_grad=True)
        x.mean().backward()
        assert np.allclose(x.grad, 0.5)

    def test_var_matches_numpy(self):
        data = np.random.default_rng(1).standard_normal((4, 5)).astype(np.float32)
        x = Tensor(data)
        assert np.isclose(x.var().item(), data.var(), rtol=1e-4)

    def test_max_grad_routes_to_argmax(self):
        x = Tensor([1.0, 5.0, 3.0], requires_grad=True)
        x.max().backward()
        assert np.allclose(x.grad, [0, 1, 0])

    def test_max_axis(self):
        x = Tensor(np.array([[1.0, 2.0], [4.0, 3.0]]), requires_grad=True)
        out = x.max(axis=1)
        assert np.allclose(out.data, [2, 4])
        out.sum().backward()
        assert np.allclose(x.grad, [[0, 1], [1, 0]])


class TestShapes:
    def test_reshape_roundtrip_grad(self):
        x = Tensor(np.arange(6.0), requires_grad=True)
        x.reshape(2, 3).sum().backward()
        assert x.grad.shape == (6,)

    def test_transpose_default_reverses(self):
        x = Tensor(np.ones((2, 3, 4)))
        assert x.transpose().shape == (4, 3, 2)

    def test_transpose_grad(self):
        x = Tensor(np.random.default_rng(0).standard_normal((2, 3)),
                   requires_grad=True)
        (x.transpose() * 2.0).sum().backward()
        assert x.grad.shape == (2, 3)
        assert np.allclose(x.grad, 2.0)

    def test_flatten(self):
        x = Tensor(np.ones((2, 3, 4)))
        assert x.flatten(1).shape == (2, 12)

    def test_getitem_scatter_grad(self):
        x = Tensor(np.arange(5.0), requires_grad=True)
        x[np.array([0, 2, 2])].sum().backward()
        assert np.allclose(x.grad, [1, 0, 2, 0, 0])


class TestCombinators:
    def test_concatenate_grad_split(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones((3, 2)), requires_grad=True)
        out = concatenate([a, b], axis=0)
        assert out.shape == (5, 2)
        (out * 2.0).sum().backward()
        assert np.allclose(a.grad, 2.0) and np.allclose(b.grad, 2.0)

    def test_stack_new_axis(self):
        a = Tensor(np.zeros(3), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=True)
        out = stack([a, b], axis=0)
        assert out.shape == (2, 3)
        out.sum().backward()
        assert np.allclose(a.grad, 1.0)

    def test_where_routes_grads(self):
        cond = np.array([True, False, True])
        a = Tensor([1.0, 1.0, 1.0], requires_grad=True)
        b = Tensor([2.0, 2.0, 2.0], requires_grad=True)
        where(cond, a, b).sum().backward()
        assert np.allclose(a.grad, [1, 0, 1])
        assert np.allclose(b.grad, [0, 1, 0])
