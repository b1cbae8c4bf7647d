"""Graph mechanics: accumulation, reuse, topological ordering."""

import numpy as np
import pytest

from repro.tensor import Tensor, custom_op


class TestBackwardMechanics:
    def test_backward_requires_scalar(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError):
            (x * 2.0).backward()

    def test_backward_with_explicit_grad(self):
        x = Tensor(np.ones(3), requires_grad=True)
        (x * 2.0).backward(np.array([1.0, 2.0, 3.0]))
        assert np.allclose(x.grad, [2, 4, 6])

    def test_grad_accumulates_across_backwards(self):
        x = Tensor([1.0], requires_grad=True)
        (x * 2.0).sum().backward()
        (x * 2.0).sum().backward()
        assert np.isclose(x.grad[0], 4.0)

    def test_zero_grad(self):
        x = Tensor([1.0], requires_grad=True)
        (x * 2.0).sum().backward()
        x.zero_grad()
        assert x.grad is None

    def test_diamond_graph_accumulates_once_per_path(self):
        x = Tensor([2.0], requires_grad=True)
        y = x * 3.0
        z = (y + y).sum()  # two paths through y
        z.backward()
        assert np.isclose(x.grad[0], 6.0)

    def test_reused_leaf_in_two_branches(self):
        x = Tensor([2.0], requires_grad=True)
        out = (x * x).sum()
        out.backward()
        assert np.isclose(x.grad[0], 4.0)

    def test_deep_chain_no_recursion_error(self):
        x = Tensor([1.0], requires_grad=True)
        y = x
        for _ in range(3000):
            y = y + 0.001
        y.sum().backward()
        assert np.isclose(x.grad[0], 1.0)

    def test_no_grad_tracking_without_requires(self):
        x = Tensor([1.0])
        y = x * 2.0
        assert y._backward is None and y._parents == ()

    def test_grad_not_stored_on_intermediates(self):
        x = Tensor([1.0], requires_grad=True)
        mid = x * 2.0
        mid.sum().backward()
        assert x.grad is not None
        # intermediate keeps no accumulated .grad buffer of its own path
        assert mid.grad is None or mid.grad.shape == mid.shape


class TestCustomOp:
    def test_custom_forward_and_backward(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        fwd = np.array([10.0, 20.0], dtype=np.float32)
        out = custom_op([x], fwd, lambda g: (g * 3.0,))
        assert np.allclose(out.data, fwd)
        out.sum().backward()
        assert np.allclose(x.grad, [3, 3])

    def test_custom_op_multiple_inputs(self):
        a = Tensor([1.0], requires_grad=True)
        b = Tensor([2.0], requires_grad=True)
        out = custom_op([a, b], np.array([5.0]), lambda g: (g, 2 * g))
        out.sum().backward()
        assert np.isclose(a.grad[0], 1.0)
        assert np.isclose(b.grad[0], 2.0)

    def test_custom_op_none_grad_skipped(self):
        a = Tensor([1.0], requires_grad=True)
        b = Tensor([2.0], requires_grad=True)
        out = custom_op([a, b], np.array([5.0]), lambda g: (g, None))
        out.sum().backward()
        assert np.isclose(a.grad[0], 1.0)
        assert b.grad is None


class TestDtype:
    def test_default_float32(self):
        assert Tensor([1, 2, 3]).dtype == np.float32

    def test_float64_downcast(self):
        assert Tensor(np.zeros(2, dtype=np.float64)).dtype == np.float32

    def test_item_and_len(self):
        assert Tensor([5.0]).item() == 5.0
        assert len(Tensor(np.zeros((4, 2)))) == 4

    def test_repr_mentions_grad(self):
        assert "requires_grad" in repr(Tensor([1.0], requires_grad=True))
