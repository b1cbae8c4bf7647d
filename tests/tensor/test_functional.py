"""Loss functions and metrics."""

import numpy as np
from scipy import special

from repro.tensor import (
    Tensor,
    accuracy,
    cross_entropy,
    log_softmax,
    softmax,
)


class TestSoftmax:
    def test_matches_scipy(self, rng):
        logits = rng.standard_normal((4, 7)).astype(np.float32)
        got = softmax(Tensor(logits)).data
        want = special.softmax(logits, axis=-1)
        assert np.allclose(got, want, atol=1e-5)

    def test_log_softmax_stability_large_logits(self):
        logits = Tensor(np.array([[1000.0, 1000.0, 999.0]]))
        out = log_softmax(logits).data
        assert np.all(np.isfinite(out))

    def test_rows_sum_to_one(self, rng):
        logits = rng.standard_normal((5, 3)).astype(np.float32)
        assert np.allclose(softmax(Tensor(logits)).data.sum(axis=1), 1.0,
                           atol=1e-5)


class TestCrossEntropy:
    def test_value_matches_manual(self, rng):
        logits = rng.standard_normal((6, 4)).astype(np.float32)
        targets = np.array([0, 1, 2, 3, 0, 1])
        got = cross_entropy(Tensor(logits), targets).item()
        logp = np.log(special.softmax(logits, axis=-1))
        want = -logp[np.arange(6), targets].mean()
        assert np.isclose(got, want, atol=1e-5)

    def test_gradient_is_softmax_minus_onehot(self, rng):
        logits = Tensor(rng.standard_normal((3, 5)).astype(np.float32),
                        requires_grad=True)
        targets = np.array([1, 0, 4])
        cross_entropy(logits, targets).backward()
        want = (special.softmax(logits.data, axis=-1)
                - np.eye(5)[targets]) / 3
        assert np.allclose(logits.grad, want, atol=1e-5)

    def test_perfect_prediction_low_loss(self):
        logits = np.full((2, 3), -20.0, dtype=np.float32)
        logits[0, 1] = 20.0
        logits[1, 2] = 20.0
        loss = cross_entropy(Tensor(logits), np.array([1, 2])).item()
        assert loss < 1e-4


class TestMetrics:
    def test_accuracy(self):
        logits = np.array([[0.9, 0.1], [0.2, 0.8], [0.6, 0.4]])
        assert accuracy(logits, np.array([0, 1, 1])) == 2 / 3

    def test_accuracy_tensor_input(self):
        logits = Tensor(np.array([[1.0, 0.0]]))
        assert accuracy(logits, np.array([0])) == 1.0
