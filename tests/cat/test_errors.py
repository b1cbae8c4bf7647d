"""Fig. 2 representation-error analysis."""

import numpy as np
import pytest

from repro.cat import activation_curves


class TestFig2Curves:
    @pytest.fixture(scope="class")
    def curves(self):
        return activation_curves(window=24, tau=4.0, theta0=1.0, x_max=1.2)

    def test_ttfs_error_is_zero(self, curves):
        """The central Fig. 2 claim: phi_TTFS has no representation error."""
        assert curves.max_error("ttfs") == 0.0

    def test_clip_error_positive_but_bounded(self, curves):
        assert curves.max_error("clip") > 0.0
        # bounded by one grid step fraction: max over x of x(1 - 2^-1/4)
        assert curves.max_error("clip") <= 1.0 - 2 ** (-1 / 4.0) + 1e-9

    def test_relu_error_exceeds_clip_beyond_theta0(self, curves):
        xs = curves.inputs
        above = xs > 1.0
        assert np.all(curves.errors["relu"][above]
                      >= curves.errors["clip"][above] - 1e-12)

    def test_relu_error_grows_linearly_past_theta0(self, curves):
        xs = curves.inputs
        idx = np.argmax(xs)  # x = 1.2
        assert np.isclose(curves.errors["relu"][idx], 0.2, atol=1e-6)

    def test_activations_agree_inside_small_values(self, curves):
        """clip == relu on [0, theta0]."""
        xs = curves.inputs
        inside = xs <= 1.0
        assert np.allclose(curves.activations["relu"][inside],
                           curves.activations["clip"][inside])

    def test_mean_error_ordering(self, curves):
        assert (curves.mean_error("ttfs") < curves.mean_error("clip")
                < curves.mean_error("relu"))

    def test_smaller_tau_larger_clip_error(self):
        fine = activation_curves(window=48, tau=8.0)
        coarse = activation_curves(window=12, tau=2.0)
        assert coarse.mean_error("clip") > fine.mean_error("clip")
