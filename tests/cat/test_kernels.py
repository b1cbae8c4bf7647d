"""TTFS kernel algebra (Eqs. 5, 6, 8, 9, 14, 18)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cat import NO_SPIKE, Base2Kernel, ExpKernel


class TestBase2Kernel:
    def test_value_at_zero_is_one(self):
        assert Base2Kernel(tau=4.0).value(0) == 1.0

    def test_halves_every_tau_steps(self):
        k = Base2Kernel(tau=4.0)
        assert np.isclose(k.value(4), 0.5)
        assert np.isclose(k.value(8), 0.25)

    def test_threshold_scales_with_theta0(self):
        k = Base2Kernel(tau=2.0)
        assert np.isclose(k.threshold(2, theta0=3.0), 1.5)

    def test_spike_time_on_grid_exact(self):
        k = Base2Kernel(tau=4.0)
        for dt in range(0, 25):
            v = k.value(dt)
            assert k.spike_time(v, window=24) == dt

    def test_spike_time_off_grid_rounds_up(self):
        """A value between grid points fires at the *later* step (the
        first threshold it actually reaches)."""
        k = Base2Kernel(tau=4.0)
        v = (k.value(3) + k.value(4)) / 2
        assert k.spike_time(v) == 4

    def test_value_above_theta0_fires_immediately(self):
        k = Base2Kernel(tau=4.0)
        assert k.spike_time(5.0) == 0

    def test_nonpositive_never_fires(self):
        k = Base2Kernel(tau=4.0)
        times = k.spike_time(np.array([0.0, -1.0]), window=24)
        assert np.all(times == NO_SPIKE)

    def test_window_cutoff(self):
        k = Base2Kernel(tau=4.0)
        tiny = k.value(30)
        assert k.spike_time(tiny, window=24) == NO_SPIKE
        assert k.spike_time(tiny, window=32) == 30

    def test_decode_inverts_grid(self):
        k = Base2Kernel(tau=4.0)
        dts = np.arange(0, 25)
        assert np.allclose(k.decode(dts), k.value(dts))

    def test_decode_no_spike_is_zero(self):
        k = Base2Kernel(tau=4.0)
        assert k.decode(np.array([NO_SPIKE]))[0] == 0.0

    def test_grid_is_monotone_decreasing(self):
        grid = Base2Kernel(tau=8.0).grid(48)
        assert np.all(np.diff(grid) < 0)
        assert len(grid) == 49

    @pytest.mark.parametrize("tau,ok", [(1, True), (2, True), (4, True),
                                        (8, True), (3, False), (5, False),
                                        (6, False)])
    def test_shift_compatibility_eq18(self, tau, ok):
        assert Base2Kernel(tau=float(tau)).is_shift_compatible is ok

    def test_base_e_never_shift_compatible(self):
        assert not Base2Kernel(tau=4.0, base=math.e).is_shift_compatible


class TestExpKernel:
    def test_delay_shifts_start(self):
        k = ExpKernel(tau=20.0, t_d=5.0)
        assert np.isclose(k.value(5), 1.0)
        assert k.value(0) > 1.0  # before the delay the kernel is above 1

    def test_spike_time_roundtrip_on_grid(self):
        k = ExpKernel(tau=20.0, t_d=0.0)
        for dt in (0, 3, 10, 40):
            assert k.spike_time(k.value(dt), window=80) == dt

    def test_never_shift_compatible(self):
        assert not ExpKernel(tau=20.0).is_shift_compatible

    def test_no_spike_for_zero(self):
        assert ExpKernel(tau=20.0).spike_time(0.0, window=80) == NO_SPIKE


class TestBaseEquivalence:
    def test_equivalent_tau_identity(self):
        """2^(-t/tau') == e^(-t/tau) with tau' = tau / log2(e)."""
        tau_e = 20.0
        tau_2 = tau_e / math.log2(math.e)
        exp_k = ExpKernel(tau=tau_e)
        b2_k = Base2Kernel(tau=tau_2)
        ts = np.linspace(0, 80, 30)
        assert np.allclose(exp_k.value(ts), b2_k.value(ts), rtol=1e-10)

    def test_base_parameter_matches_exp(self):
        """Base2Kernel(base=e) reproduces the delay-free ExpKernel."""
        ke = ExpKernel(tau=20.0, t_d=0.0)
        kb = Base2Kernel(tau=20.0, base=math.e)
        ts = np.arange(0, 30)
        assert np.allclose(ke.value(ts), kb.value(ts))


@given(st.floats(0.01, 0.999), st.sampled_from([2.0, 4.0, 8.0]))
@settings(max_examples=80, deadline=None)
def test_spike_time_decode_is_lower_bound(x, tau):
    """decode(spike_time(x)) <= x and within one grid step (property)."""
    k = Base2Kernel(tau=tau)
    t = k.spike_time(x, window=1000)
    v = float(k.decode(t))
    assert v <= x * (1 + 1e-4)
    assert v >= x * float(k.value(1)) * (1 - 1e-9)  # one step below at most


@given(st.integers(0, 48), st.sampled_from([2.0, 4.0, 8.0]),
       st.floats(0.5, 2.0))
@settings(max_examples=80, deadline=None)
def test_grid_fixed_points(dt, tau, theta0):
    """Grid values are fixed points of encode-decode for any theta0."""
    k = Base2Kernel(tau=tau)
    v = float(k.decode(dt, theta0=theta0))
    t2 = int(k.spike_time(v, theta0=theta0, window=100))
    assert t2 == dt
