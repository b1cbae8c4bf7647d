"""IF neuron pool oracle: integration and dynamic-threshold fire phase.

The sweep tests hold the engine's closed-form spike time (Eq. 14) to
the per-timestep threshold sweep of the hardware's spike encoder.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.cat import NO_SPIKE, Base2Kernel

from .neuron_oracle import IFNeuronPool


def make_pool(shape=(8,), tau=4.0, theta0=1.0):
    return IFNeuronPool(shape=shape, kernel=Base2Kernel(tau=tau),
                        theta0=theta0)


class TestIntegration:
    def test_membrane_accumulates(self):
        pool = make_pool((3,))
        pool.integrate(np.array([0.1, 0.2, 0.3]))
        pool.integrate(np.array([0.1, 0.0, 0.0]))
        assert np.allclose(pool.membrane, [0.2, 0.2, 0.3])

    def test_bias_adds_once(self):
        pool = make_pool((2,))
        pool.add_bias(np.array([0.5, -0.5]))
        assert np.allclose(pool.membrane, [0.5, -0.5])

    def test_reset(self):
        pool = make_pool((2,))
        pool.integrate(np.ones(2))
        pool.run_fire_phase(8)
        pool.reset()
        assert np.all(pool.membrane == 0)
        assert np.all(pool.fire_times == NO_SPIKE)


class TestFirePhase:
    def test_large_membrane_fires_first(self):
        pool = make_pool((2,))
        pool.integrate(np.array([1.0, 0.25]))
        train = pool.run_fire_phase(12)
        assert train.times[0] < train.times[1]

    def test_fire_resets_membrane(self):
        pool = make_pool((1,))
        pool.integrate(np.array([1.0]))
        pool.fire_step(0)
        assert pool.membrane[0] == 0.0

    def test_neuron_fires_at_most_once(self):
        pool = make_pool((1,))
        pool.integrate(np.array([1.0]))
        pool.fire_step(0)
        t0 = pool.fire_times[0]
        pool.fire_step(1)
        assert pool.fire_times[0] == t0

    def test_negative_never_fires(self):
        pool = make_pool((1,))
        pool.integrate(np.array([-0.3]))
        train = pool.run_fire_phase(12)
        assert train.times[0] == NO_SPIKE

    def test_subthreshold_never_fires(self):
        pool = make_pool((1,), tau=4.0)
        pool.integrate(np.array([2.0 ** (-20 / 4.0)]))  # below window grid
        train = pool.run_fire_phase(12)
        assert train.times[0] == NO_SPIKE

    def test_exact_threshold_fires(self):
        pool = make_pool((1,), tau=4.0)
        pool.integrate(np.array([float(Base2Kernel(tau=4.0).value(5))]))
        train = pool.run_fire_phase(12)
        assert train.times[0] == 5


class TestClosedFormEquivalence:
    def test_sweep_equals_closed_form_grid(self):
        pool = make_pool((25,), tau=4.0)
        pool.integrate(Base2Kernel(tau=4.0).grid(24))
        sweep = pool.fire_closed_form(24).times.copy()
        pool2 = make_pool((25,), tau=4.0)
        pool2.integrate(Base2Kernel(tau=4.0).grid(24))
        swept = pool2.run_fire_phase(24).times
        assert np.array_equal(sweep, swept)

    @given(hnp.arrays(np.float64, st.integers(1, 20),
                      elements=st.floats(-2.0, 2.0)))
    @settings(max_examples=50, deadline=None)
    def test_sweep_equals_closed_form_random(self, membranes):
        """The hardware threshold sweep and Eq. 14 must always agree."""
        k = Base2Kernel(tau=4.0)
        p1 = IFNeuronPool(shape=membranes.shape, kernel=k, theta0=1.0)
        p1.integrate(membranes)
        closed = p1.fire_closed_form(24).times.copy()
        p2 = IFNeuronPool(shape=membranes.shape, kernel=k, theta0=1.0)
        p2.integrate(membranes)
        swept = p2.run_fire_phase(24).times
        assert np.array_equal(closed, swept)
