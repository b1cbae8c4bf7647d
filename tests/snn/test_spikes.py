"""SpikeTrain container semantics."""

import numpy as np
import pytest

from repro.cat import NO_SPIKE, Base2Kernel
from repro.snn import SpikeTrain, encode_values


class TestValidation:
    def test_valid_times_accepted(self):
        SpikeTrain(np.array([0, 5, NO_SPIKE, 12]), window=12)

    def test_out_of_window_rejected(self):
        with pytest.raises(ValueError):
            SpikeTrain(np.array([13]), window=12)

    def test_negative_non_sentinel_rejected(self):
        with pytest.raises(ValueError):
            SpikeTrain(np.array([-2]), window=12)


class TestStats:
    def test_counts(self):
        train = SpikeTrain(np.array([0, 1, NO_SPIKE, 3]), window=4)
        assert train.num_neurons == 4
        assert train.num_spikes == 3
        assert np.isclose(train.sparsity, 0.25)

    def test_histogram(self):
        train = SpikeTrain(np.array([0, 1, 1, NO_SPIKE, 4]), window=4)
        hist = train.spikes_per_timestep()
        assert hist.tolist() == [1, 2, 0, 0, 1]

    def test_histogram_length(self):
        train = SpikeTrain(np.full(5, NO_SPIKE), window=8)
        assert len(train.spikes_per_timestep()) == 9


class TestDecode:
    def test_decode_roundtrip(self):
        k = Base2Kernel(tau=4.0)
        values = k.grid(12)
        train = encode_values(values, k, window=12)
        assert np.allclose(train.decode(k), values)

    def test_no_spike_decodes_zero(self):
        k = Base2Kernel(tau=2.0)
        train = SpikeTrain(np.array([NO_SPIKE]), window=8)
        assert train.decode(k)[0] == 0.0

    def test_encode_values_window_cut(self):
        k = Base2Kernel(tau=2.0)
        train = encode_values(np.array([1e-9]), k, window=8)
        assert train.times[0] == NO_SPIKE


class TestOrdering:
    def test_sorted_events_time_major(self):
        times = np.array([3, 0, NO_SPIKE, 1, 0])
        train = SpikeTrain(times, window=4)
        events = list(train.sorted_events())
        assert events == [(0, 1), (0, 4), (1, 3), (3, 0)]

    def test_sorted_events_skips_silent(self):
        train = SpikeTrain(np.full(4, NO_SPIKE), window=4)
        assert list(train.sorted_events()) == []

    def test_reshape_preserves_window(self):
        train = SpikeTrain(np.zeros((2, 4), dtype=np.int64), window=6)
        assert train.reshape((8,)).window == 6
