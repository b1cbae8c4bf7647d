"""Property tests for the sorted event-stream representation.

The EventStream must be a *lossless* alternative to the dense fire-time
array: ``from_dense`` then ``to_dense`` is the identity (NO_SPIKE slots
included), the canonical order is stable time-major/index-minor, and
every derived op (decode, pooling, slicing, folding) agrees with its
dense counterpart bit for bit.  Hypothesis drives the corner cases
(empty trains, all-silent neurons, ties); ``derandomize`` keeps the
suite reproducible under any test ordering.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.cat.kernels import Base2Kernel
from repro.events import NO_SPIKE, EventStream
from repro.snn.spikes import SpikeTrain

SETTINGS = settings(derandomize=True, max_examples=40, deadline=None,
                    suppress_health_check=[
                        HealthCheck.function_scoped_fixture])

WINDOW = 9

#: Dense fire-time arrays: every slot NO_SPIKE or in [0, window].
dense_times = hnp.arrays(
    dtype=np.int64,
    shape=hnp.array_shapes(min_dims=1, max_dims=4, max_side=5),
    elements=st.integers(-1, WINDOW),
)


class TestRoundTrip:
    @SETTINGS
    @given(times=dense_times)
    def test_from_dense_to_dense_is_identity(self, times):
        stream = EventStream.from_dense(times, WINDOW)
        assert np.array_equal(stream.to_dense(), times)
        assert stream.shape == times.shape
        assert stream.num_spikes == int((times != NO_SPIKE).sum())

    @SETTINGS
    @given(times=dense_times)
    def test_masks_round_trip(self, times):
        stream = EventStream.from_dense(times, WINDOW)
        masks = stream.to_masks()
        assert masks.shape == (WINDOW + 1,) + times.shape
        back = EventStream.from_masks(masks)
        assert np.array_equal(back.to_dense(), times)

    def test_all_silent_and_empty(self):
        silent = EventStream.from_dense(
            np.full((3, 4), NO_SPIKE, dtype=np.int64), WINDOW)
        assert silent.num_events == 0 and silent.sparsity == 1.0
        assert np.array_equal(silent.to_dense(),
                              np.full((3, 4), NO_SPIKE))
        empty = EventStream.empty((2, 2), WINDOW)
        assert empty.num_events == 0
        assert not empty.spikes_per_timestep().any()

    def test_multi_spike_stream_has_no_dense_form(self):
        stream = EventStream.from_events([0, 1], [2, 2], (4,), WINDOW)
        with pytest.raises(ValueError, match="multiple spikes"):
            stream.to_dense()
        # but the masks form represents it fine
        assert stream.to_masks()[:2, 2].all()


class TestSortOrder:
    @SETTINGS
    @given(times=dense_times)
    def test_canonical_order_time_major_index_minor(self, times):
        stream = EventStream.from_dense(times, WINDOW)
        assert stream.is_sorted
        pairs = list(stream)
        assert pairs == sorted(pairs)
        assert pairs == list(SpikeTrain(times, WINDOW).sorted_events())

    @SETTINGS
    @given(times=dense_times)
    def test_from_events_sorts_any_permutation(self, times):
        stream = EventStream.from_dense(times, WINDOW)
        rng = np.random.default_rng(0)
        perm = rng.permutation(stream.num_events)
        shuffled = EventStream.from_events(
            stream.times[perm], stream.indices[perm], stream.shape, WINDOW)
        assert np.array_equal(shuffled.times, stream.times)
        assert np.array_equal(shuffled.indices, stream.indices)

    @SETTINGS
    @given(times=dense_times)
    def test_merge_of_disjoint_halves_restores_stream(self, times):
        stream = EventStream.from_dense(times, WINDOW)
        even = stream.slice_events(0, stream.num_events)
        a = EventStream(stream.times[::2], stream.indices[::2],
                        stream.shape, WINDOW)
        b = EventStream(stream.times[1::2], stream.indices[1::2],
                        stream.shape, WINDOW)
        merged = EventStream.merge([a, b])
        assert np.array_equal(merged.times, even.times)
        assert np.array_equal(merged.indices, even.indices)

    def test_merge_rejects_mismatched_shapes(self):
        a = EventStream.empty((2,), WINDOW)
        b = EventStream.empty((3,), WINDOW)
        with pytest.raises(ValueError, match="cannot merge"):
            EventStream.merge([a, b])


class TestDerivedOps:
    @SETTINGS
    @given(times=dense_times)
    def test_decode_matches_dense_spiketrain(self, times):
        kernel = Base2Kernel(tau=2.0)
        stream = EventStream.from_dense(times, WINDOW)
        train = SpikeTrain(times, WINDOW)
        assert np.array_equal(stream.decode(kernel, 1.0),
                              train.decode(kernel, 1.0))

    @SETTINGS
    @given(times=dense_times)
    def test_spikes_per_timestep_matches_dense(self, times):
        stream = EventStream.from_dense(times, WINDOW)
        train = SpikeTrain(times, WINDOW)
        assert np.array_equal(stream.spikes_per_timestep(),
                              train.spikes_per_timestep())

    def test_validation_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            EventStream(np.array([WINDOW + 1]), np.array([0]), (2,), WINDOW)
        with pytest.raises(ValueError, match="outside"):
            EventStream(np.array([0]), np.array([5]), (2, 2), WINDOW)

    def test_time_groups(self):
        times = np.array([[3, NO_SPIKE, 0], [3, 1, NO_SPIKE]])
        stream = EventStream.from_dense(times, WINDOW)
        groups = [(t, b - a) for t, a, b in stream.time_groups()]
        assert groups == [(0, 1), (1, 1), (3, 2)]


class TestBatchAndShapeOps:
    def test_reshape_keeps_flat_indices(self):
        rng = np.random.default_rng(4)
        times = rng.integers(-1, WINDOW + 1, size=(2, 3, 4))
        stream = EventStream.from_dense(times, WINDOW)
        flat = stream.reshape((2, -1))
        assert flat.shape == (2, 12)
        assert np.array_equal(flat.to_dense(), times.reshape(2, 12))
        with pytest.raises(ValueError, match="cannot reshape"):
            stream.reshape((5, 5))

    def test_fold_time_is_the_dense_time_fold(self):
        rng = np.random.default_rng(5)
        masks = rng.random((4, 3, 2)) < 0.4  # (T, N, D) multi-spike
        stream = EventStream.from_masks(masks)
        folded = stream.fold_time()
        assert folded.shape == (12, 2)
        dense = masks.reshape(12, 2)
        assert np.array_equal(folded.to_masks()[0], dense)

    def test_with_offset_translates_indices(self):
        stream = EventStream.from_dense(np.array([1, NO_SPIKE]), WINDOW)
        moved = stream.with_offset(3, (8,))
        assert list(moved) == [(1, 3)]


class TestEventPooling:
    @pytest.mark.parametrize("kernel,stride", [(2, 2), (3, 1), (2, 1)])
    def test_max_pool_matches_dense_windowed_min(self, kernel, stride):
        from repro.engine.executor import pool_times

        rng = np.random.default_rng(11)
        times = rng.integers(-1, WINDOW + 1, size=(2, 3, 6, 6))
        stream = EventStream.from_dense(times, WINDOW)

        class Spec:
            kind = "maxpool"
        Spec.kernel_size, Spec.stride = kernel, stride
        dense = pool_times(Spec, SpikeTrain(times, WINDOW))
        pooled = stream.max_pool2d(kernel, stride)
        assert np.array_equal(pooled.to_dense(), dense.times)

    def test_max_pool_of_silent_stream_is_silent(self):
        stream = EventStream.empty((1, 1, 4, 4), WINDOW)
        pooled = stream.max_pool2d(2, 2)
        assert pooled.shape == (1, 1, 2, 2)
        assert pooled.num_events == 0
