"""The dense closed-form TTFS primitives, bitwise against their oracles.

Table decode, in-place spike times, the unsigned max-pool and the fused
conv layer (:func:`repro.engine.executor.integrate_fire_conv`) each
replace a plainer formulation kept in :mod:`.closed_form_oracle`.  Each
must give the same bits, at one thread and at two.
"""

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import threads
from repro.buckets import BOUNDARY_MARGIN, FALLBACK, signed_keys
from repro.cat import Base2Kernel, CATConfig, convert
from repro.cat import kernels as kernels_module
from repro.cat.convert import LayerSpec
from repro.cat.kernels import FIRE_KEY_BITS, GRID_SNAP_TOL, fire_table
from repro.engine import create_scheme, executor
from repro.events import NO_SPIKE
from repro.nn import init as nninit, vgg16
from repro.snn.spikes import SpikeTrain

from . import closed_form_oracle as oracle
from .test_threads import assert_bitwise, conv_spec, pool_threads, spike_times

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)
WINDOW = 24
KERNELS = [Base2Kernel(tau=4.0), Base2Kernel(tau=2.0), Base2Kernel(tau=8.0),
           Base2Kernel(tau=4.0, base=np.e)]
THETAS = [1.0, 0.5, 3.7]


@contextmanager
def most_slices():
    """Let every call split into as many slices as it allows, conv GEMMs
    included, whatever BLAS this host runs."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(threads, "blas_threads", lambda: 1)
        patch.setattr(threads, "MIN_SLICE_ELEMENTS", 1)
        yield


def on_grid(kernel, theta0, window=WINDOW):
    return theta0 * kernel.value(np.arange(window + 1))


class TestTableDecode:
    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("theta0", THETAS)
    def test_every_time_at_every_offset(self, kernel, theta0):
        # the formula may round differently in vectorised and tail
        # loops; the table must equal it wherever a time sits
        for t in range(-1, 2 * WINDOW + 1):
            for length in range(1, 65):
                times = np.full(length, t, dtype=np.int64)
                assert_bitwise(kernel.decode(times, theta0),
                               oracle.decode(kernel, times, theta0))

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_mixed_times_and_dtypes(self, kernel):
        rng = np.random.default_rng(0)
        for length in range(1, 65):
            times = rng.integers(-1, 2 * WINDOW + 1, size=length)
            for dtype in (np.int64, np.int32, np.int16):
                assert_bitwise(kernel.decode(times.astype(dtype), 1.5),
                               oracle.decode(kernel, times, 1.5))

    def test_invalid_and_empty_times_keep_the_formula(self):
        kernel = Base2Kernel(tau=4.0)
        for times in (np.array([-3, 0, 5]), np.array([0.0, 2.5, -1.0]),
                      np.empty(0, dtype=np.int64), np.int64(7)):
            assert_bitwise(kernel.decode(times),
                           oracle.decode(kernel, times))


def special_values(kernel, theta0):
    grid = on_grid(kernel, theta0)
    near = []
    for direction in (-np.inf, np.inf):      # 1-3 ulp either side
        v = grid
        for _ in range(3):
            v = np.nextafter(v, direction)
            near.append(v)
    tiny = np.finfo(np.float64).tiny
    specials = np.array([0.0, -0.0, -1.0, -grid[3], np.nan, np.inf, -np.inf,
                         tiny, tiny / 2, 5e-324, -5e-324, 1e-300,
                         np.finfo(np.float64).max, theta0 * 1e6])
    # log-domain offsets either side of the grid-snap tolerance
    snap = [grid * kernel.base ** (f * GRID_SNAP_TOL / kernel.tau)
            for f in (-2.0, -1.01, -0.99, -0.5, 0.5, 0.99, 1.01, 2.0)]
    return np.concatenate([grid, *near, *snap, specials, grid / 2 ** 0.5])


class TestInPlaceSpikeTime:
    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("theta0", THETAS)
    @pytest.mark.parametrize("window", [None, 0, 7, WINDOW])
    def test_grid_ulps_and_specials(self, kernel, theta0, window):
        values = special_values(kernel, theta0)
        for length in (1, 3, 8, 17, len(values)):
            for start in range(0, len(values) - length + 1, 5):
                x = values[start:start + length]
                assert_bitwise(kernel.spike_time(x, theta0, window),
                               oracle.spike_time(kernel, x, theta0, window))

    def test_float32_and_scalar_inputs(self):
        kernel = Base2Kernel(tau=4.0)
        with np.errstate(over="ignore"):
            x = special_values(kernel, 1.0).astype(np.float32)
        assert_bitwise(kernel.spike_time(x, 1.0, WINDOW),
                       oracle.spike_time(kernel, x, 1.0, WINDOW))
        for v in (0.5, 0.0, np.nan, 2.0):
            assert_bitwise(kernel.spike_time(v, 1.0, WINDOW),
                           oracle.spike_time(kernel, v, 1.0, WINDOW))

    @PROPERTY
    @given(values=st.lists(st.floats(allow_nan=True, allow_infinity=True),
                           min_size=1, max_size=40),
           window=st.one_of(st.none(), st.integers(0, 32)),
           theta0=st.floats(0.25, 4.0))
    def test_arbitrary_floats(self, values, window, theta0):
        kernel = Base2Kernel(tau=4.0)
        x = np.array(values)
        assert_bitwise(kernel.spike_time(x, theta0, window),
                       oracle.spike_time(kernel, x, theta0, window))

    def test_fire_works_in_its_buffer(self):
        kernel = Base2Kernel(tau=4.0)
        membrane = np.array([[1.0, 0.3], [-1.0, 0.0]])
        times = kernel.fire(membrane, 1.0, WINDOW)
        assert times.dtype == np.int64 and times.shape == (2, 2)
        assert times.tolist() == [[0, 7], [NO_SPIKE, NO_SPIKE]]
        assert membrane[0, 1] == 0.3   # the table reads, never writes

    @pytest.mark.parametrize("window", [-1, -5])
    def test_negative_window_never_fires(self, window):
        kernel = Base2Kernel(tau=4.0)
        x = np.array([2.0, 1.0, 0.5, 0.0, -1.0])
        assert_bitwise(kernel.spike_time(x, 1.0, window),
                       oracle.spike_time(kernel, x, 1.0, window))


def thresholds(kernel, theta0, window):
    """The membranes at which the closed form steps to time ``t``, for
    ``t`` in ``0..window`` (``0..WINDOW`` without a window)."""
    steps = np.arange((WINDOW if window is None else window) + 1)
    return theta0 * kernel.base ** (-(steps + GRID_SNAP_TOL) / kernel.tau)


def ulps_around(values, count):
    """Every float64 within ``count`` ulps of each of ``values``."""
    bits = np.asarray(values, dtype=np.float64).view(np.int64)
    return (bits[:, None] + np.arange(-count, count + 1)).ravel().view(
        np.float64)


def bucket_edges_around(values, reach=3, count=16):
    """The lower edges of the ``FIRE_KEY_BITS`` buckets within ``reach``
    of each of ``values``, and ``count`` ulps either side of each: where
    the table hands over to the formula and back."""
    shift = 64 - FIRE_KEY_BITS
    keys = signed_keys(np.asarray(values, dtype=np.float64), FIRE_KEY_BITS)
    near = (keys[:, None] + np.arange(-reach, reach + 2)).ravel()
    return ulps_around((near << shift).view(np.float64), count)


class TestFireTable:
    """The fire table stands in for the closed form bitwise: on every
    float near a threshold (where the formula decides), on the bucket
    edges where table and formula hand over, and on the specials."""

    @PROPERTY
    @given(base=st.sampled_from([2.0, np.e]), tau=st.sampled_from([2.0, 4.0, 8.0]),
           # 1e-300: the last thresholds are subnormal, so zero and the
           # subnormals fall back instead of reading NO_SPIKE
           theta0=st.sampled_from([1.0, 0.5, 3.7, 1e-3, 250.0, 1e-300]),
           window=st.sampled_from([None, 0, 24, 80]),
           threads_=st.sampled_from([1, 2]))
    def test_equals_the_formula_at_every_boundary(self, base, tau, theta0,
                                                  window, threads_):
        kernel = Base2Kernel(tau=tau, base=base)
        bounds = thresholds(kernel, theta0, window)
        values = np.concatenate([
            ulps_around(bounds, 4096),
            bucket_edges_around(bounds),
            bucket_edges_around(bounds * (1 + 2 * BOUNDARY_MARGIN)),
            bucket_edges_around(bounds * (1 - 2 * BOUNDARY_MARGIN)),
            special_values(kernel, theta0)])
        values = np.concatenate([values, -values])
        with most_slices(), pool_threads(threads_):
            got = kernel.spike_time(values, theta0, window)
        assert_bitwise(got, oracle.spike_time(kernel, values, theta0,
                                              window))

    @pytest.mark.parametrize("window", [0, 24, 80])
    def test_table_settles_all_but_the_boundary_buckets(self, window):
        kernel = Base2Kernel(tau=4.0)
        table = fire_table(kernel, 1.0, window)
        assert table.size == 1 << FIRE_KEY_BITS
        assert (table[table.size // 2:] == NO_SPIKE).all()   # negatives
        fallback = np.flatnonzero(table == FALLBACK)
        # inf/nan and 1-2 buckets per threshold; zero and the
        # subnormals lie far below the last threshold and never fire
        assert len(fallback) <= (1 << (FIRE_KEY_BITS - 12)) \
            + 2 * (window + 1)
        assert table[0] == NO_SPIKE
        settled = np.setdiff1d(np.arange(table.size // 2), fallback)
        lows = (settled.astype(np.int64) << (64 - FIRE_KEY_BITS)).view(
            np.float64)
        assert_bitwise(table[settled].astype(np.int64),
                       oracle.spike_time(kernel, lows, 1.0, window))

    def test_subnormal_thresholds_keep_zero_on_the_formula(self):
        kernel = Base2Kernel(tau=2.0)
        table = fire_table(kernel, 1e-300, 80)
        assert table[0] == FALLBACK
        tiny = np.finfo(np.float64).tiny
        values = np.concatenate([
            [0.0, 5e-324, tiny / 2, tiny],
            ulps_around(thresholds(kernel, 1e-300, 80)[-8:], 64)])
        assert_bitwise(kernel.spike_time(values, 1e-300, 80),
                       oracle.spike_time(kernel, values, 1e-300, 80))

    def test_no_table_without_a_window_or_off_its_domain(self):
        kernel = Base2Kernel(tau=4.0)
        assert fire_table(kernel, 1.0, None) is None
        for theta0 in (0.0, -1.0, np.inf, np.nan):
            assert fire_table(kernel, theta0, 24) is None
        assert fire_table(Base2Kernel(tau=4.0, base=0.5), 1.0, 24) is None
        assert fire_table(Base2Kernel(tau=-4.0), 1.0, 24) is None
        x = np.array([2.0, 1.0, 0.3, 0.0, -1.0, np.nan])
        for theta0 in (0.0, -1.0):
            assert_bitwise(kernel.spike_time(x, theta0, 24),
                           oracle.spike_time(kernel, x, theta0, 24))

    def test_few_vgg16_membranes_take_the_formula(self, monkeypatch):
        """On an untrained VGG-16 at T=24, tau=4, every fused conv layer
        settles at least 98% of its membranes from the table."""
        nninit.seed(0)
        snn = convert(vgg16(), CATConfig(window=24, tau=4))
        images = np.random.default_rng(0).random((2, 3, 32, 32),
                                                 dtype=np.float32)
        formula, layers = [], []
        fire_formula = kernels_module.fire_formula
        integrate_fire_conv = executor.integrate_fire_conv

        def count_formula(kernel, buf, theta0, window):
            formula.append(buf.size)
            return fire_formula(kernel, buf, theta0, window)

        def per_layer(spec, train, *args, **kwargs):
            formula.clear()
            times, membrane = integrate_fire_conv(spec, train, *args,
                                                  **kwargs)
            layers.append((sum(formula), times.size))
            return times, membrane

        monkeypatch.setattr(kernels_module, "fire_formula", count_formula)
        monkeypatch.setattr(executor, "integrate_fire_conv", per_layer)
        create_scheme("ttfs-closed-form", snn).run(images)
        assert len(layers) == 13
        for took, size in layers:
            assert took <= 0.02 * size


class TestUnsignedPool:
    @PROPERTY
    @given(batch=st.integers(1, 5), channels=st.integers(1, 4),
           height=st.integers(3, 11), width=st.integers(3, 11),
           kernel=st.sampled_from([2, 3]), stride=st.sampled_from([1, 2, 3]),
           dtype=st.sampled_from([np.int64, np.int32]),
           seed=st.integers(0, 2**16))
    def test_matches_the_sentinel_min(self, batch, channels, height, width,
                                      kernel, stride, dtype, seed):
        rng = np.random.default_rng(seed)
        times = spike_times(rng, (batch, channels, height, width))
        spec = LayerSpec(kind="maxpool", kernel_size=kernel, stride=stride)
        pooled = executor.pool_times(spec, SpikeTrain(times.astype(dtype),
                                                      WINDOW))
        assert_bitwise(pooled.times, oracle.pool_times(times, kernel, stride))

    def test_int32_train_keeps_its_spikes(self):
        # the int64 sentinel wrapped to -1 in int32, so an all-but-one
        # silent window used to pool to NO_SPIKE
        train = SpikeTrain(np.array([[[[-1, 3], [2, -1]]]], dtype=np.int32),
                           WINDOW)
        spec = LayerSpec(kind="maxpool", kernel_size=2, stride=2)
        assert executor.pool_times(spec, train).times.tolist() == [[[[2]]]]

    def test_spike_train_times_are_int64(self):
        train = SpikeTrain(np.array([3, NO_SPIKE], dtype=np.int32), WINDOW)
        assert train.times.dtype == np.int64
        assert train.num_spikes == 1


class TestFusedConvLayer:
    @PROPERTY
    @given(batch=st.integers(1, 33), c_in=st.integers(1, 5),
           c_out=st.integers(1, 9), size=st.integers(3, 9),
           kernel=st.sampled_from([1, 2, 3]), stride=st.integers(1, 2),
           padding=st.integers(0, 2), bias=st.booleans(),
           record=st.booleans(), theta0=st.sampled_from(THETAS),
           seed=st.integers(0, 2**16))
    def test_matches_decode_affine_pool_fire(self, batch, c_in, c_out,
                                             size, kernel, stride, padding,
                                             bias, record, theta0, seed):
        rng = np.random.default_rng(seed)
        spec = conv_spec(rng, c_in, c_out, kernel, stride, padding)
        if not bias:
            spec.bias = np.zeros_like(spec.bias)
        # a spread of membranes around the threshold grid
        spec.weight *= np.float32(0.5)
        train = SpikeTrain(spike_times(rng, (batch, c_in, size, size)),
                           WINDOW)
        ttfs = Base2Kernel(tau=4.0)
        with pool_threads(1):
            want_times, want_membrane = oracle.conv_layer(
                spec, train.times, WINDOW, ttfs, theta0)
        for n in (1, 2):
            with most_slices(), pool_threads(n):
                times, membrane = executor.integrate_fire_conv(
                    spec, train, ttfs, theta0, record)
            assert_bitwise(times, want_times)
            if record:
                assert_bitwise(membrane, want_membrane)
            else:
                assert membrane is None
