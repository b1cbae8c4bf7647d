"""Image-sliced primitives: bitwise equal to the whole-batch call.

:func:`repro.threads.map_images` runs the dense conv map, spike-time
encoding, spike decoding and time-domain max pooling over image slices
on a thread pool.  None of that may be observable: each primitive, and
every registered scheme end to end, must give the same bits at one
thread (inline) and at two (sliced).  The conv GEMM only splits when
BLAS runs on one thread, so these tests pretend it does.
"""

import multiprocessing
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import threads
from repro.cat import Base2Kernel
from repro.cat.convert import LayerSpec
from repro.engine import (
    ParallelRunner,
    PipelineRunner,
    SchemeSpec,
    available_schemes,
    create_scheme,
    executor,
    register_scheme,
)
from repro.engine.registry import SCHEMES
from repro.events import NO_SPIKE
from repro.snn.spikes import SpikeTrain

from .test_parallel_parity import assert_results_identical

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)


@pytest.fixture(autouse=True)
def most_slices(monkeypatch):
    """Split into as many slices as a call allows (the hardest case for
    bitwise parity), and let the conv GEMM split whatever BLAS this
    host runs."""
    monkeypatch.setattr(threads, "blas_threads", lambda: 1)
    monkeypatch.setattr(threads, "MIN_SLICE_ELEMENTS", 1)
    yield
    threads.set_threads(None)


@contextmanager
def pool_threads(n):
    threads.set_threads(n)
    try:
        yield
    finally:
        threads.set_threads(None)


def inline_and_sliced(fn, *args):
    with pool_threads(1):
        whole = fn(*args)
    with pool_threads(2):
        sliced = fn(*args)
    return whole, sliced


def assert_bitwise(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert np.array_equal(a, b, equal_nan=True)


def conv_spec(rng, c_in, c_out, kernel, stride, padding):
    spec = LayerSpec(kind="conv", kernel_size=kernel, stride=stride,
                     padding=padding)
    spec.weight = rng.standard_normal(
        (c_out, c_in, kernel, kernel)).astype(np.float32)
    spec.bias = rng.standard_normal(c_out).astype(np.float32)
    return spec


def spike_times(rng, shape, window=24):
    times = rng.integers(0, window + 1, size=shape)
    times[rng.random(shape) < 0.4] = NO_SPIKE
    return times.astype(np.int64)


def slice_sizes(x, unit=1):
    sizes = []

    def fn(s):
        sizes.append(len(s))
        return s * 2

    with pool_threads(2):
        out = threads.map_images(fn, x, x.shape, x.dtype, unit=unit)
    assert np.array_equal(out, x * 2)
    return sorted(sizes)


class TestMapImages:
    def test_fills_every_slice_in_order(self):
        x = np.arange(33 * 2, dtype=np.float64).reshape(33, 2)
        assert slice_sizes(x) == [4, 4, 4, 4, 4, 4, 4, 5]
        assert slice_sizes(x, unit=5) == [3, 5, 5, 5, 5, 5, 5]

    def test_slices_keep_a_minimum_size(self, monkeypatch):
        monkeypatch.setattr(threads, "MIN_SLICE_ELEMENTS", 100)
        # 33 x 10 elements: three slices of at least 100; 33 x 5 makes
        # only one, which runs inline
        assert slice_sizes(np.ones((33, 10))) == [11, 11, 11]
        assert slice_sizes(np.ones((33, 5))) == [33]

    def test_inline_with_one_thread_or_image(self):
        x = np.ones((5, 3))
        seen = []

        def fn(s):
            seen.append(np.shape(s))
            return s

        with pool_threads(1):
            assert threads.map_images(fn, x, x.shape, np.float64) is x
        with pool_threads(2):
            threads.map_images(fn, x[:1], (1, 3), np.float64)
            threads.map_images(fn, np.float64(2.0), (), np.float64)
        assert seen == [(5, 3), (1, 3), ()]

    def test_gemm_stays_whole_under_threaded_blas(self, monkeypatch):
        monkeypatch.setattr(threads, "blas_threads", lambda: 2)
        seen = []
        with pool_threads(2):
            threads.map_images(lambda s: seen.append(len(s)) or s,
                               np.ones((8, 2)), (8, 2), np.float64,
                               blas=True)
        assert seen == [8]

    def test_slice_errors_reach_the_caller(self):
        def fn(s):
            raise ValueError("bad slice")

        with pool_threads(2), pytest.raises(ValueError, match="bad slice"):
            threads.map_images(fn, np.ones((4, 2)), (4, 2), np.float64)

    def test_concurrent_callers_share_the_pool(self):
        # several batcher-like threads (more than cores) slicing at
        # once through one pool, with frequent thread switches: every
        # caller must get exactly its own result
        def caller(seed):
            rng = np.random.default_rng(seed)
            for _ in range(20):
                x = rng.random((int(rng.integers(2, 40)), 5))
                out = threads.map_images(lambda s: s * 3.0 + seed, x,
                                         x.shape, np.float64)
                if not np.array_equal(out, x * 3.0 + seed):
                    return False
            return True

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with pool_threads(2), ThreadPoolExecutor(6) as callers:
                futures = [callers.submit(caller, seed)
                           for seed in range(6)]
                assert all(f.result(timeout=60) for f in futures)
        finally:
            sys.setswitchinterval(interval)

    def test_set_threads_rejects_zero(self):
        with pytest.raises(ValueError):
            threads.set_threads(0)


class TestRunConcurrently:
    def test_results_in_order_on_and_off_the_pool(self):
        calls = [lambda: 1, lambda: threading.current_thread().name,
                 lambda: 3]
        with pool_threads(1):
            assert threads.run_concurrently(*calls) == \
                [1, threading.current_thread().name, 3]
        with pool_threads(2):
            first, name, last = threads.run_concurrently(*calls)
        assert (first, last) == (1, 3)
        assert name.startswith("repro-images")

    def test_errors_reach_the_caller(self):
        def fail():
            raise ValueError("bad call")

        for n in (1, 2):
            with pool_threads(n), pytest.raises(ValueError,
                                                match="bad call"):
                threads.run_concurrently(lambda: 1, fail)


class TestSlicedPrimitives:
    @PROPERTY
    @given(batch=st.integers(2, 33), c_in=st.integers(1, 4),
           c_out=st.integers(1, 8), size=st.integers(3, 9),
           kernel=st.sampled_from([1, 2, 3]), stride=st.integers(1, 2),
           padding=st.integers(0, 1), bias=st.booleans(),
           seed=st.integers(0, 2**16))
    def test_conv_affine(self, batch, c_in, c_out, size, kernel, stride,
                         padding, bias, seed):
        rng = np.random.default_rng(seed)
        spec = conv_spec(rng, c_in, c_out, kernel, stride, padding)
        x = rng.random((batch, c_in, size, size))
        x[x < 0.3] = 0.0            # spike-train sparsity
        whole, sliced = inline_and_sliced(executor.affine, spec, x, bias)
        assert_bitwise(whole, sliced)

    @PROPERTY
    @given(batch=st.integers(2, 33), shape=st.tuples(
               st.integers(1, 4), st.integers(1, 6), st.integers(1, 6)),
           window=st.one_of(st.none(), st.integers(0, 32)),
           theta0=st.floats(0.25, 4.0), seed=st.integers(0, 2**16))
    def test_spike_time(self, batch, shape, window, theta0, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((batch, *shape)) * 2.0
        x.flat[::7] = 0.0
        kernel = Base2Kernel(tau=4.0)
        whole, sliced = inline_and_sliced(kernel.spike_time, x, theta0,
                                          window)
        assert_bitwise(whole, sliced)

    @PROPERTY
    @given(batch=st.integers(2, 33), shape=st.tuples(
               st.integers(1, 4), st.integers(1, 6), st.integers(1, 6)),
           theta0=st.floats(0.25, 4.0), seed=st.integers(0, 2**16))
    def test_decode(self, batch, shape, theta0, seed):
        rng = np.random.default_rng(seed)
        times = spike_times(rng, (batch, *shape))
        kernel = Base2Kernel(tau=4.0)
        whole, sliced = inline_and_sliced(kernel.decode, times, theta0)
        assert_bitwise(whole, sliced)

    @PROPERTY
    @given(batch=st.integers(2, 33), channels=st.integers(1, 4),
           size=st.integers(2, 9),
           window=st.sampled_from([(2, 2), (3, 1), (2, 1), (3, 2)]),
           seed=st.integers(0, 2**16))
    def test_pool_times(self, batch, channels, size, window, seed):
        kernel, stride = window
        if size < kernel:
            size = kernel
        rng = np.random.default_rng(seed)
        spec = LayerSpec(kind="maxpool", kernel_size=kernel, stride=stride)
        train = SpikeTrain(spike_times(rng, (batch, channels, size, size)),
                           24)
        whole, sliced = inline_and_sliced(
            lambda: executor.pool_times(spec, train).times)
        assert_bitwise(whole, sliced)


class TestSchemesAcrossThreadCounts:
    @pytest.mark.parametrize("name", sorted(available_schemes()))
    @pytest.mark.parametrize("backend", ["dense", "event"])
    def test_identical_at_one_and_two_threads(self, name, backend,
                                              converted_micro, tiny_dataset):
        x = tiny_dataset.test_x[:9]
        scheme = create_scheme(name, converted_micro, backend=backend)
        whole, sliced = inline_and_sliced(scheme.run, x)
        assert_results_identical(whole, sliced)


def _reporting_scheme(snn, **options):
    """ttfs-closed-form whose results carry the engine's thread count."""
    scheme = create_scheme("ttfs-closed-form", snn, **options)
    run = scheme.run

    def reporting_run(images):
        result = run(images)
        result.engine_threads = threads.thread_count()
        result.pid = os.getpid()
        return result

    scheme.run = reporting_run
    return scheme


def _sliced_sum_in_child(n):
    threads.set_threads(2)
    out = threads.map_images(lambda s: s + 1.0, np.zeros((n, 3)), (n, 3),
                             np.float64)
    return float(out.sum())


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="needs the fork start method")
class TestForkSafety:
    def test_forked_child_gets_a_fresh_pool(self):
        # the parent's pool threads do not survive fork; a child that
        # reused the dead executor would wait forever
        with pool_threads(2):
            _sliced_sum_in_child(16)
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(1) as pool:
            assert pool.apply_async(_sliced_sum_in_child,
                                    (16,)).get(timeout=60) == 48.0

    def test_parallel_runner_after_a_threaded_batch(self, converted_micro,
                                                    tiny_dataset):
        x = tiny_dataset.test_x[:8]
        serial = PipelineRunner(create_scheme("ttfs-closed-form",
                                              converted_micro),
                                max_batch=3).run(x)
        register_scheme("test-thread-report", _reporting_scheme)
        try:
            with pool_threads(2):
                threaded = create_scheme("test-thread-report",
                                         converted_micro).run(x)
                assert threaded.engine_threads == 2
                with ParallelRunner(SchemeSpec("test-thread-report",
                                               converted_micro),
                                    max_batch=3, workers=2,
                                    start_method="fork") as runner:
                    chunks = list(runner.stream(x))
                    merged = runner.scheme.merge(chunks)
        finally:
            SCHEMES.unregister("test-thread-report")
        assert all(c.engine_threads == 1 for c in chunks)
        assert all(c.pid != os.getpid() for c in chunks)
        assert_results_identical(serial, merged)
