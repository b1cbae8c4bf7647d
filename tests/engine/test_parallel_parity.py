"""Serial vs sweep fan-out: bit-identical for every scheme.

:func:`~repro.engine.sweep.run_chunks` cuts the same chunks the serial
:class:`~repro.engine.PipelineRunner` produces, runs the ones a cache
misses concurrently on the shared thread pool, all on one scheme
instance, and :func:`~repro.engine.run_sweep` folds them through the
same ``merge``.  Nothing about that may be observable: predictions,
outputs, spike counts, SOPs and merged traces must match the serial
runner exactly (not approximately).
"""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro import threads
from repro.cat import kernels
from repro.engine import (
    PipelineRunner,
    PlanSet,
    ResultCache,
    SweepGrid,
    available_schemes,
    create_scheme,
    register_scheme,
    result_predictions,
    run_sweep,
)
from repro.engine.registry import SCHEMES
from repro.engine.sweep import run_chunks
from repro.tensor import conv

#: ``ttfs-timestep`` is an alias: the sweep builds it by name as well.
ALL_SCHEMES = ("ttfs-closed-form", "ttfs-timestep", "ttfs-early", "rate",
               "fixed-point")

#: Aggregate fields compared exactly when a result type carries them.
SCALAR_FIELDS = ("total_spikes", "total_sops", "window", "num_stages",
                 "early_firing", "timesteps", "spikes_per_layer",
                 "neurons_per_layer", "max_membrane_drift")
ARRAY_FIELDS = ("output", "reference_predictions")

#: The report fields a sweep point's result decides.
POINT_RESULTS = ("scheme", "window", "max_batch", "num_images", "accuracy",
                 "total_spikes", "total_sops")


def assert_results_identical(serial, parallel):
    assert type(parallel) is type(serial)
    assert np.array_equal(result_predictions(serial),
                          result_predictions(parallel))
    for name in ARRAY_FIELDS:
        if hasattr(serial, name):
            assert np.array_equal(getattr(serial, name),
                                  getattr(parallel, name)), name
    for name in SCALAR_FIELDS:
        if hasattr(serial, name):
            assert getattr(serial, name) == getattr(parallel, name), name
    for ts, tp in zip(getattr(serial, "traces", []),
                      getattr(parallel, "traces", [])):
        assert (ts.name, ts.input_spikes, ts.output_spikes, ts.neurons,
                ts.sops) == (tp.name, tp.input_spikes, tp.output_spikes,
                             tp.neurons, tp.sops)
        assert (ts.membrane is None) == (tp.membrane is None)
        if ts.membrane is not None:
            assert np.array_equal(ts.membrane, tp.membrane)


@pytest.fixture(autouse=True)
def fan_out(monkeypatch):
    """Two pool threads, and the chunk fan-out allowed whatever BLAS this
    host runs (it splits only under a one-thread BLAS)."""
    monkeypatch.setattr(threads, "blas_threads", lambda: 1)
    threads.set_threads(2)
    yield
    threads.set_threads(None)


def fanned(scheme, images, max_batch):
    """``scheme`` over ``images`` as a ``workers=2`` sweep point runs it."""
    results = run_chunks(scheme, images, max_batch, fan_out=True)
    return results[0] if len(results) == 1 else scheme.merge(results)


@pytest.fixture()
def thread_reporting():
    """Register ``test-thread-report``: ttfs-closed-form recording the
    thread each chunk ran on."""
    seen = []

    def build(snn, **options):
        scheme = create_scheme("ttfs-closed-form", snn, **options)
        run = scheme.run

        def reporting_run(images):
            seen.append(threading.current_thread().name)
            return run(images)

        scheme.run = reporting_run
        return scheme

    register_scheme("test-thread-report", build)
    try:
        yield seen
    finally:
        SCHEMES.unregister("test-thread-report")


class TestParallelParity:
    @pytest.mark.parametrize("name", ALL_SCHEMES)
    def test_matches_serial_two_workers(self, name, converted_micro,
                                        tiny_dataset):
        x = tiny_dataset.test_x[:8]  # 3 uneven chunks at max_batch=3
        serial = PipelineRunner(create_scheme(name, converted_micro),
                                max_batch=3).run(x)
        parallel = fanned(create_scheme(name, converted_micro), x, 3)
        assert_results_identical(serial, parallel)

    def test_single_worker_is_in_process(self, converted_micro,
                                         tiny_dataset, thread_reporting):
        x = tiny_dataset.test_x[:6]
        grid = SweepGrid(("test-thread-report",),
                         (converted_micro.config.window,), (2,))
        run_sweep(converted_micro, grid, x, workers=1)
        assert thread_reporting == [threading.current_thread().name] * 3
        thread_reporting.clear()
        run_sweep(converted_micro, grid, x, workers=2)
        assert len(thread_reporting) == 3
        assert all(name.startswith("repro-images")
                   for name in thread_reporting)

    def test_merged_traces_match_serial(self, converted_micro,
                                        tiny_dataset):
        x = tiny_dataset.test_x[:6]
        serial = PipelineRunner(
            create_scheme("ttfs-closed-form", converted_micro,
                          record_membranes=True), max_batch=2).run(x)
        parallel = fanned(create_scheme("ttfs-closed-form", converted_micro,
                                        record_membranes=True), x, 2)
        assert any(t.membrane is not None for t in parallel.traces)
        assert_results_identical(serial, parallel)

    def test_accuracy_matches_serial(self, converted_micro, tiny_dataset):
        x, y = tiny_dataset.test_x[:10], tiny_dataset.test_y[:10]
        serial = PipelineRunner(create_scheme("ttfs-closed-form",
                                              converted_micro),
                                max_batch=4).accuracy(x, y)
        grid = SweepGrid(("ttfs-closed-form",),
                         (converted_micro.config.window,), (4,))
        report = run_sweep(converted_micro, grid, x, y, workers=2)
        assert report["points"][0]["accuracy"] == pytest.approx(serial)


class TestSweepFanOut:
    @pytest.mark.parametrize("name", sorted(available_schemes()))
    @pytest.mark.parametrize("backend", ["dense", "event"])
    def test_cold_scheme_matches_serial(self, name, backend,
                                        converted_micro, tiny_dataset):
        # every lazily filled cache starts empty, so the chunks race to
        # fill them: event plans, the fire table, the unfold index
        x = tiny_dataset.test_x[:9]
        kernels.fire_table.cache_clear()
        conv._tap_index.cache_clear()
        parallel = fanned(create_scheme(name, converted_micro,
                                        backend=backend), x, 2)
        serial = PipelineRunner(create_scheme(name, converted_micro,
                                              backend=backend),
                                max_batch=2).run(x)
        assert_results_identical(serial, parallel)

    def test_plans_compile_once_under_contention(self, converted_micro,
                                                 monkeypatch):
        # more callers than cores, switching every microsecond: an
        # unguarded check-then-compile would compile a layer twice and
        # hand callers different plans
        compiled = []
        compile_plan = PlanSet.compile

        def counting(spec, weight_index, in_hw=()):
            compiled.append(weight_index)
            return compile_plan(spec, weight_index, in_hw)

        monkeypatch.setattr(PlanSet, "compile", staticmethod(counting))
        plans = PlanSet()
        specs = converted_micro.weight_layers
        shapes = [(1, 3, 8, 8) if spec.kind == "conv" else (1, 1)
                  for spec in specs]

        start = threading.Barrier(8)

        def caller(_):
            start.wait(timeout=60)
            return [plans.plan_for(spec, i, shape) for i, (spec, shape)
                    in enumerate(zip(specs, shapes))]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(8) as callers:
                seen = [f.result(timeout=60) for f in
                        [callers.submit(caller, n) for n in range(8)]]
        finally:
            sys.setswitchinterval(interval)
        assert sorted(compiled) == list(range(len(specs)))
        for got in seen:
            assert all(a is b for a, b in zip(got, seen[0]))

    def test_chunks_come_back_in_order(self, converted_micro, tiny_dataset):
        x = tiny_dataset.test_x[:9]
        scheme = create_scheme("ttfs-closed-form", converted_micro)
        results = run_chunks(scheme, x, 4, fan_out=True)
        assert [len(r.output) for r in results] == [4, 4, 1]
        for result, start in zip(results, (0, 4, 8)):
            alone = scheme.run(x[start:start + 4])
            assert np.array_equal(result.output, alone.output)

    def test_points_equal_across_worker_counts(self, converted_micro,
                                               tiny_dataset, tmp_path):
        x, y = tiny_dataset.test_x[:10], tiny_dataset.test_y[:10]
        grid = SweepGrid(("ttfs-closed-form", "rate"), (6, 12), (3,))

        def points(report):
            return [{k: p[k] for k in POINT_RESULTS}
                    for p in report["points"]]

        one = run_sweep(converted_micro, grid, x, y, workers=1)
        two = run_sweep(converted_micro, grid, x, y, workers=2,
                        cache=ResultCache(tmp_path))
        assert points(one) == points(two)
        assert two["cache"] == {"hits": 0, "misses": 16}
        # the fanned-out chunks were stored: a serial re-run replays them
        replay = run_sweep(converted_micro, grid, x, y, workers=1,
                           cache=ResultCache(tmp_path))
        assert replay["cache"] == {"hits": 16, "misses": 0}
        assert points(replay) == points(one)

    def test_invalid_arguments(self, converted_micro, tiny_dataset):
        grid = SweepGrid(("ttfs-closed-form",), (6,), (4,))
        with pytest.raises(ValueError, match="workers"):
            run_sweep(converted_micro, grid, tiny_dataset.test_x[:4],
                      workers=0)
        with pytest.raises(ValueError, match="empty"):
            run_sweep(converted_micro, grid, tiny_dataset.test_x[:0],
                      workers=2)
