"""Serial vs process-parallel execution: bit-identical for every scheme.

The :class:`~repro.engine.parallel.ParallelRunner` shards the same
chunks the serial :class:`~repro.engine.PipelineRunner` produces, runs
them in worker processes that rebuild the scheme from a picklable spec,
and folds them through the same ``merge``.  Nothing about that may be
observable: predictions, outputs, spike counts, SOPs and merged traces
must match the serial runner exactly (not approximately).
"""

import numpy as np
import pytest

from repro import threads
from repro.engine import (
    ParallelRunner,
    PipelineRunner,
    SchemeSpec,
    create_scheme,
    result_predictions,
)

ALL_SCHEMES = ("ttfs-closed-form", "ttfs-timestep", "ttfs-early", "rate",
               "fixed-point")

#: Aggregate fields compared exactly when a result type carries them.
SCALAR_FIELDS = ("total_spikes", "total_sops", "window", "num_stages",
                 "early_firing", "timesteps", "spikes_per_layer",
                 "neurons_per_layer", "max_membrane_drift")
ARRAY_FIELDS = ("output", "reference_predictions")


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


class TestParallelParity:
    @pytest.mark.parametrize("name", ALL_SCHEMES)
    def test_matches_serial_two_workers(self, name, converted_micro,
                                        tiny_dataset):
        x = tiny_dataset.test_x[:8]  # 3 uneven chunks at max_batch=3
        serial = PipelineRunner(create_scheme(name, converted_micro),
                                max_batch=3).run(x)
        with ParallelRunner(SchemeSpec(name, converted_micro), max_batch=3,
                            workers=2) as runner:
            parallel = runner.run(x)
        assert_results_identical(serial, parallel)

    def test_single_worker_is_in_process(self, converted_micro,
                                         tiny_dataset):
        x = tiny_dataset.test_x[:6]
        spec = SchemeSpec("ttfs-closed-form", converted_micro)
        with ParallelRunner(spec, max_batch=2, workers=1) as runner:
            result = runner.run(x)
            assert runner._pool is None  # never paid for a pool
        serial = PipelineRunner(create_scheme("ttfs-closed-form",
                                              converted_micro),
                                max_batch=2).run(x)
        assert_results_identical(serial, result)

    def test_merged_traces_match_serial(self, converted_micro,
                                        tiny_dataset):
        x = tiny_dataset.test_x[:6]
        scheme = create_scheme("ttfs-closed-form", converted_micro,
                               record_membranes=True)
        serial = PipelineRunner(scheme, max_batch=2).run(x)
        spec = SchemeSpec("ttfs-closed-form", converted_micro,
                          {"record_membranes": True})
        with ParallelRunner(spec, max_batch=2, workers=2) as runner:
            parallel = runner.run(x)
        assert_results_identical(serial, parallel)

    def test_accuracy_matches_serial(self, converted_micro, tiny_dataset):
        x, y = tiny_dataset.test_x[:10], tiny_dataset.test_y[:10]
        serial = PipelineRunner(create_scheme("ttfs-closed-form",
                                              converted_micro),
                                max_batch=4).accuracy(x, y)
        with ParallelRunner(SchemeSpec("ttfs-closed-form", converted_micro),
                            max_batch=4, workers=2) as runner:
            assert runner.accuracy(x, y) == pytest.approx(serial)


class TestParallelRunnerAPI:
    def test_stream_yields_in_chunk_order(self, converted_micro,
                                          tiny_dataset):
        x = tiny_dataset.test_x[:9]
        with ParallelRunner(SchemeSpec("ttfs-closed-form", converted_micro),
                            max_batch=4, workers=2) as runner:
            sizes = [len(r.output) for r in runner.stream(x)]
        assert sizes == [4, 4, 1]

    def test_requires_scheme_spec(self, converted_micro):
        scheme = create_scheme("ttfs-closed-form", converted_micro)
        with pytest.raises(TypeError, match="SchemeSpec"):
            ParallelRunner(scheme)

    def test_invalid_parameters(self, converted_micro):
        spec = SchemeSpec("ttfs-closed-form", converted_micro)
        with pytest.raises(ValueError):
            ParallelRunner(spec, max_batch=0)
        with pytest.raises(ValueError):
            ParallelRunner(spec, workers=0)

    def test_empty_batch_rejected(self, converted_micro, tiny_dataset):
        with ParallelRunner(SchemeSpec("ttfs-closed-form", converted_micro),
                            workers=1) as runner:
            with pytest.raises(ValueError):
                runner.run(tiny_dataset.test_x[:0])

    @pytest.mark.skipif(threads.blas_threads() is None,
                        reason="no OpenBLAS mapped into the process")
    def test_workers_run_blas_on_one_thread(self, converted_micro):
        # N workers each on a multi-threaded BLAS would oversubscribe
        # the cores the pool already fills
        with ParallelRunner(SchemeSpec("ttfs-closed-form", converted_micro),
                            workers=2) as runner:
            pool = runner._ensure_pool()
            assert pool.apply(threads.blas_threads) == 1

    def test_close_is_idempotent(self, converted_micro, tiny_dataset):
        runner = ParallelRunner(SchemeSpec("ttfs-closed-form",
                                           converted_micro),
                                max_batch=2, workers=2)
        runner.run(tiny_dataset.test_x[:4])
        runner.close()
        runner.close()
        assert runner._pool is None
