"""Engine telemetry: chunk/layer counters, trace chunk counts, and the
sweep's chunks recorded from the threads they ran on."""

from __future__ import annotations

from repro import threads
from repro.engine import (
    PipelineRunner,
    ResultCache,
    SweepGrid,
    run_sweep,
)
from repro.engine.executor import LayerTrace
from repro.engine.runner import merge_traces
from repro.obs import MetricsRegistry, use_registry
from repro.snn import EventDrivenTTFSNetwork


def _trace(chunks=1):
    return LayerTrace(name="conv0", input_spikes=2, output_spikes=3,
                      neurons=4, sops=8, chunks=chunks)


class TestMergedTraceChunkCounts:
    def test_chunks_default_to_one(self):
        assert _trace().chunks == 1

    def test_merge_sums_chunk_counts(self):
        merged = merge_traces([[_trace()], [_trace()], [_trace()]])
        assert merged[0].chunks == 3
        # the satellite's point: averaged metrics are computable from a
        # merged trace alone
        assert merged[0].sops / merged[0].chunks == 8.0

    def test_remerging_merged_traces_accumulates(self):
        first = merge_traces([[_trace()], [_trace()]])
        second = merge_traces([first, [_trace()]])
        assert second[0].chunks == 3


class TestRunnerInstrumentation:
    def test_serial_runner_records_chunks_images_and_layers(
            self, converted_micro, tiny_dataset):
        x = tiny_dataset.test_x[:10]
        scheme = EventDrivenTTFSNetwork(converted_micro)
        reg = MetricsRegistry()
        PipelineRunner(scheme, max_batch=4, registry=reg).run(x)
        scheme_name = type(scheme).__name__
        assert reg.value("repro_engine_chunks_total",
                         scheme=scheme_name) == 3
        assert reg.value("repro_engine_images_total",
                         scheme=scheme_name) == 10
        hist = reg.value("repro_engine_chunk_seconds", scheme=scheme_name)
        assert hist["count"] == 3
        first_layer = scheme.run(x[:1]).traces[0]
        assert reg.value("repro_engine_layer_spikes_total",
                         layer=first_layer.name) > 0

    def test_injected_registry_overrides_global(self, converted_micro,
                                                tiny_dataset):
        x = tiny_dataset.test_x[:4]
        scheme = EventDrivenTTFSNetwork(converted_micro)
        private = MetricsRegistry()
        with use_registry(MetricsRegistry()) as global_reg:
            PipelineRunner(scheme, max_batch=4, registry=private).run(x)
        assert private.value("repro_engine_chunks_total",
                             scheme=type(scheme).__name__) == 1
        assert global_reg.collect() == []

    def test_parallel_serial_fallback_records(self, converted_micro,
                                              tiny_dataset):
        # a workers=1 sweep runs its chunks one after another
        with use_registry(MetricsRegistry()) as reg:
            run_sweep(converted_micro, _grid(converted_micro, 4),
                      tiny_dataset.test_x[:8], workers=1)
        assert reg.value("repro_engine_images_total",
                         scheme="EventDrivenTTFSNetwork") == 8

    def test_fanned_out_chunks_record(self, converted_micro, tiny_dataset,
                                      monkeypatch):
        monkeypatch.setattr(threads, "blas_threads", lambda: 1)
        threads.set_threads(2)
        try:
            with use_registry(MetricsRegistry()) as reg:
                run_sweep(converted_micro, _grid(converted_micro, 2),
                          tiny_dataset.test_x[:8], workers=2)
        finally:
            threads.set_threads(None)
        # four chunks ran on the pool's threads; each recorded into the
        # process registry, which must count the whole batch
        assert reg.value("repro_engine_images_total",
                         scheme="EventDrivenTTFSNetwork") == 8
        assert reg.value("repro_engine_chunks_total",
                         scheme="EventDrivenTTFSNetwork") == 4

    def test_cache_hits_and_misses_counted(self, converted_micro,
                                           tiny_dataset, tmp_path):
        x = tiny_dataset.test_x[:8]
        cache = ResultCache(tmp_path)
        with use_registry(MetricsRegistry()) as reg:
            for _ in range(2):
                run_sweep(converted_micro, _grid(converted_micro, 4), x,
                          cache=cache, workers=1)
        assert reg.value("repro_engine_cache_misses_total") == 2
        assert reg.value("repro_engine_cache_hits_total") == 2


def _grid(snn, max_batch):
    """One ttfs-closed-form point at the network's own window."""
    return SweepGrid(("ttfs-closed-form",), (snn.config.window,),
                     (max_batch,))
