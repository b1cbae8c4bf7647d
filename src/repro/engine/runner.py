"""Batched pipeline execution: chunking, streaming, trace aggregation.

The simulators operate on whole batches; the chip operates image by
image.  :class:`PipelineRunner` bridges the two scales: it splits large
batches into ``max_batch`` chunks (bounding peak memory — the rate path
carries every time step's signal between layers), streams per-chunk
results, and folds the chunk statistics back into one result via the
scheme's ``merge``.  Spike/SOP/trace aggregation lives here, in one
place, for every coding scheme; the sweep
(:func:`~repro.engine.sweep.run_chunks`) runs the same chunks, cached
and fanned over the thread pool.
"""

from __future__ import annotations

import time
from typing import Any, Iterator, List, Optional, Sequence

import numpy as np

from ..obs import MetricsRegistry, get_registry
from .executor import CodingScheme, LayerTrace, validate_backend


def chunk_bounds(n: int, max_batch: int) -> Iterator[tuple]:
    """(start, stop) bounds splitting ``n`` items into ``max_batch`` runs.

    Shared by :class:`PipelineRunner` and the sweep's
    :func:`~repro.engine.sweep.run_chunks`, so both shard a batch
    identically (a prerequisite for bit-identical results).
    """
    for start in range(0, n, max_batch):
        yield start, min(start + max_batch, n)


def merge_traces(trace_lists: Sequence[List[LayerTrace]]) -> List[LayerTrace]:
    """Fold per-chunk layer traces into whole-batch totals.

    Spike, neuron and SOP counts sum across chunks; recorded membranes
    concatenate along the batch axis.  ``chunks`` accumulates how many
    per-chunk traces were folded in, so averaged statistics (spikes per
    image, SOPs per chunk) stay computable from a merged trace.
    """
    if not trace_lists:
        return []
    lengths = {len(traces) for traces in trace_lists}
    if len(lengths) != 1:
        raise ValueError(f"chunks produced unequal trace counts: {lengths}")
    merged: List[LayerTrace] = []
    for per_layer in zip(*trace_lists):
        names = {t.name for t in per_layer}
        if len(names) != 1:
            raise ValueError(f"chunks disagree on layer names: {names}")
        membranes = [t.membrane for t in per_layer]
        merged.append(LayerTrace(
            name=per_layer[0].name,
            input_spikes=sum(t.input_spikes for t in per_layer),
            output_spikes=sum(t.output_spikes for t in per_layer),
            neurons=sum(t.neurons for t in per_layer),
            sops=sum(t.sops for t in per_layer),
            membrane=(np.concatenate(membranes, axis=0)
                      if all(m is not None for m in membranes) else None),
            chunks=sum(t.chunks for t in per_layer),
        ))
    return merged


def record_chunk_metrics(registry: MetricsRegistry, scheme: Any,
                         num_images: int, elapsed_s: float,
                         result: Any) -> None:
    """Record one executed chunk into ``registry`` (enabled ones only).

    The single bookkeeping path behind :class:`PipelineRunner` and the
    sweep's chunks: chunks/images/time plus, when the scheme produced
    traces, per-layer spike/SOP totals.
    """
    scheme_name = type(scheme).__name__
    registry.counter(
        "repro_engine_chunks_total",
        "Simulation chunks executed").inc(1, scheme=scheme_name)
    registry.counter(
        "repro_engine_images_total",
        "Images simulated").inc(num_images, scheme=scheme_name)
    registry.histogram(
        "repro_engine_chunk_seconds",
        "Wall time of one simulated chunk").observe(
            elapsed_s, scheme=scheme_name)
    traces = getattr(result, "traces", None)
    if not traces:
        return
    spikes = registry.counter("repro_engine_layer_spikes_total",
                              "Output spikes per layer")
    sops = registry.counter("repro_engine_layer_sops_total",
                            "Synaptic operations per layer")
    for trace in traces:
        spikes.inc(int(trace.output_spikes), layer=trace.name)
        sops.inc(int(trace.sops), layer=trace.name)


def run_recorded(scheme: Any, chunk: np.ndarray,
                 registry: MetricsRegistry) -> Any:
    """``scheme.run(chunk)``, timed into ``registry`` when it is enabled.

    The one timed-run block behind :class:`PipelineRunner` and the
    sweep's chunks.
    """
    if not registry.enabled:
        return scheme.run(chunk)
    t0 = time.perf_counter()
    result = scheme.run(chunk)
    record_chunk_metrics(registry, scheme, len(chunk),
                         time.perf_counter() - t0, result)
    return result


def result_predictions(result: Any) -> np.ndarray:
    """Class predictions of any scheme result (method or array field)."""
    preds = result.predictions
    return preds() if callable(preds) else np.asarray(preds)


class PipelineRunner:
    """Run a :class:`CodingScheme` over arbitrarily large batches.

    ``max_batch`` caps the number of images simulated at once; larger
    inputs are chunked and the per-chunk results aggregated through the
    scheme's ``merge``.  ``stream`` exposes the per-chunk results for
    callers that want online consumption (progress display, per-chunk
    persistence) instead of one aggregate.  ``backend`` (``dense`` |
    ``event``) overrides the scheme's execution backend while this
    runner simulates — the scheme object itself is left as it was, so
    an override never leaks into later uses of the same instance.
    """

    def __init__(self, scheme: CodingScheme, max_batch: int = 64,
                 backend: Optional[str] = None,
                 registry: Optional[MetricsRegistry] = None):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if backend is not None:
            backend = validate_backend(backend)
        self.scheme = scheme
        self.max_batch = max_batch
        self.backend = backend
        # telemetry sink; ``None`` rebinds to the process-global registry
        # on every chunk, so a set_registry() swap takes effect live
        self.registry = registry

    # ------------------------------------------------------------------
    def chunk_bounds(self, n: int) -> Iterator[tuple]:
        return chunk_bounds(n, self.max_batch)

    def stream(self, images: np.ndarray) -> Iterator[Any]:
        """Yield one scheme result per ``max_batch`` chunk, in order."""
        images = np.asarray(images)
        for start, stop in self.chunk_bounds(len(images)):
            yield self._run_chunk(images[start:stop])

    def _run_chunk(self, chunk: np.ndarray) -> Any:
        """One chunk under the runner's backend, scheme left untouched.

        The override is applied around each individual ``run`` (not the
        whole lazy generator), so the scheme instance is always back on
        its own backend whenever control is outside this runner — even
        for partially-consumed streams or interleaved runners sharing
        one scheme.  Schemes without backend support (the ``getattr``
        default makes the comparison succeed) are run as-is.
        """
        registry = self.registry if self.registry is not None \
            else get_registry()
        swap = (self.backend is not None
                and getattr(self.scheme, "backend", self.backend)
                != self.backend)
        if swap:
            previous, self.scheme.backend = self.scheme.backend, self.backend
        try:
            return run_recorded(self.scheme, chunk, registry)
        finally:
            if swap:
                self.scheme.backend = previous

    def run(self, images: np.ndarray) -> Any:
        """Simulate the whole batch; returns one aggregated result."""
        results = list(self.stream(images))
        if not results:
            raise ValueError("empty image batch")
        if len(results) == 1:
            return results[0]
        return self.scheme.merge(results)

    # ------------------------------------------------------------------
    def accuracy(self, images: np.ndarray, labels: np.ndarray) -> float:
        """Top-1 accuracy, streamed chunk by chunk (constant memory)."""
        images = np.asarray(images)
        labels = np.asarray(labels)
        if len(images) != len(labels):
            raise ValueError(
                f"got {len(images)} images but {len(labels)} labels")
        if len(labels) == 0:
            raise ValueError("empty image batch")
        correct = 0
        for (start, stop), result in zip(self.chunk_bounds(len(images)),
                                         self.stream(images)):
            preds = result_predictions(result)
            correct += int((preds == labels[start:stop]).sum())
        return correct / len(labels)
