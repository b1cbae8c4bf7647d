"""Process-parallel sharded execution of pipeline chunks.

:class:`~repro.engine.runner.PipelineRunner` bounds memory by chunking a
batch, but runs the chunks serially on one core.  The chunks are
independent by construction — each is a pure function of (weights,
scheme config, images) — so :class:`ParallelRunner` shards them across a
``multiprocessing`` pool instead.

Coding schemes hold live state a worker cannot share (e.g. the
fixed-point scheme keys its quantised weights by ``id(spec)``), so the
pool does not ship scheme objects.  Each worker receives one picklable
:class:`SchemeSpec` — (scheme name, converted network, factory options)
— and rebuilds the scheme through the registry at start-up; tasks then
carry only the image chunks and results.  Chunk boundaries come from the
same :func:`~repro.engine.runner.chunk_bounds` the serial runner uses
and results fold through the same ``scheme.merge``/``merge_traces``, so
parallel execution is bit-identical to serial (asserted by
``tests/engine/test_parallel_parity.py``).

An optional :class:`~repro.engine.cache.ResultCache` short-circuits
chunks whose (weights, config, inputs) digest has been executed before;
only cache misses reach the pool.

The usual :mod:`multiprocessing` caveat applies on platforms without
``fork`` (the ``spawn`` start method re-imports the main module):
scripts driving a ``ParallelRunner`` need the standard
``if __name__ == "__main__":`` guard.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

import numpy as np

from ..obs import get_registry
from ..threads import set_threads
from .cache import ResultCache, run_key, scheme_digest
from .executor import validate_backend
from .registry import create_scheme
from .runner import chunk_bounds, run_recorded, streamed_accuracy


@dataclass
class SchemeSpec:
    """Picklable recipe for rebuilding a coding scheme in any process.

    ``build()`` goes through the registry, so every registered scheme —
    builtin or plugin — can run under the parallel runner without being
    picklable itself.  ``backend`` is applied as an attribute *after*
    construction (mirroring :class:`~repro.engine.runner.PipelineRunner`
    semantics), not passed to the factory — so custom factories that
    know nothing about backends still build and simply ignore it.
    """

    name: str
    snn: Any
    options: Dict[str, Any] = field(default_factory=dict)
    backend: Optional[str] = None

    def __post_init__(self):
        if self.backend is not None:
            # fail at spec construction, like every other backend entry
            # point — a typo must not silently run the dense path
            validate_backend(self.backend)

    def build(self):
        scheme = create_scheme(self.name, self.snn, **self.options)
        if (self.backend is not None
                and getattr(scheme, "backend", self.backend)
                != self.backend):
            scheme.backend = self.backend
        return scheme


# ----------------------------------------------------------------------
# Picklable-spec worker bootstrap
#
# The pattern every process-parallel layer in the package shares: ship a
# small picklable *spec* to each worker, build the heavy live object
# (scheme, inference session, ...) exactly once per process via the pool
# initializer, and let tasks reach it through ``worker_state()``.  The
# serving fleet (:mod:`repro.serve.pool`) reuses these hooks with its
# own ``SessionSpec``.
# ----------------------------------------------------------------------

# Per-worker live object, built once by the pool initializer.
_WORKER_STATE = None


def init_worker_state(spec) -> None:
    """Pool initializer: build ``spec`` (anything with ``.build()``).

    Also pins the engine's image-slicing pool to one thread: the pool's
    processes already occupy the cores, and N processes each splitting
    across N threads would only contend.
    """
    global _WORKER_STATE
    set_threads(1)
    _WORKER_STATE = spec.build()


def worker_state():
    """The live object :func:`init_worker_state` built in this process."""
    if _WORKER_STATE is None:
        raise RuntimeError(
            "no worker state in this process — the pool must be created "
            "with initializer=init_worker_state, initargs=(spec,)")
    return _WORKER_STATE


def worker_ready() -> bool:
    """Cheap readiness probe: did this worker's initializer succeed?"""
    return worker_state() is not None


def _run_chunk(chunk: np.ndarray):
    """Pool task: run one chunk, piggyback this worker's telemetry delta.

    The delta is ``snapshot(reset=True)`` of the worker's registry —
    whatever the chunk recorded since the previous task — so the parent
    can fold worker-side counters into its own registry without a side
    channel.  ``None`` when the worker registry is disabled, which keeps
    the payload free under a :class:`~repro.obs.NullRegistry`.
    """
    registry = get_registry()
    result = run_recorded(worker_state(), chunk, registry)
    return result, (registry.snapshot(reset=True) if registry.enabled
                    else None)


class ParallelRunner:
    """Run a coding scheme over ``max_batch`` chunks on a worker pool.

    Mirrors :class:`~repro.engine.runner.PipelineRunner`'s interface
    (``stream`` / ``run`` / ``accuracy``) and its chunking exactly.
    ``workers=1`` degrades to in-process execution (no pool); higher
    counts fan the chunks out with ``Pool.map``, which preserves chunk
    order.  The pool is created lazily on first use and reused across
    calls; use the runner as a context manager (or call ``close``) to
    release the workers deterministically.  ``max_batch`` may be
    reassigned between calls (chunking is read per call) — the sweep
    orchestrator does this to keep one warm pool across a batch axis.
    """

    def __init__(self, spec: SchemeSpec, max_batch: int = 64,
                 workers: Optional[int] = None,
                 cache: Optional[ResultCache] = None,
                 start_method: Optional[str] = None,
                 backend: Optional[str] = None):
        if not isinstance(spec, SchemeSpec):
            raise TypeError(
                "ParallelRunner takes a SchemeSpec (workers rebuild the "
                "scheme), not a live scheme instance; wrap it as "
                "SchemeSpec(name, snn, options)")
        if backend is not None:
            # a fresh spec copy, so the override never mutates the
            # caller's object; workers apply it on rebuild
            spec = SchemeSpec(spec.name, spec.snn, dict(spec.options),
                              backend=validate_backend(backend))
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if workers is None:
            workers = os.cpu_count() or 1
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.spec = spec
        self.max_batch = max_batch
        self.workers = workers
        self.cache = cache
        # None = the interpreter's platform default (fork on Linux up to
        # 3.13, forkserver/spawn where fork-with-threads is hazardous).
        # Pass start_method= explicitly to override, e.g. "spawn" on a
        # heavily threaded host.
        self.start_method = start_method
        self._scheme = None      # parent-side instance: merge + serial path
        self._scheme_key: Optional[str] = None
        self._pool = None

    # ------------------------------------------------------------------
    @property
    def scheme(self):
        if self._scheme is None:
            self._scheme = self.spec.build()
        return self._scheme

    @property
    def scheme_key(self) -> str:
        """Content digest of the scheme (memoised; hashes the weights)."""
        if self._scheme_key is None:
            options = self.spec.options
            if self.spec.backend is not None:
                # the backend shapes execution, so cached chunk results
                # must key on it like any other scheme option
                options = {**options, "backend": self.spec.backend}
            self._scheme_key = scheme_digest(self.spec.name, self.spec.snn,
                                             options)
        return self._scheme_key

    def chunk_bounds(self, n: int) -> Iterator[tuple]:
        return chunk_bounds(n, self.max_batch)

    # ------------------------------------------------------------------
    def _ensure_pool(self):
        if self._pool is None:
            ctx = multiprocessing.get_context(self.start_method)
            self._pool = ctx.Pool(self.workers,
                                  initializer=init_worker_state,
                                  initargs=(self.spec,))
        return self._pool

    def _execute(self, chunks: List[np.ndarray]) -> List[Any]:
        """Run cache-missed chunks, parallel when it can pay off."""
        if not chunks:
            return []
        registry = get_registry()
        if self.workers == 1 or len(chunks) == 1:
            return [run_recorded(self.scheme, chunk, registry)
                    for chunk in chunks]
        pairs = self._ensure_pool().map(_run_chunk, chunks)
        for _, delta in pairs:
            if delta is not None:
                registry.merge(delta)
        return [result for result, _ in pairs]

    # ------------------------------------------------------------------
    def stream(self, images: np.ndarray) -> Iterator[Any]:
        """Yield one scheme result per chunk, in chunk order.

        Unlike the serial runner's lazy generator this executes the whole
        batch up front (the pool wants all misses at once), then yields.
        """
        images = np.asarray(images)
        bounds = list(self.chunk_bounds(len(images)))
        results: List[Optional[Any]] = [None] * len(bounds)
        miss_idx: List[int] = []
        miss_keys: List[Optional[str]] = []
        registry = get_registry()
        hits = 0
        for i, (start, stop) in enumerate(bounds):
            chunk = images[start:stop]
            if self.cache is not None:
                key = run_key(self.scheme_key, chunk)
                hit = self.cache.get(key)
                if hit is not None:
                    results[i] = hit
                    hits += 1
                    continue
                miss_keys.append(key)
            else:
                miss_keys.append(None)
            miss_idx.append(i)
        if self.cache is not None and registry.enabled:
            if hits:
                registry.counter(
                    "repro_engine_cache_hits_total",
                    "Result-cache hits (chunks not re-simulated)").inc(hits)
            if miss_idx:
                registry.counter(
                    "repro_engine_cache_misses_total",
                    "Result-cache misses (chunks executed)").inc(
                        len(miss_idx))
        computed = self._execute([images[slice(*bounds[i])]
                                  for i in miss_idx])
        for i, key, result in zip(miss_idx, miss_keys, computed):
            results[i] = result
            if self.cache is not None and key is not None:
                self.cache.put(key, result)
        yield from results

    def run(self, images: np.ndarray) -> Any:
        """Simulate the whole batch; returns one aggregated result."""
        results = list(self.stream(images))
        if not results:
            raise ValueError("empty image batch")
        if len(results) == 1:
            return results[0]
        return self.scheme.merge(results)

    def accuracy(self, images: np.ndarray, labels: np.ndarray) -> float:
        """Top-1 accuracy over the sharded (and possibly cached) stream."""
        images = np.asarray(images)
        labels = np.asarray(labels)
        return streamed_accuracy(self.stream(images),
                                 self.chunk_bounds(len(images)),
                                 images, labels)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None

    def __enter__(self) -> "ParallelRunner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):
        try:
            self.close()
        except Exception:
            pass
