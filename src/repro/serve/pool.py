"""Multi-process serving fleet: N inference sessions, one bundle copy.

A single :class:`~repro.serve.session.InferenceSession` is correct but
caps throughput at one core.  :class:`WorkerPool` scales it out: a
picklable :class:`SessionSpec` is shipped to a ``multiprocessing`` pool
whose initializer (:func:`init_worker_state`) opens one session per
worker process.  Sessions open their bundle with
``mmap_mode="r"``, so the N workers share a single page-cache copy of
the weights instead of N private loads.

Request flow — one :class:`~repro.serve.batching.MicroBatcher` per
worker, exactly as the single-process server has one per session::

    submit(image) ──► least-loaded batcher ──► coalesced NCHW batch
                 ──► pool task ──► worker's session.predict ──► future

Each batcher's dispatcher thread blocks on its own in-flight pool task,
so up to ``workers`` batched dispatches run concurrently while requests
keep coalescing behind them.  Predictions are bit-identical to a single
session's (``tests/serve/test_pool.py`` pins this): workers rebuild the
same artifact, scheme and plans, and batching boundaries never change
simulator semantics.

The usual :mod:`multiprocessing` caveat applies on platforms without
``fork``: scripts constructing a ``WorkerPool`` need the standard
``if __name__ == "__main__":`` guard.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional

from ..errors import ReproError
from ..obs import get_registry
from ..threads import set_blas_threads, set_threads
from .artifact import ModelArtifact
from .batching import DEFAULT_BATCH_WAIT_S, MicroBatcher

PathLike = "os.PathLike[str]"


class WorkerPoolError(ReproError):
    """The fleet could not be started or has lost its workers."""


@dataclass
class SessionSpec:
    """Picklable recipe for opening an :class:`InferenceSession` anywhere.

    It carries only the bundle *path* plus per-session overrides, so the
    heavy state (deserialised SNN, compiled plans, warm encoder) is
    built inside each worker process by ``build()`` — never pickled.
    ``mmap`` (default on) maps the bundle's weights read-only so every
    builder of the same spec shares one resident copy.
    """

    path: str
    scheme: Optional[str] = None
    backend: Optional[str] = None
    max_batch: Optional[int] = None
    warmup: bool = True
    mmap: bool = True

    def __post_init__(self):
        self.path = os.fspath(self.path)

    def build(self):
        from .session import InferenceSession

        return InferenceSession(
            self.path, scheme=self.scheme, backend=self.backend,
            max_batch=self.max_batch, warmup=self.warmup, mmap=self.mmap)


# This worker process's session, opened once by the pool initializer.
_WORKER_STATE = None


def init_worker_state(spec: SessionSpec) -> None:
    """Pool initializer: open ``spec``'s session, with the engine's
    threads and numpy's OpenBLAS pinned to one thread (N processes each
    splitting across N threads would only contend)."""
    global _WORKER_STATE
    set_threads(1)
    set_blas_threads(1)
    _WORKER_STATE = spec.build()


def worker_state():
    """The session :func:`init_worker_state` opened in this process."""
    if _WORKER_STATE is None:
        raise RuntimeError("no session in this process: the pool needs "
                           "initializer=init_worker_state")
    return _WORKER_STATE


def worker_ready() -> bool:
    """Readiness probe: did this worker's initializer succeed?"""
    return worker_state() is not None


def _predict_in_worker(batch):
    """Pool task: one batched dispatch on this process's warm session.

    Returns ``(prediction, telemetry_delta)``: the worker's registry is
    snapshot-and-reset after each dispatch so whatever the session's
    runner recorded (chunk counts, per-layer spikes) rides the result
    pickle back to the parent, which merges it.  ``None`` delta when the
    worker's registry is disabled.
    """
    registry = get_registry()
    prediction = worker_state().predict(batch)
    if not registry.enabled:
        return prediction, None
    return prediction, registry.snapshot(reset=True)


class WorkerPool:
    """N worker processes serving one model bundle, micro-batched.

    Presents the same ``predict``/``submit``/``stats``/``close`` surface
    as a (session, batcher) pair, so the prediction server treats a
    fleet and a single in-process session uniformly.

    The bundle is integrity-checked (schema + digests) and the
    scheme/backend overrides are resolved in the *parent* before any
    worker spawns — initializer failures in children are therefore
    config-independent, and a systematically broken spec fails here,
    loudly, not as an infinite worker-respawn loop.
    """

    def __init__(self, spec: SessionSpec, workers: int = 2,
                 batch_wait_s: float = DEFAULT_BATCH_WAIT_S,
                 start_method: Optional[str] = None,
                 ready_timeout_s: float = 300.0):
        from ..engine.executor import validate_backend
        from ..engine.registry import resolve_scheme_name

        if not isinstance(spec, SessionSpec):
            spec = SessionSpec(os.fspath(spec))
        if workers < 1:
            raise ValueError("workers must be >= 1")
        # fail fast, in-parent; mapped, so the parent holds no private
        # copy of the weights while it forks the workers
        artifact = ModelArtifact.load(spec.path, mmap_mode="r")
        self.spec = spec
        self.workers = workers
        # same label the server's channel uses for this bundle, so fleet
        # metrics and /healthz speak about one model the same way
        self.label = "/".join(Path(spec.path).parts[-2:])
        self.scheme_name = resolve_scheme_name(spec.scheme
                                               or artifact.scheme)
        self.backend = validate_backend(spec.backend or artifact.backend)
        self.max_batch = int(spec.max_batch if spec.max_batch is not None
                             else artifact.max_batch)
        self.input_shape = artifact.input_shape
        ctx = multiprocessing.get_context(start_method)
        self._pool = ctx.Pool(workers, initializer=init_worker_state,
                              initargs=(spec,))
        self._closed = False
        self._lock = threading.Lock()
        try:
            # surface a broken bootstrap as an error, not a silent hang:
            # every worker must come up before the pool takes traffic
            probes = [self._pool.apply_async(worker_ready)
                      for _ in range(workers)]
            for probe in probes:
                probe.get(timeout=ready_timeout_s)
        except Exception as exc:
            self.close()
            raise WorkerPoolError(
                f"worker pool for {spec.path} failed to start "
                f"({workers} worker(s)): {exc}") from exc
        self._batchers = [
            MicroBatcher(self._dispatch, self.max_batch,
                         max_wait_s=batch_wait_s,
                         labels={"model": self.label, "worker": str(i)})
            for i in range(workers)
        ]

    # ------------------------------------------------------------------
    def _dispatch(self, batch):
        """One batched dispatch on whichever worker is free next."""
        with self._lock:
            pool = self._pool
        if pool is None:
            raise WorkerPoolError("worker pool is closed")
        prediction, delta = pool.apply_async(
            _predict_in_worker, (batch,)).get()
        if delta is not None:
            get_registry().merge(delta)
        return prediction

    def predict(self, batch):
        """Direct batched dispatch (parity tests, benchmarks)."""
        return self._dispatch(batch)

    def submit(self, image):
        """Enqueue one image on the least-loaded worker's batcher."""
        index = min(range(len(self._batchers)),
                    key=lambda i: self._batchers[i].pending)
        registry = get_registry()
        if registry.enabled:
            registry.counter(
                "repro_pool_submitted_total",
                "Images routed to a fleet worker's batcher").inc(
                    1, model=self.label, worker=str(index))
        return self._batchers[index].submit(image)

    @property
    def pending(self) -> int:
        """Images submitted across the fleet but not yet resolved."""
        return sum(b.pending for b in self._batchers)

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Fleet-level counters (the server's /healthz surfaces these)."""
        return {
            "scheme": self.scheme_name,
            "backend": self.backend,
            "max_batch": self.max_batch,
            "mmap": self.spec.mmap,
            "workers": self.workers,
            "pending": self.pending,
            "num_dispatches": sum(b.num_batches for b in self._batchers),
            "num_images": sum(b.num_items for b in self._batchers),
            "per_worker": self.per_worker_stats(),
        }

    def per_worker_stats(self) -> List[Dict[str, Any]]:
        """One dict per worker: queue depth and served counts."""
        return [
            {"worker": i, "pending": b.pending,
             "num_dispatches": b.num_batches, "num_images": b.num_items}
            for i, b in enumerate(self._batchers)
        ]

    def close(self) -> None:
        """Drain the batchers, then terminate the workers (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        # batchers drain through _dispatch, so the pool stays up until
        # every already-admitted item has resolved
        for batcher in getattr(self, "_batchers", []):
            batcher.close()
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.terminate()
            pool.join()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):
        try:
            self.close()
        except Exception:
            pass
