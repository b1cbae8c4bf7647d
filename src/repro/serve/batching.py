"""Concurrent-request micro-batching for the prediction server.

The HTTP server handles each request on its own thread; dispatching each
one-image request straight to the simulator would forfeit the batched
engine's throughput.  :class:`MicroBatcher` sits between: request
threads ``submit`` single images and block on a future, a single
dispatcher thread takes the first queued image and every image queued
behind it, then waits at most ``max_wait_s`` for more, never exceeding
``max_batch`` — and runs one batched ``predict`` per coalesced group,
then fans the per-image results back out to the waiting futures.

Requests that arrive while a batch runs queue up and ride the next one,
so coalescing needs no wait: :data:`DEFAULT_BATCH_WAIT_S` is 0.  A
positive wait only delays a lone request: on a traced seed-0 run of
the benchmark's ``serve-http`` workload (mean batch size 1, 2-core
host), a 5 ms wait held each request 6.2 ms in the queue, and no wait
1.0 ms.

Shutdown is race-free: ``submit`` and ``close`` serialise on one lock,
so an item either lands in the queue *before* the stop sentinel (and is
served during the drain) or the submit itself fails with
:class:`BatcherClosed`.  A caller can therefore never be left holding a
future that no dispatcher will ever resolve.

``pending`` counts items submitted but not yet resolved — the admission
layer of the prediction server reads it to pick the least-loaded worker
and to shed load when every queue is full.

stdlib only: ``queue`` + ``threading`` + ``concurrent.futures.Future``.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..errors import ReproError
from ..obs import BATCH_SIZE_BUCKETS, MetricsRegistry, get_registry

#: A submitted item: the image, the future its caller blocks on, and the
#: monotonic submit time (feeds the queue-wait histogram).
_Item = Tuple[np.ndarray, Future, float]

#: Seconds the dispatcher waits for more images after draining what is
#: already queued; the default of every batcher, server and ``repro
#: serve --batch-wait-ms``.
DEFAULT_BATCH_WAIT_S = 0.0


class BatcherClosed(ReproError):
    """A submit raced (or arrived after) ``close()``; retry elsewhere."""


class MicroBatcher:
    """Coalesce concurrently-submitted images into batched predicts.

    ``predict_fn(batch)`` is called with an NCHW array and must return a
    :class:`~repro.serve.session.Prediction`-like object whose
    ``predictions[i]`` is item *i*'s class id.  Each submitted future
    resolves to ``(class_id, batch_prediction)``.
    """

    def __init__(self, predict_fn: Callable, max_batch: int,
                 max_wait_s: float = DEFAULT_BATCH_WAIT_S,
                 registry: Optional[MetricsRegistry] = None,
                 labels: Optional[Dict[str, str]] = None):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_wait_s < 0:
            raise ValueError("max_wait_s must be >= 0")
        self.predict_fn = predict_fn
        self.max_batch = max_batch
        self.max_wait_s = max_wait_s
        # telemetry sink; None rebinds to the process-global registry on
        # every dispatch.  ``labels`` tags this batcher's series (the
        # fleet passes {"model": ..., "worker": ...}).
        self.registry = registry
        self.labels = dict(labels or {})
        self.num_batches = 0
        self.num_items = 0
        self._pending = 0
        self._queue: "queue.Queue" = queue.Queue()
        self._closed = False
        self._lock = threading.Lock()
        self._thread = threading.Thread(target=self._loop, daemon=True,
                                        name="repro-microbatcher")
        self._thread.start()

    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Items submitted whose futures have not resolved yet."""
        return self._pending

    @property
    def closed(self) -> bool:
        return self._closed

    def submit(self, image: np.ndarray) -> Future:
        """Enqueue one image; returns the future of its prediction.

        The closed check and the enqueue happen under one lock shared
        with :meth:`close`, so a submit can never slip its item in
        *after* the stop sentinel: either it lands before (and will be
        served during the shutdown drain) or it raises
        :class:`BatcherClosed`.
        """
        future: Future = Future()
        item = (np.asarray(image), future, time.monotonic())
        with self._lock:
            if self._closed:
                raise BatcherClosed("MicroBatcher is closed")
            self._pending += 1
            self._queue.put(item)
        return future

    def close(self) -> None:
        """Serve already-queued work, then stop the dispatcher thread.

        Items submitted before the close are drained through
        ``predict_fn`` as usual (their futures resolve normally); a
        submit racing the close either wins the lock first (and is
        drained too) or fails cleanly with :class:`BatcherClosed`.
        Anything unexpectedly left behind after the dispatcher exits is
        failed with :class:`BatcherClosed` rather than abandoned.
        """
        with self._lock:
            if self._closed:
                self._thread.join()
                return
            self._closed = True
            self._queue.put(None)        # wake + stop sentinel
        self._thread.join()
        self._fail_stragglers()

    def _fail_stragglers(self) -> None:
        """Fail any item the dispatcher never reached (defensive)."""
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                return
            if item is None:
                continue
            _, future, _ = item
            if future.set_running_or_notify_cancel():
                future.set_exception(
                    BatcherClosed("MicroBatcher closed before dispatch"))
            with self._lock:
                self._pending -= 1

    def __enter__(self) -> "MicroBatcher":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _collect(self) -> List[_Item]:
        """Block for the first item, then take every item already
        queued and any that arrive within ``max_wait_s``; at most
        ``max_batch``."""
        first = self._queue.get()
        if first is None:
            return []
        pending = [first]
        deadline = time.monotonic() + self.max_wait_s
        while len(pending) < self.max_batch:
            remaining = deadline - time.monotonic()
            try:
                # past the deadline, still take what is already queued
                item = (self._queue.get(timeout=remaining) if remaining > 0
                        else self._queue.get_nowait())
            except queue.Empty:
                break
            if item is None:             # close() mid-coalesce: serve
                self._queue.put(None)    # what we have, re-arm the stop
                break
            pending.append(item)
        return pending

    def _loop(self) -> None:
        while True:
            pending = self._collect()
            if not pending:
                return
            t_dispatch = time.monotonic()
            try:
                # inside the try: images of different shapes must fail
                # their own batch, not kill this thread (and with it
                # every later request on the channel)
                batch = np.stack([image for image, _, _ in pending])
                result = self.predict_fn(batch)
            except Exception as exc:     # noqa: BLE001 — fan the error out
                for _, future, _ in pending:
                    future.set_exception(exc)
                with self._lock:
                    self._pending -= len(pending)
                continue
            t_done = time.monotonic()
            self.num_batches += 1
            self.num_items += len(pending)
            self._record_batch(pending, t_dispatch, t_done)
            for i, (_, future, _) in enumerate(pending):
                future.set_result((int(result.predictions[i]), result))
            with self._lock:
                self._pending -= len(pending)

    def _record_batch(self, pending: List[_Item], t_dispatch: float,
                      t_done: float) -> None:
        """Record one dispatched batch: size, execute time, queue waits."""
        registry = self.registry if self.registry is not None \
            else get_registry()
        if not registry.enabled:
            return
        registry.histogram(
            "repro_batcher_batch_size",
            "Images coalesced per dispatched batch",
            buckets=BATCH_SIZE_BUCKETS).observe(
                len(pending), **self.labels)
        registry.histogram(
            "repro_batcher_execute_seconds",
            "predict_fn wall time per dispatched batch").observe(
                t_done - t_dispatch, **self.labels)
        queue_wait = registry.histogram(
            "repro_batcher_queue_wait_seconds",
            "Submit-to-dispatch wait per image")
        for _, _, t_submit in pending:
            queue_wait.observe(max(0.0, t_dispatch - t_submit),
                               **self.labels)
