"""Mini-batch iteration with optional augmentation and prefetch.

:class:`StreamingDataLoader` drives the training loop from either an
in-memory array pair or an on-disk :class:`~repro.data.shards.ShardedDataset`
behind one interface.  With ``prefetch > 0`` a background producer
thread stages the next batches (gather + augmentation) into a bounded
queue while the consumer trains on the current one — double buffering,
mirroring the serving fleet's ``MicroBatcher`` queue/thread/shutdown
discipline.

Determinism: every random draw (epoch shuffle, crop offsets, flip
coins) comes from the loader's single generator, in batch order, on the
producer side.  The batch stream is therefore **bitwise identical**
across in-memory vs. sharded sources and synchronous vs. prefetched
iteration for a fixed seed.  (Abandoning an epoch mid-iteration may
leave the generator a few prefetched batches ahead of where a
synchronous loader's would be; full epochs — the training case — always
agree.)
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Iterator, Optional, Tuple, Union

import numpy as np

from ..obs import get_registry
from .shards import ShardedDataset
from .transforms import augment_batch

#: End-of-epoch marker on the prefetch queue.
_SENTINEL = object()


class _ProducerError:
    """Wraps an exception raised on the producer thread for re-raise."""

    def __init__(self, exc: BaseException):
        self.exc = exc


class _PrefetchIterator:
    """One epoch's double-buffered batch stream.

    A producer thread computes batches (shard gather + augmentation)
    into a queue bounded at ``prefetch``; ``__next__`` pops them.  The
    producer checks the stop event both before each batch and around
    every blocking put, so :meth:`close` never strands either side: the
    consumer drains the queue to wake a blocked put, the producer
    observes the event and exits, and the join completes.
    """

    def __init__(self, loader: "StreamingDataLoader", order: np.ndarray):
        self._queue: "queue.Queue" = queue.Queue(maxsize=loader.prefetch)
        self._stop = threading.Event()
        self._done = False
        self._thread = threading.Thread(
            target=self._produce, args=(loader, order), daemon=True,
            name="repro-dataloader-prefetch")
        self._thread.start()

    def __iter__(self) -> "_PrefetchIterator":
        return self

    def __next__(self) -> Tuple[np.ndarray, np.ndarray]:
        if self._done:
            raise StopIteration
        registry = get_registry()
        if not registry.enabled:
            item = self._queue.get()
        else:
            # a non-empty queue means the producer is keeping up; the
            # blocked get below is a prefetch stall the consumer eats
            registry.histogram(
                "repro_loader_queue_depth",
                "Prefetched batches staged when the consumer asked",
                buckets=tuple(float(i) for i in range(1, 17))).observe(
                    self._queue.qsize())
            t0 = time.perf_counter()
            item = self._queue.get()
            registry.histogram(
                "repro_loader_stall_seconds",
                "Consumer time blocked waiting on the prefetch "
                "queue").observe(time.perf_counter() - t0)
        if item is _SENTINEL:
            self._finish()
            raise StopIteration
        if isinstance(item, _ProducerError):
            self._finish()
            raise item.exc
        return item

    def _finish(self) -> None:
        self._done = True
        self._thread.join()

    def _produce(self, loader: "StreamingDataLoader",
                 order: np.ndarray) -> None:
        try:
            for start in range(0, len(order), loader.batch_size):
                if self._stop.is_set():
                    return
                item = loader._batch(order[start : start + loader.batch_size])
                if not self._put(item):
                    return
        except BaseException as exc:  # noqa: BLE001 — relay to consumer
            self._put(_ProducerError(exc))
            return
        self._put(_SENTINEL)

    def _put(self, item) -> bool:
        """Bounded put that yields to :meth:`close`; False if stopped."""
        while True:
            if self._stop.is_set():
                return False
            try:
                self._queue.put(item, timeout=0.05)
                return True
            except queue.Full:
                continue

    def close(self) -> None:
        """Stop the producer and reclaim the thread (idempotent)."""
        if self._done and not self._thread.is_alive():
            return
        self._stop.set()
        while True:  # unblock a full-queue put so the producer can exit
            try:
                self._queue.get_nowait()
            except queue.Empty:
                break
        self._thread.join()
        self._done = True


class StreamingDataLoader:
    """Iterate (images, labels) mini-batches from arrays or shards.

    Augmentation follows the common CIFAR recipe the paper's VGG
    training would use: pad-and-random-crop plus horizontal flip.

    Parameters
    ----------
    source:  either an NCHW image array (``labels`` required) or a
             :class:`~repro.data.shards.ShardedDataset`, whose train
             split is streamed shard-by-shard.
    prefetch: batches to stage ahead on a background thread; ``0``
             iterates synchronously on the calling thread.
    """

    def __init__(
        self,
        source: Union[np.ndarray, ShardedDataset],
        labels: Optional[np.ndarray] = None,
        batch_size: int = 64,
        shuffle: bool = True,
        augment: bool = False,
        crop_pad: int = 2,
        seed: int = 7,
        prefetch: int = 2,
    ):
        if isinstance(source, ShardedDataset):
            if labels is not None:
                raise ValueError(
                    "labels come from the shard manifest; pass only the "
                    "ShardedDataset")
            self.images = None
            self.labels = source.train_y
            self._sharded: Optional[ShardedDataset] = source
        else:
            if labels is None:
                raise ValueError("labels are required with array images")
            if len(source) != len(labels):
                raise ValueError("images and labels must have equal length")
            self.images = source
            self.labels = labels
            self._sharded = None
        self.batch_size = int(batch_size)
        self.shuffle = shuffle
        self.augment = augment
        self.crop_pad = crop_pad
        self.prefetch = int(prefetch)
        self._rng = np.random.default_rng(seed)
        self._active: Optional[_PrefetchIterator] = None

    def __len__(self) -> int:
        return (len(self.labels) + self.batch_size - 1) // self.batch_size

    def _batch(self, idx: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Gather + augment one batch (all RNG draws happen here)."""
        if self._sharded is not None:
            x = self._sharded.gather_train(idx)
        else:
            x = self.images[idx]
        y = self.labels[idx]
        if self.augment:
            x = augment_batch(x, self.crop_pad, self._rng)
        registry = get_registry()
        if registry.enabled:
            source = "shards" if self._sharded is not None else "memory"
            registry.counter(
                "repro_loader_batches_total",
                "Mini-batches produced (gather + augment)").inc(
                    1, source=source)
        return x, y

    def _iter_sync(self, order: np.ndarray
                   ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        for start in range(0, len(order), self.batch_size):
            yield self._batch(order[start : start + self.batch_size])

    def __iter__(self) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        # Stop any abandoned previous epoch *before* drawing the shuffle,
        # so its producer cannot race this epoch's generator use.
        self.close()
        order = np.arange(len(self.labels))
        if self.shuffle:
            self._rng.shuffle(order)
        if self.prefetch <= 0:
            return self._iter_sync(order)
        self._active = _PrefetchIterator(self, order)
        return self._active

    def close(self) -> None:
        """Stop the active epoch's prefetch thread, if any (idempotent)."""
        active, self._active = self._active, None
        if active is not None:
            active.close()

    def __enter__(self) -> "StreamingDataLoader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def make_train_loader(dataset, batch_size: int = 64, shuffle: bool = True,
                      augment: bool = False, crop_pad: int = 2,
                      seed: int = 7, prefetch: Optional[int] = None
                      ) -> StreamingDataLoader:
    """Train-split loader for an in-memory or sharded dataset.

    ``prefetch=None`` picks the natural default per source: ``0``
    (synchronous) for in-memory arrays, where gathers are cheap slices,
    and ``2`` (double buffering) for sharded datasets, where the gather
    does real I/O worth overlapping with the optimiser step.
    """
    if isinstance(dataset, ShardedDataset):
        return StreamingDataLoader(
            dataset, batch_size=batch_size, shuffle=shuffle,
            augment=augment, crop_pad=crop_pad, seed=seed,
            prefetch=2 if prefetch is None else prefetch)
    return StreamingDataLoader(
        dataset.train_x, dataset.train_y, batch_size=batch_size,
        shuffle=shuffle, augment=augment, crop_pad=crop_pad, seed=seed,
        prefetch=0 if prefetch is None else prefetch)
