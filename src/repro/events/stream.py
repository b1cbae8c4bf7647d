"""The sorted event-stream spike representation.

TTFS coding fires **at most one spike per neuron**, and the processor
exploits that sparsity by streaming *time-sorted* ``(time, neuron)``
events through the min-find unit instead of scanning dense timesteps
(paper Sec. 4.1).  :class:`EventStream` is that representation as a
first-class value: two flat arrays — ``times`` and flat neuron
``indices`` — sorted time-major/index-minor (exactly the order the
hardware input generator emits), plus the dense ``shape`` and coding
``window`` metadata needed to round-trip losslessly.

Unlike :class:`~repro.snn.spikes.SpikeTrain` (a dense fire-time array,
one slot per neuron), an EventStream's storage and the cost of every
operation scale with the number of *events*, not neurons x timesteps —
which is what makes the engine's ``event`` backend fast in the sparse
regime.  The representation is deliberately more general than one-spike
TTFS: multi-spike trains (rate coding's per-timestep masks) fold into
the same two arrays, so one type serves every simulator stack.

Layering: this is the bottom of the package (``events`` ->
``cat.kernels`` -> ``engine`` -> ``snn``/``hw``) and must not import
from any other ``repro`` module — which is also why the ``NO_SPIKE``
sentinel lives here (``repro.cat.kernels`` re-exports it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple

import numpy as np

NO_SPIKE = -1  # sentinel spike time for neurons that never fire


#: Element budget of one event-scatter product block (events x fan-out).
SCATTER_BLOCK_ELEMENTS = 1 << 20


def scatter_chunks(num_events: int, width: int) -> "Iterator[slice]":
    """Event slices bounding each scatter's temporary to the shared
    block budget — the one chunking policy every event-scatter hot path
    (float engine integration, integer PE products) runs under."""
    chunk = max(1, SCATTER_BLOCK_ELEMENTS // max(width, 1))
    for start in range(0, num_events, chunk):
        yield slice(start, start + chunk)


def scatter_add_rows(out: np.ndarray, rows: np.ndarray,
                     contrib: np.ndarray) -> None:
    """``out[rows[i]] += contrib[i]`` with ``np.add.at`` semantics.

    ``out`` is ``(R, C)``, ``rows`` ``(E,)``, ``contrib`` ``(E, C)``.
    Duplicate destinations accumulate.  Float accumulators reduce via
    ``np.bincount`` over flattened ``(row, col)`` indices — the same
    element-at-a-time, input-order accumulation ``np.add.at`` performs,
    so the result is *bitwise identical*, at a fraction of the cost.
    Integer accumulators use a stable segment sort plus
    ``np.add.reduceat``; integer addition is exact, so destination
    order is free to change.

    Lives here (the package's bottom layer) so both the engine's
    compiled event plans and the tensor library's pooling backward can
    share the one implementation without an import cycle;
    :mod:`repro.engine.plan` re-exports it.
    """
    n_events = len(rows)
    if n_events == 0:
        return
    n_cols = out.shape[1]
    if out.dtype.kind == "f":
        flat = rows[:, None] * n_cols + np.arange(n_cols, dtype=rows.dtype)
        counts = np.bincount(flat.ravel(), weights=contrib.ravel(),
                             minlength=out.size)
        out += counts.reshape(out.shape).astype(out.dtype, copy=False)
        return
    order = np.argsort(rows, kind="stable")
    sorted_rows = rows[order]
    starts = np.flatnonzero(np.r_[True, np.diff(sorted_rows) != 0])
    sums = np.add.reduceat(contrib[order], starts, axis=0)
    out[sorted_rows[starts]] += sums


def conv_offset_coverage(y: np.ndarray, x: np.ndarray, kernel: int,
                         stride: int, padding: int, oh: int, ow: int):
    """Which output cells each event covers, one kernel offset at a time.

    For every ``(ky, kx)`` kernel offset, yields ``(ky, kx, ok, oy, ox)``
    where ``ok`` masks the events whose coordinates ``(y, x)`` land on a
    valid output cell at that offset and ``oy``/``ox`` are those cells'
    coordinates (already masked).  This is the single copy of the
    scatter geometry shared by the engine's event integration, the
    fixed-point PE scatter and event-domain pooling — every consumer
    supplies only its own per-event payload.
    """
    for ky in range(kernel):
        oy_all, ry = np.divmod(y + padding - ky, stride)
        row_ok = (ry == 0) & (oy_all >= 0) & (oy_all < oh)
        for kx in range(kernel):
            ox_all, rx = np.divmod(x + padding - kx, stride)
            ok = row_ok & (rx == 0) & (ox_all >= 0) & (ox_all < ow)
            if not ok.any():
                continue
            yield ky, kx, ok, oy_all[ok], ox_all[ok]


@dataclass
class EventStream:
    """Flat sorted spike events over a dense logical shape.

    ``times[i]`` is the (relative) fire step of event ``i`` and
    ``indices[i]`` the flat index of its neuron in ``shape`` (C order).
    Events are kept sorted time-major, index-minor — the min-find merge
    order of the processor's input generator — so time slicing is a
    ``searchsorted`` and per-timestep grouping is contiguous.
    """

    times: np.ndarray
    indices: np.ndarray
    shape: Tuple[int, ...]
    window: int

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=np.int64)
        self.indices = np.asarray(self.indices, dtype=np.int64)
        self.shape = tuple(int(s) for s in self.shape)
        if self.times.ndim != 1 or self.indices.ndim != 1:
            raise ValueError("times and indices must be flat 1-D arrays")
        if len(self.times) != len(self.indices):
            raise ValueError(
                f"times ({len(self.times)}) and indices "
                f"({len(self.indices)}) disagree on the event count")
        if self.times.size:
            if self.times.min() < 0 or self.times.max() > self.window:
                raise ValueError(
                    f"event times outside [0, {self.window}]")
            if self.indices.min() < 0 or self.indices.max() >= self.num_neurons:
                raise ValueError(
                    f"event indices outside the dense shape {self.shape}")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_events(cls, times, indices, shape, window: int) -> "EventStream":
        """Build from unordered event arrays (sorts into canonical order)."""
        stream = cls(np.asarray(times), np.asarray(indices), shape, window)
        return stream.sort()

    @classmethod
    def from_dense(cls, times: np.ndarray, window: int) -> "EventStream":
        """Lossless conversion from a dense fire-time array.

        ``times`` has one slot per neuron holding the fire step or
        ``NO_SPIKE``; the result is sorted by construction (one
        ``lexsort``, no Python loop).
        """
        times = np.asarray(times)
        flat = times.ravel()
        fired = np.flatnonzero(flat != NO_SPIKE)
        order = np.lexsort((fired, flat[fired]))
        return cls(times=flat[fired][order].astype(np.int64),
                   indices=fired[order], shape=times.shape, window=window)

    @classmethod
    def from_masks(cls, masks: np.ndarray) -> "EventStream":
        """From per-timestep boolean masks ``(T, *shape)`` (multi-spike ok).

        The inverse of :meth:`to_masks`; the stream's window is ``T - 1``.
        """
        masks = np.asarray(masks, dtype=bool)
        steps = masks.shape[0]
        per = int(np.prod(masks.shape[1:], dtype=np.int64))
        hits = np.flatnonzero(masks.reshape(-1))
        return cls(times=hits // per, indices=hits % per,
                   shape=masks.shape[1:], window=steps - 1)

    @classmethod
    def empty(cls, shape, window: int) -> "EventStream":
        return cls(times=np.empty(0, dtype=np.int64),
                   indices=np.empty(0, dtype=np.int64),
                   shape=shape, window=window)

    @classmethod
    def merge(cls, streams: Sequence["EventStream"]) -> "EventStream":
        """Vectorised k-way merge of streams over the same shape/window."""
        if not streams:
            raise ValueError("nothing to merge")
        shape, window = streams[0].shape, streams[0].window
        for s in streams[1:]:
            if s.shape != shape or s.window != window:
                raise ValueError(
                    f"cannot merge streams over {s.shape}/T={s.window} "
                    f"into {shape}/T={window}")
        return cls.from_events(
            np.concatenate([s.times for s in streams]),
            np.concatenate([s.indices for s in streams]), shape, window)

    # ------------------------------------------------------------------
    # Inverse conversions
    # ------------------------------------------------------------------
    def to_dense(self) -> np.ndarray:
        """Dense fire-time array (``NO_SPIKE`` where silent).

        Only defined for one-spike-per-neuron streams — the TTFS case;
        a multi-spike stream has no dense fire-time equivalent.
        """
        if len(np.unique(self.indices)) != len(self.indices):
            raise ValueError(
                "stream has multiple spikes per neuron; a dense "
                "fire-time array cannot represent it (use to_masks)")
        flat = np.full(self.num_neurons, NO_SPIKE, dtype=np.int64)
        flat[self.indices] = self.times
        return flat.reshape(self.shape)

    def to_masks(self) -> np.ndarray:
        """Per-timestep boolean masks ``(window + 1, *shape)``."""
        masks = np.zeros((self.window + 1, self.num_neurons), dtype=bool)
        masks[self.times, self.indices] = True
        return masks.reshape((self.window + 1,) + self.shape)

    def decode(self, kernel, theta0: float = 1.0) -> np.ndarray:
        """Dense decoded values under ``kernel`` (Eq. 7) — a scatter.

        Bit-identical to ``kernel.decode`` on the dense fire-time array
        for one-spike streams; multi-spike streams accumulate.
        """
        flat = np.zeros(self.num_neurons, dtype=np.float64)
        np.add.at(flat, self.indices,
                  theta0 * kernel.value(self.times))
        return flat.reshape(self.shape)

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------
    @property
    def num_events(self) -> int:
        return int(len(self.times))

    @property
    def num_spikes(self) -> int:
        return self.num_events

    @property
    def num_neurons(self) -> int:
        return int(np.prod(self.shape, dtype=np.int64)) if self.shape else 1

    @property
    def sparsity(self) -> float:
        """Fraction of neuron slots without an event."""
        return 1.0 - self.num_events / max(self.num_neurons, 1)

    @property
    def is_sorted(self) -> bool:
        """True when events are in canonical time-major/index-minor order."""
        if self.num_events < 2:
            return True
        dt = np.diff(self.times)
        return bool((dt > 0).all() or (
            (dt >= 0).all() and (np.diff(self.indices)[dt == 0] > 0).all()))

    def spikes_per_timestep(self) -> np.ndarray:
        """Histogram of events over the window (length ``window + 1``)."""
        return np.bincount(self.times, minlength=self.window + 1)

    def __len__(self) -> int:
        return self.num_events

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        """Yield ``(time, flat_index)`` pairs in stream order."""
        yield from zip(self.times.tolist(), self.indices.tolist())

    # ------------------------------------------------------------------
    # Vectorised ops
    # ------------------------------------------------------------------
    def unravel(self) -> Tuple[np.ndarray, ...]:
        """Per-axis coordinates of every event (C-order, one array per
        axis of :attr:`shape`) — the single home of the flat-index
        contract every scatter consumer decomposes through."""
        return np.unravel_index(self.indices, self.shape)

    def sort(self) -> "EventStream":
        """Canonical order: time-major, index-minor (stable lexsort)."""
        if self.is_sorted:
            return self
        order = np.lexsort((self.indices, self.times))
        return EventStream(self.times[order], self.indices[order],
                           self.shape, self.window)

    def reshape(self, shape) -> "EventStream":
        """Reinterpret the dense shape (flat C-order indices unchanged)."""
        shape = tuple(shape)
        if any(s == -1 for s in shape):
            known = int(np.prod([s for s in shape if s != -1],
                                dtype=np.int64))
            shape = tuple(self.num_neurons // max(known, 1) if s == -1
                          else s for s in shape)
        if int(np.prod(shape, dtype=np.int64)) != self.num_neurons:
            raise ValueError(f"cannot reshape {self.shape} -> {shape}")
        return EventStream(self.times, self.indices, shape, self.window)

    def slice_events(self, start: int, stop: int) -> "EventStream":
        """Events ``[start, stop)`` of the stream (order preserved)."""
        return EventStream(self.times[start:stop], self.indices[start:stop],
                           self.shape, self.window)

    def time_groups(self) -> Iterator[Tuple[int, int, int]]:
        """Yield ``(t, start, stop)`` spans of equal-time events, in order.

        Spans are contiguous because the stream is time-sorted; iterating
        them is the event-driven analogue of the per-timestep loop — only
        *occupied* timesteps appear.
        """
        if not self.num_events:
            return
        ts, starts = np.unique(self.times, return_index=True)
        bounds = np.append(starts, self.num_events)
        for t, a, b in zip(ts.tolist(), bounds[:-1].tolist(),
                           bounds[1:].tolist()):
            yield t, a, b

    def with_offset(self, offset: int, shape) -> "EventStream":
        """Translate flat indices by ``offset`` into a larger shape.

        How per-tile encoder outputs land in the whole layer's stream.
        """
        return EventStream(self.times, self.indices + offset, shape,
                           self.window)

    def fold_time(self) -> "EventStream":
        """Fold the time axis into the leading (batch) dimension.

        An event at ``(t, idx)`` becomes an event at time 0, index
        ``t * num_neurons + idx`` of shape ``((window+1) * shape[0],
        *shape[1:])`` — exactly the dense ``(T, N, ...) -> (T*N, ...)``
        reshape, so per-timestep affine maps run as one batched scatter.
        """
        folded = ((self.window + 1) * self.shape[0],) + self.shape[1:]
        return EventStream(
            times=np.zeros(self.num_events, dtype=np.int64),
            indices=self.times * self.num_neurons + self.indices,
            shape=folded, window=0)

    # ------------------------------------------------------------------
    def max_pool2d(self, kernel: int, stride: int) -> "EventStream":
        """Earliest-spike max pooling over ``(N, C, H, W)`` streams.

        Under TTFS the max value is the min fire time, so spatial max
        pooling is "first event to cover an output cell wins" — computed
        directly on the sorted arrays, bit-identical to the dense
        windowed-min (:func:`repro.engine.executor.pool_times`).
        """
        n, c, h, w = self.shape
        oh = (h - kernel) // stride + 1
        ow = (w - kernel) // stride + 1
        out_shape = (n, c, oh, ow)
        if not self.num_events:
            return EventStream.empty(out_shape, self.window)
        ns, cs, y, x = self.unravel()
        nc = ns * c + cs  # combined (sample, channel) index
        cells: List[np.ndarray] = []
        times: List[np.ndarray] = []
        for _ky, _kx, ok, oy, ox in conv_offset_coverage(
                y, x, kernel, stride, 0, oh, ow):
            cells.append((nc[ok] * oh + oy) * ow + ox)
            times.append(self.times[ok])
        if not cells:
            return EventStream.empty(out_shape, self.window)
        cell = np.concatenate(cells)
        t = np.concatenate(times)
        order = np.lexsort((t, cell))
        cell, t = cell[order], t[order]
        first = np.ones(len(cell), dtype=bool)
        first[1:] = cell[1:] != cell[:-1]
        return EventStream.from_events(t[first], cell[first], out_shape,
                                       self.window)
