"""Spike-train containers for one-spike-per-neuron TTFS coding.

With time-to-first-spike coding every neuron fires at most once per
window, so a layer's entire spike train is a dense integer array of
*relative* fire times (``NO_SPIKE`` where the neuron stays silent).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Tuple

import numpy as np

from ..cat.kernels import NO_SPIKE
from ..events import EventStream


@dataclass
class SpikeTrain:
    """Fire times of one layer within its window.

    ``times`` has the layer's activation shape; entries are in
    ``{0..window}`` or ``NO_SPIKE``.
    """

    times: np.ndarray
    window: int

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=np.int64)
        # two reductions and no temporary: on the 2M times of a batch-32
        # VGG-16 layer they took 1.7 ms, a shifted unsigned compare
        # (times + 1 <= window + 1) 5.0 ms and three masks 3.3 ms
        if self.times.size and (self.times.min() < NO_SPIKE
                                or self.times.max() > self.window):
            valid = (self.times == NO_SPIKE) | (
                (self.times >= 0) & (self.times <= self.window))
            bad = self.times[~valid]
            raise ValueError(
                f"spike times outside [0, {self.window}] or NO_SPIKE: {bad[:5]}"
            )

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.times.shape

    @property
    def num_neurons(self) -> int:
        return int(self.times.size)

    @property
    def num_spikes(self) -> int:
        return int(np.count_nonzero(self.times != NO_SPIKE))

    @property
    def sparsity(self) -> float:
        """Fraction of neurons that never fire."""
        return 1.0 - self.num_spikes / max(self.num_neurons, 1)

    def spikes_per_timestep(self) -> np.ndarray:
        """Histogram of spike counts over the window (length window+1)."""
        fired = self.times[self.times != NO_SPIKE]
        return np.bincount(fired.ravel().astype(int), minlength=self.window + 1)

    def decode(self, kernel, theta0: float = 1.0) -> np.ndarray:
        """Values represented by the spikes under ``kernel`` (Eq. 7)."""
        return kernel.decode(self.times, theta0)

    def to_events(self) -> EventStream:
        """Lossless conversion to the sorted event-stream representation."""
        return EventStream.from_dense(self.times, self.window)

    def sorted_events(self) -> Iterator[Tuple[int, int]]:
        """Yield (time, flat_neuron_id) in the min-find merge order that the
        processor's input generator produces (time-major, id-minor).

        Kept as an iterator for compatibility; the sort itself is the
        vectorised :meth:`EventStream.from_dense` lexsort, not a
        per-timestep Python scan.
        """
        yield from self.to_events()

    def reshape(self, shape) -> "SpikeTrain":
        return SpikeTrain(self.times.reshape(shape), self.window)


def encode_values(values: np.ndarray, kernel, window: int,
                  theta0: float = 1.0) -> SpikeTrain:
    """TTFS-encode a value array: first threshold crossing per neuron."""
    times = kernel.spike_time(values, theta0=theta0, window=window)
    return SpikeTrain(times=times, window=window)
