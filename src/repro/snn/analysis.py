"""Spike-train analysis and visualisation utilities.

Text-mode tools for inspecting TTFS dynamics: spike rasters, per-layer
firing statistics, and the pipeline timing diagram of Fig. 1 (layers
occupying consecutive integration/fire windows).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from ..cat.kernels import NO_SPIKE
from .network import SimulationResult
from .spikes import SpikeTrain


@dataclass(frozen=True)
class LayerSpikeStats:
    """Firing statistics of one layer over a window."""

    name: str
    neurons: int
    spikes: int
    firing_rate: float
    mean_spike_time: float
    earliest: int
    latest: int

    def as_row(self) -> list:
        return [self.name, self.neurons, self.spikes,
                round(self.firing_rate, 3),
                round(self.mean_spike_time, 2), self.earliest, self.latest]


def train_stats(train: SpikeTrain, name: str = "layer") -> LayerSpikeStats:
    """Summarise a spike train."""
    fired = train.times[train.times != NO_SPIKE]
    if fired.size:
        mean_t = float(fired.mean())
        earliest = int(fired.min())
        latest = int(fired.max())
    else:
        mean_t, earliest, latest = float("nan"), -1, -1
    return LayerSpikeStats(
        name=name,
        neurons=train.num_neurons,
        spikes=train.num_spikes,
        firing_rate=train.num_spikes / max(train.num_neurons, 1),
        mean_spike_time=mean_t,
        earliest=earliest,
        latest=latest,
    )


def simulation_stats(result: SimulationResult) -> List[LayerSpikeStats]:
    """Per-layer firing statistics from a simulation's traces."""
    stats = []
    for trace in result.traces:
        rate = trace.output_spikes / max(trace.neurons, 1)
        stats.append(LayerSpikeStats(
            name=trace.name, neurons=trace.neurons,
            spikes=trace.output_spikes, firing_rate=rate,
            mean_spike_time=float("nan"), earliest=-1, latest=-1,
        ))
    return stats


def ascii_raster(train: SpikeTrain, max_neurons: int = 32,
                 title: str = "") -> str:
    """Render a spike raster: one row per neuron, '|' at the fire step.

    Only the first ``max_neurons`` (flattened) neurons are drawn.
    """
    flat = train.times.ravel()[:max_neurons]
    width = train.window + 1
    lines = [title] if title else []
    header = "neuron " + "".join(str(t % 10) for t in range(width))
    lines.append(header)
    for i, t in enumerate(flat):
        row = ["."] * width
        if t != NO_SPIKE:
            row[int(t)] = "|"
        lines.append(f"{i:6d} " + "".join(row))
    return "\n".join(lines)


def pipeline_diagram(num_stages: int, window: int,
                     stage_names: Sequence[str] | None = None,
                     early_firing: bool = False) -> str:
    """Fig. 1-style timing diagram: which window each stage occupies.

    Each stage integrates during its predecessor's fire window and fires
    in the next; with early firing the two overlap and stages advance
    every half window.
    """
    names = list(stage_names) if stage_names else [
        f"stage{i}" for i in range(num_stages)
    ]
    if len(names) != num_stages:
        raise ValueError("stage_names length must equal num_stages")
    step = window // 2 if early_firing else window
    total = step * (num_stages - 1) + window
    scale = max(total // 60, 1)
    lines = [f"time ->  (one char = {scale} timestep"
             f"{'s' if scale > 1 else ''}; window T = {window}"
             f"{', early firing' if early_firing else ''})"]
    for i, name in enumerate(names):
        start = i * step
        bar = " " * (start // scale) + "#" * max(window // scale, 1)
        lines.append(f"{name:>12s} {bar}")
    lines.append(f"{'latency':>12s} {total} timesteps")
    return "\n".join(lines)


def compare_trains(a: SpikeTrain, b: SpikeTrain) -> dict:
    """Spike-level diff between two runs of the same layer."""
    if a.shape != b.shape or a.window != b.window:
        raise ValueError("trains must have identical shape and window")
    both = (a.times != NO_SPIKE) & (b.times != NO_SPIKE)
    only_a = (a.times != NO_SPIKE) & (b.times == NO_SPIKE)
    only_b = (b.times != NO_SPIKE) & (a.times == NO_SPIKE)
    dt = a.times[both] - b.times[both]
    return {
        "matching_neurons": int(both.sum()),
        "only_in_a": int(only_a.sum()),
        "only_in_b": int(only_b.sum()),
        "identical_times": int((dt == 0).sum()),
        "mean_time_shift": float(dt.mean()) if dt.size else 0.0,
        "max_abs_shift": int(np.abs(dt).max()) if dt.size else 0,
    }
