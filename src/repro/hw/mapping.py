"""Layer-to-weight-buffer mapping (the 4 x 90 KB buffers of Fig. 5).

The performance model charges each layer's weights exactly one DRAM read
per image.  That holds when the weights needed *concurrently* — one
128-neuron output tile's working set — fit the on-chip buffers; tiles
partition the weight tensor, so streaming tile-by-tile still reads every
weight once.

The working set of a tile is

* conv:   ``C_in * K * K * min(C_out, 128) * weight_bits``
  (spatial positions share channel weights, so a tile processing up to
  128 output channels holds those channels' filters);
* linear: ``in_features * min(out_features, 128) * weight_bits``.

A satisfying reproduction detail falls out of this model: VGG-16's
largest layers (512 -> 512 conv, 3x3) need exactly
``512 * 9 * 128 * 5 bit = 360 KB = 4 x 90 KB`` — the paper's buffer is
sized precisely for its workload at the selected 5-bit weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List

from .config import HwConfig
from .geometry import LayerGeometry, NetworkGeometry


@dataclass(frozen=True)
class LayerMapping:
    """Buffer residency of one layer's weights."""

    name: str
    weight_bits: int  # total layer weights (DRAM traffic per image)
    tile_bits: int  # concurrent working set of one output tile
    fits: bool
    passes: int  # fetch passes per tile (1 = working set resident)
    buffer_utilization: float  # tile working set / buffer capacity


@dataclass
class MappingReport:
    """Whole-network buffer mapping."""

    config: HwConfig
    layers: List[LayerMapping] = field(default_factory=list)

    @property
    def all_fit(self) -> bool:
        return all(m.fits for m in self.layers)

    @property
    def worst_utilization(self) -> float:
        return max((m.buffer_utilization for m in self.layers), default=0.0)

    @property
    def total_refill_bits(self) -> int:
        return sum(int(m.weight_bits * (m.passes - 1)) for m in self.layers)

    def summary_rows(self) -> list:
        return [[m.name, m.tile_bits // 8192, f"{m.buffer_utilization:.2f}",
                 m.passes, "yes" if m.fits else "NO"]
                for m in self.layers]


def tile_working_set_bits(layer: LayerGeometry, cfg: HwConfig) -> int:
    """Weights one 128-PE output tile needs resident, in bits.

    For conv layers ``fanout = K*K*C_out`` (3x3 kernels throughout the
    paper's VGG workloads), from which C_out and the per-channel filter
    size C_in*K*K are recovered.
    """
    if layer.kind == "conv":
        c_out = max(layer.fanout // 9, 1)  # fanout = 3*3*C_out
        cin_k2 = layer.synapses // c_out
        concurrent = min(c_out, cfg.num_pes)
        return cin_k2 * concurrent * cfg.weight_bits
    concurrent = min(layer.out_neurons, cfg.num_pes)
    in_features = layer.synapses // layer.out_neurons
    return in_features * concurrent * cfg.weight_bits


def map_network(geometry: NetworkGeometry,
                cfg: HwConfig | None = None) -> MappingReport:
    """Map every weight layer onto the processor's weight buffers."""
    cfg = cfg or HwConfig()
    capacity_bits = cfg.total_weight_buffer_kb * 1024 * 8
    report = MappingReport(config=cfg)
    for layer in geometry.layers:
        weight_bits = layer.synapses * cfg.weight_bits
        tile_bits = tile_working_set_bits(layer, cfg)
        passes = max(1, math.ceil(tile_bits / capacity_bits))
        report.layers.append(LayerMapping(
            name=layer.name,
            weight_bits=weight_bits,
            tile_bits=tile_bits,
            fits=passes == 1,
            passes=passes,
            buffer_utilization=tile_bits / capacity_bits,
        ))
    return report
