"""DMA engine and off-chip DRAM traffic/energy accounting.

The processor keeps weights and inter-layer spike tensors in off-chip
DRAM (Table 4: "On-chip, Off-chip").  Each processed image streams:

* every layer's weights once (they fit the 4 x 90 KB weight buffers per
  layer, so no re-fetch within a layer);
* every layer's input spike records (modulated by the input-buffer reuse
  factor from :class:`~repro.hw.input_generator.InputGenerator`);
* every layer's output spike records (written back).

DRAM energy uses the paper's HBM-like interface at 4 pJ/bit [15].
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List


@dataclass
class DramTraffic:
    """Bit-level traffic ledger for one processed image."""

    weight_bits: int = 0
    spike_read_bits: int = 0
    spike_write_bits: int = 0
    per_layer: List[Dict] = field(default_factory=list)

    @property
    def total_bits(self) -> int:
        return self.weight_bits + self.spike_read_bits + self.spike_write_bits

    def energy_uj(self, pj_per_bit: float) -> float:
        return self.total_bits * pj_per_bit * 1e-6

    def add_layer(self, name: str, weight_bits: int, read_bits: int,
                  write_bits: int) -> None:
        self.weight_bits += weight_bits
        self.spike_read_bits += read_bits
        self.spike_write_bits += write_bits
        self.per_layer.append({
            "layer": name,
            "weight_bits": weight_bits,
            "spike_read_bits": read_bits,
            "spike_write_bits": write_bits,
        })


@dataclass
class DMAEngine:
    """Bandwidth/cycle model of the DMA engine."""

    pj_per_bit: float = 4.0

    def energy_uj(self, bits: int) -> float:
        return bits * self.pj_per_bit * 1e-6
