"""Cross-cutting metrics used by benchmarks and tests."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ConversionResult:
    """ANN/SNN accuracy pair for one configuration (a Table 1 cell)."""

    method: str
    window: int
    tau: float
    dataset: str
    ann_accuracy: float
    snn_accuracy: float

    @property
    def conversion_loss(self) -> float:
        """acc_SNN - acc_ANN in percentage points (negative = loss)."""
        return 100.0 * (self.snn_accuracy - self.ann_accuracy)

    def as_row(self) -> list:
        return [
            self.method, f"{self.window}/{self.tau:g}", self.dataset,
            100 * self.ann_accuracy, 100 * self.snn_accuracy,
            self.conversion_loss,
        ]


def latency_timesteps(num_weight_layers: int, window: int,
                      early_firing: bool = False) -> int:
    """End-to-end SNN latency (Table 2).

    One window encodes the input, one per weight layer; early firing [4]
    overlaps fire and integration phases, halving the total.
    """
    total = (num_weight_layers + 1) * window
    return total // 2 if early_firing else total

