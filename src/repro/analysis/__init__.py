"""Metrics, reporting and the paper's reference numbers."""

from . import paper
from .metrics import (
    ConversionResult,
    latency_timesteps,
)
from .reporting import (
    ascii_bars,
    format_series,
    format_sweep_report,
    format_table,
    paper_vs_measured,
)

__all__ = [
    "paper",
    "ConversionResult",
    "latency_timesteps",
    "ascii_bars",
    "format_series",
    "format_sweep_report",
    "format_table",
    "paper_vs_measured",
]
