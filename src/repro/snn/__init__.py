"""Event-driven TTFS SNN simulator and the T2FSNN baseline."""

from .spikes import SpikeTrain, encode_values
from .network import EventDrivenTTFSNetwork, LayerTrace, SimulationResult
from .t2fsnn import (
    T2FSNNConfig,
    T2FSNNModel,
    convert_t2fsnn,
    normalize_weights_layerwise,
    optimize_layer_kernel,
)
from .rate import RateCodedNetwork, RateSimulationResult
from .direct import DirectSNN, DirectTrainResult, surrogate_spike, train_direct
from .analysis import (
    LayerSpikeStats,
    ascii_raster,
    compare_trains,
    pipeline_diagram,
    simulation_stats,
    train_stats,
)

__all__ = [
    "SpikeTrain",
    "encode_values",
    "EventDrivenTTFSNetwork",
    "LayerTrace",
    "SimulationResult",
    "T2FSNNConfig",
    "T2FSNNModel",
    "convert_t2fsnn",
    "normalize_weights_layerwise",
    "optimize_layer_kernel",
    "DirectSNN",
    "DirectTrainResult",
    "surrogate_spike",
    "train_direct",
    "RateCodedNetwork",
    "RateSimulationResult",
    "LayerSpikeStats",
    "ascii_raster",
    "compare_trains",
    "pipeline_diagram",
    "simulation_stats",
    "train_stats",
]
