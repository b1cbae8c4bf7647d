"""Hardware models: the SNN processor of Sec. 4 plus Table 4 baselines."""

from .config import (
    HwConfig,
    baseline_config,
    cat_only_config,
    proposed_config,
)
from .pe import (
    DecoderCost,
    PECost,
    decoder_cost,
    linear_pe_cost,
    log_pe_cost,
    pe_cost,
)
from .area import Fig6Result, PEArrayReport, fig6_design_points, pe_array_report
from .spike_encoder import EncoderResult, SpikeEncoder
from .input_generator import InputGenerator, MinFindUnit, SortResult
from .ppu import PPU
from .dma import DMAEngine, DramTraffic
from .geometry import (
    FiringProfile,
    LayerGeometry,
    MEASURED_VGG_PROFILE,
    NetworkGeometry,
    geometry_from_converted,
    profile_from_simulation,
    uniform_profile,
    vgg16_geometry,
)
from .processor import LayerPerf, ProcessorReport, SNNProcessor
from .mapping import LayerMapping, MappingReport, map_network
from .tilesim import (
    FixedPointInference,
    FixedPointReport,
    TiledCycleModel,
    TiledRunReport,
    TileRecord,
)
from .baselines import (
    TianjicLikeProcessor,
    TianjicReference,
    TianjicReport,
    TPUConfig,
    TPULikeProcessor,
    TPUReport,
)

__all__ = [
    "HwConfig",
    "baseline_config",
    "cat_only_config",
    "proposed_config",
    "DecoderCost",
    "PECost",
    "decoder_cost",
    "linear_pe_cost",
    "log_pe_cost",
    "pe_cost",
    "Fig6Result",
    "PEArrayReport",
    "fig6_design_points",
    "pe_array_report",
    "EncoderResult",
    "SpikeEncoder",
    "InputGenerator",
    "MinFindUnit",
    "SortResult",
    "PPU",
    "DMAEngine",
    "DramTraffic",
    "FiringProfile",
    "LayerGeometry",
    "MEASURED_VGG_PROFILE",
    "NetworkGeometry",
    "geometry_from_converted",
    "profile_from_simulation",
    "uniform_profile",
    "vgg16_geometry",
    "LayerMapping",
    "MappingReport",
    "map_network",
    "FixedPointInference",
    "FixedPointReport",
    "TiledCycleModel",
    "TiledRunReport",
    "TileRecord",
    "LayerPerf",
    "ProcessorReport",
    "SNNProcessor",
    "TianjicLikeProcessor",
    "TianjicReference",
    "TianjicReport",
    "TPUConfig",
    "TPULikeProcessor",
    "TPUReport",
]
