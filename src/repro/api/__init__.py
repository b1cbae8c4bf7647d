"""Declarative experiment pipelines: config -> stages -> report.

One level above the simulation engine, this package turns the paper's
end-to-end flow — conversion-aware training, quantisation, TTFS
conversion, spike simulation, processor energy/latency estimation — into
a config-driven pipeline:

* :mod:`config`     — the strict :class:`ExperimentConfig` dataclass
  tree, loadable from JSON/TOML via :func:`config_from_file`;
* :mod:`stages`     — the :class:`Stage` protocol, the shared
  :class:`PipelineContext`, the stage registry and the builtin stages
  (train / convert / quantize / simulate / hardware, restore for a
  prebuilt bundle, and the analytic figure stages);
* :mod:`experiment` — the :class:`Experiment` driver with chained-key
  stage caching and the structured :class:`ExperimentReport`;
* :mod:`presets`    — named configs (``repro run --preset``) and the
  builders behind ``repro simulate`` and ``repro evaluate``.

See ``docs/api.md`` for the architecture note and a worked example.
"""

from .config import (
    ARCHITECTURES,
    DEFAULT_STAGES,
    AnalysisConfig,
    ArtifactConfig,
    ConfigError,
    ConvertConfig,
    DatasetConfig,
    ExperimentConfig,
    HardwareConfig,
    ModelConfig,
    QuantizeConfig,
    SimulateConfig,
    TrainConfig,
    config_from_dict,
    config_from_file,
    config_to_dict,
)
from .experiment import (
    REPORT_SCHEMA_VERSION,
    Experiment,
    ExperimentReport,
    StageRecord,
)
from .presets import (
    PRESETS,
    artifact_simulate_config,
    available_presets,
    preset_config,
    simulate_config,
    train_micro_snn,
)
from .stages import (
    ConvertStage,
    HardwareStage,
    PipelineContext,
    PipelineError,
    PipelineStage,
    QuantizeStage,
    RestoreStage,
    SimulateStage,
    Stage,
    TrainStage,
    available_stages,
    get_stage,
    register_stage,
)

__all__ = [
    "ARCHITECTURES",
    "DEFAULT_STAGES",
    "AnalysisConfig",
    "ArtifactConfig",
    "ConfigError",
    "ConvertConfig",
    "DatasetConfig",
    "ExperimentConfig",
    "HardwareConfig",
    "ModelConfig",
    "QuantizeConfig",
    "SimulateConfig",
    "TrainConfig",
    "config_from_dict",
    "config_from_file",
    "config_to_dict",
    "REPORT_SCHEMA_VERSION",
    "Experiment",
    "ExperimentReport",
    "StageRecord",
    "PRESETS",
    "artifact_simulate_config",
    "available_presets",
    "preset_config",
    "simulate_config",
    "train_micro_snn",
    "ConvertStage",
    "HardwareStage",
    "PipelineContext",
    "PipelineError",
    "PipelineStage",
    "QuantizeStage",
    "RestoreStage",
    "SimulateStage",
    "Stage",
    "TrainStage",
    "available_stages",
    "get_stage",
    "register_stage",
]
