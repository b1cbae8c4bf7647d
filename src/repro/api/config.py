"""Declarative experiment configuration (the ``repro run`` input).

An :class:`ExperimentConfig` is a strict dataclass tree describing one
end-to-end experiment: which dataset and model to use and what each
pipeline stage (train / convert / quantize / simulate / hardware, plus
the analytic figure stages) should do.  It loads from a plain dict —
and therefore from JSON or TOML files — through :func:`config_from_dict`
/ :func:`config_from_file`, which validate *strictly*: unknown fields,
unknown stage/scheme/arch names and mistyped values all fail immediately
with the offending dotted path and a closest-match suggestion.

The tree is frozen and built from hashable primitives so the engine's
content-addressed cache can digest any section directly; ``to_dict``
inverts the loading for report embedding.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Tuple

from ..cat.schedule import METHODS
from ..nn import vgg7, vgg9, vgg_micro
from ..util import Registry, did_you_mean, unknown_name_message

#: Model builders a config may name (the train stage builds from here).
ARCHITECTURES = Registry("architecture")
ARCHITECTURES.register("vgg_micro", vgg_micro)
ARCHITECTURES.register("vgg7", vgg7)
ARCHITECTURES.register("vgg9", vgg9)

#: Firing-profile sources the hardware stage accepts.
HW_PROFILES = ("simulate", "measured", "uniform")

#: The canonical full pipeline, in execution order.
DEFAULT_STAGES = ("train", "convert", "quantize", "simulate", "hardware")


class ConfigError(ValueError):
    """An experiment config failed validation (message names the path)."""


def _check_name(path: str, registry: Registry, name: str) -> str:
    """The canonical name ``registry`` resolves ``name`` to, or
    ``ConfigError`` at ``path``."""
    try:
        return registry.resolve(name)
    except KeyError as err:
        raise ConfigError(f"{path}: {err.args[0]}") from None


@dataclass(frozen=True)
class DatasetConfig:
    """Which dataset the pipeline uses.

    Either a named in-memory generator (``repro.data.available()``) or,
    when ``shards`` is set, an on-disk shard directory written by
    ``repro shards`` / :func:`repro.data.write_shards` — the training
    stage then streams batches shard-by-shard instead of materialising
    the split.  ``prefetch`` is the number of batches the streaming
    loader stages ahead on its background thread (0 = synchronous).
    """

    name: str = "mini-cifar10"
    shards: str = ""
    prefetch: int = 2

    def __post_init__(self):
        from ..data.datasets import DATASETS

        if not self.shards:
            _check_name("dataset.name", DATASETS, self.name)
        if self.prefetch < 0:
            raise ConfigError("dataset.prefetch must be >= 0")


@dataclass(frozen=True)
class ModelConfig:
    """The model architecture the train stage builds."""

    arch: str = "vgg_micro"
    seed: int = 0

    def __post_init__(self):
        _check_name("model.arch", ARCHITECTURES, self.arch)


@dataclass(frozen=True)
class TrainConfig:
    """Conversion-aware-training hyper-parameters (lowered to CATConfig).

    ``relu_epochs`` / ``ttfs_epoch`` / ``milestones`` default to 0 / 0 /
    ``()`` meaning "derive from ``epochs``" with the schedule fractions
    the paper uses (10% warm-up, TTFS switch at 85%, LR steps at
    40/60/80%).
    """

    window: int = 8
    tau: float = 2.0
    theta0: float = 1.0
    base: float = 2.0
    method: str = "I+II+III"
    epochs: int = 2
    lr: float = 0.05
    batch_size: int = 40
    augment: bool = False
    relu_epochs: int = 0
    ttfs_epoch: int = 0
    milestones: Tuple[int, ...] = ()
    verbose: bool = False

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigError("train.method: " + unknown_name_message(
                "method", self.method, METHODS))
        if self.epochs < 1:
            raise ConfigError("train.epochs must be >= 1")
        if self.window < 1:
            raise ConfigError("train.window must be >= 1")
        if self.tau <= 0:
            raise ConfigError("train.tau must be positive")
        for m in self.milestones:
            if isinstance(m, bool) or not isinstance(m, int):
                raise ConfigError(
                    f"train.milestones must be integers, got {m!r}")

    def cat_config(self, seed: int = 0):
        """Lower to the :class:`repro.cat.CATConfig` the trainer consumes."""
        from ..cat import CATConfig

        epochs = self.epochs
        return CATConfig(
            window=self.window, tau=self.tau, theta0=self.theta0,
            base=self.base, method=self.method, epochs=epochs,
            relu_epochs=self.relu_epochs or max(1, epochs // 10),
            ttfs_epoch=self.ttfs_epoch or max(1, int(epochs * 0.85)),
            lr=self.lr,
            milestones=self.milestones or tuple(
                max(1, int(epochs * f)) for f in (0.4, 0.6, 0.8)),
            batch_size=self.batch_size, augment=self.augment,
            seed=seed,
        )


@dataclass(frozen=True)
class ConvertConfig:
    """ANN-to-SNN conversion options."""

    calibration: int = 64    # train images for output weight normalisation
    evaluate: bool = False   # also measure ANN + converted-SNN accuracy

    def __post_init__(self):
        if self.calibration < 0:
            raise ConfigError("convert.calibration must be >= 0")


@dataclass(frozen=True)
class QuantizeConfig:
    """Post-training logarithmic weight quantisation (paper Sec. 3.2)."""

    bits: int = 5
    z_w: int = 1

    def __post_init__(self):
        if self.bits < 2:
            raise ConfigError(
                "quantize.bits must be >= 2 (sign + one magnitude bit)")
        if self.z_w < 0:
            raise ConfigError("quantize.z_w must be >= 0")


@dataclass(frozen=True)
class SimulateConfig:
    """Spike-simulation options (engine runner + coding scheme)."""

    scheme: str = "ttfs-closed-form"
    backend: str = "dense"   # execution backend (dense | event)
    max_batch: int = 32
    limit: int = 0           # cap on test images (0 = the whole split)

    def __post_init__(self):
        from ..engine import available_backends
        from ..engine.registry import SCHEMES

        # aliases ("ttfs", "ttfs-timestep") resolve here, so the stage
        # cache key and the report name the scheme that runs
        object.__setattr__(self, "scheme", _check_name(
            "simulate.scheme", SCHEMES, self.scheme))
        if self.backend not in available_backends():
            raise ConfigError("simulate.backend: " + unknown_name_message(
                "backend", self.backend, available_backends()))
        if self.max_batch < 1:
            raise ConfigError("simulate.max_batch must be >= 1")
        if self.limit < 0:
            raise ConfigError("simulate.limit must be >= 0")


@dataclass(frozen=True)
class HardwareConfig:
    """Processor performance/energy report options."""

    profile: str = "simulate"   # firing-profile source
    uniform_rate: float = 0.3   # rate used when profile == "uniform"

    def __post_init__(self):
        if self.profile not in HW_PROFILES:
            raise ConfigError("hardware.profile: " + unknown_name_message(
                "firing profile", self.profile, HW_PROFILES))
        if not 0.0 <= self.uniform_rate <= 1.0:
            raise ConfigError("hardware.uniform_rate must be in [0, 1]")


@dataclass(frozen=True)
class ArtifactConfig:
    """Where the ``export``/``restore`` stages write/read a model bundle.

    ``path`` is the :class:`~repro.serve.ModelArtifact` bundle directory;
    ``name`` overrides the manifest's model name (default: the
    experiment name); ``include_model`` also bundles the trained ANN
    state dict for later re-derivation.
    """

    path: str = ""
    name: str = ""
    include_model: bool = True


@dataclass(frozen=True)
class AnalysisConfig:
    """Parameters of the analytic stages (fig2 / fig6 / table4 / latency)."""

    window: int = 24
    tau: float = 4.0
    layers: int = 16
    early_firing: bool = False

    def __post_init__(self):
        if self.window < 1:
            raise ConfigError("analysis.window must be >= 1")
        if self.layers < 1:
            raise ConfigError("analysis.layers must be >= 1")


#: Section name -> dataclass type (drives dict loading and validation).
SECTION_TYPES: Dict[str, type] = {
    "dataset": DatasetConfig,
    "model": ModelConfig,
    "train": TrainConfig,
    "convert": ConvertConfig,
    "quantize": QuantizeConfig,
    "simulate": SimulateConfig,
    "hardware": HardwareConfig,
    "artifact": ArtifactConfig,
    "analysis": AnalysisConfig,
}


@dataclass(frozen=True)
class ExperimentConfig:
    """The root of the tree: pipeline stage list plus one section each."""

    name: str = "experiment"
    stages: Tuple[str, ...] = DEFAULT_STAGES
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    convert: ConvertConfig = field(default_factory=ConvertConfig)
    quantize: QuantizeConfig = field(default_factory=QuantizeConfig)
    simulate: SimulateConfig = field(default_factory=SimulateConfig)
    hardware: HardwareConfig = field(default_factory=HardwareConfig)
    artifact: ArtifactConfig = field(default_factory=ArtifactConfig)
    analysis: AnalysisConfig = field(default_factory=AnalysisConfig)

    def __post_init__(self):
        from .stages import STAGES

        if not self.stages:
            raise ConfigError("stages must list at least one stage")
        for stage in self.stages:
            _check_name("stages", STAGES, stage)
        if len(set(self.stages)) != len(self.stages):
            raise ConfigError(f"stages contains duplicates: {self.stages}")


# ----------------------------------------------------------------------
# Strict dict/file loading
# ----------------------------------------------------------------------

def _coerce(value: Any, annotation: Any, path: str) -> Any:
    """Check/convert one scalar-ish field value, with a typed error."""
    if annotation in ("int", int):
        # bool subclasses int; accepting True for an int field hides typos
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{path} must be an integer, "
                              f"got {type(value).__name__} {value!r}")
        return value
    if annotation in ("float", float):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{path} must be a number, "
                              f"got {type(value).__name__} {value!r}")
        return float(value)
    if annotation in ("bool", bool):
        if not isinstance(value, bool):
            raise ConfigError(f"{path} must be true/false, "
                              f"got {type(value).__name__} {value!r}")
        return value
    if annotation in ("str", str):
        if not isinstance(value, str):
            raise ConfigError(f"{path} must be a string, "
                              f"got {type(value).__name__} {value!r}")
        return value
    # tuple fields (currently all integer-valued, e.g. milestones):
    # accept any sequence but validate the elements now, not mid-training
    if isinstance(value, (list, tuple)):
        for item in value:
            if isinstance(item, bool) or not isinstance(item, int):
                raise ConfigError(
                    f"{path} must be a list of integers, got "
                    f"{type(item).__name__} {item!r}")
        return tuple(value)
    raise ConfigError(f"{path} has unsupported value {value!r}")


def _section_from_dict(cls: type, data: Mapping[str, Any],
                       path: str) -> Any:
    if not isinstance(data, Mapping):
        raise ConfigError(f"{path} must be a table/object, "
                          f"got {type(data).__name__}")
    valid = {f.name: f for f in dataclasses.fields(cls)}
    kwargs: Dict[str, Any] = {}
    for key, value in data.items():
        if key not in valid:
            raise ConfigError(
                f"unknown field {key!r} in {path};"
                f"{did_you_mean(key, valid)} valid fields: "
                f"{', '.join(sorted(valid))}")
        kwargs[key] = _coerce(value, valid[key].type, f"{path}.{key}")
    return cls(**kwargs)


def config_from_dict(data: Mapping[str, Any]) -> ExperimentConfig:
    """Build a strictly-validated :class:`ExperimentConfig` from a dict."""
    if not isinstance(data, Mapping):
        raise ConfigError("experiment config must be a table/object at "
                          f"the top level, got {type(data).__name__}")
    valid = {f.name for f in dataclasses.fields(ExperimentConfig)}
    kwargs: Dict[str, Any] = {}
    for key, value in data.items():
        if key not in valid:
            raise ConfigError(
                f"unknown field {key!r} in experiment config;"
                f"{did_you_mean(key, valid)} valid fields: "
                f"{', '.join(sorted(valid))}")
        if key in SECTION_TYPES:
            kwargs[key] = _section_from_dict(SECTION_TYPES[key], value, key)
        elif key == "stages":
            if not isinstance(value, (list, tuple)) or not all(
                    isinstance(s, str) for s in value):
                raise ConfigError("stages must be a list of stage names")
            kwargs[key] = tuple(value)
        else:  # name
            kwargs[key] = _coerce(value, str, key)
    return ExperimentConfig(**kwargs)


def _toml_module():
    """stdlib tomllib (3.11+) or the API-compatible tomli backport."""
    try:
        import tomllib

        return tomllib
    except ImportError:
        try:
            import tomli

            return tomli
        except ImportError:
            return None


def config_from_file(path) -> ExperimentConfig:
    """Load a config from a ``.json`` or ``.toml`` file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    suffix = path.suffix.lower()
    if suffix == ".json":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path} is not valid JSON: {exc}") from None
    elif suffix == ".toml":
        toml = _toml_module()
        if toml is None:
            raise ConfigError(
                "TOML configs need Python >= 3.11 (tomllib) or the "
                "tomli package; use a JSON config instead")
        try:
            data = toml.loads(text)
        except toml.TOMLDecodeError as exc:
            raise ConfigError(f"{path} is not valid TOML: {exc}") from None
    else:
        raise ConfigError(
            f"unsupported config extension {path.suffix!r} for {path}; "
            "use .json or .toml")
    return config_from_dict(data)


def config_to_dict(config: ExperimentConfig) -> Dict[str, Any]:
    """JSON-able dict mirror of a config (inverse of loading)."""
    out = dataclasses.asdict(config)
    out["stages"] = list(config.stages)
    out["train"]["milestones"] = list(config.train.milestones)
    return out
