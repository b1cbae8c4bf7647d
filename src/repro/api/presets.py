"""Preset experiment configs and the builders the CLI wrappers use.

Every legacy CLI subcommand is now a thin shell over one of these
builders: it parses its (unchanged) flags, builds an
:class:`~repro.api.config.ExperimentConfig`, and hands it to the same
:class:`~repro.api.experiment.Experiment` driver that ``repro run``
uses.  The builders are public API — tests assert CLI/driver parity by
calling them directly.

:func:`train_micro_snn` is the small-model path that used to live in
``repro.cli._train_micro_snn``: train + convert the micro VGG through
the train/convert stages (optionally against a stage cache) and return
the :class:`~repro.cat.convert.ConvertedSNN`.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..util import Registry
from .config import (
    AnalysisConfig,
    ArtifactConfig,
    ConvertConfig,
    DatasetConfig,
    ExperimentConfig,
    ModelConfig,
    QuantizeConfig,
    SimulateConfig,
    TrainConfig,
)


def micro_train_config(window: int = 8, tau: float = 2.0,
                       epochs: int = 2) -> TrainConfig:
    """The micro-VGG training recipe (1 warm-up epoch, scaled schedule)."""
    return TrainConfig(window=window, tau=tau, method="I+II+III",
                       epochs=epochs, relu_epochs=1)


def micro_pipeline_config(dataset: str = "mini-cifar10", window: int = 8,
                          tau: float = 2.0, epochs: int = 2, seed: int = 0,
                          scheme: str = "ttfs-closed-form",
                          max_batch: int = 32, limit: int = 0,
                          backend: str = "dense",
                          stages=("train", "convert", "simulate"),
                          name: str = "micro-pipeline") -> ExperimentConfig:
    """Micro-VGG pipeline over an arbitrary stage subset."""
    return ExperimentConfig(
        name=name,
        stages=tuple(stages),
        dataset=DatasetConfig(name=dataset),
        model=ModelConfig(arch="vgg_micro", seed=seed),
        train=micro_train_config(window, tau, epochs),
        simulate=SimulateConfig(scheme=scheme, max_batch=max_batch,
                                limit=limit, backend=backend),
    )


def train_config(dataset: str, model: str, method: str, window: int,
                 tau: float, epochs: int, lr: float,
                 seed: int) -> ExperimentConfig:
    """``repro train``: CAT demo — train, convert, evaluate both nets."""
    return ExperimentConfig(
        name=f"train-{model}-{dataset}",
        stages=("train", "convert"),
        dataset=DatasetConfig(name=dataset),
        model=ModelConfig(arch=model, seed=seed),
        train=TrainConfig(window=window, tau=tau, method=method,
                          epochs=epochs, lr=lr, verbose=True),
        convert=ConvertConfig(evaluate=True),
    )


def simulate_config(dataset: str, scheme: str, max_batch: int, window: int,
                    tau: float, epochs: int, seed: int, limit: int = 0,
                    backend: str = "dense") -> ExperimentConfig:
    """``repro simulate``: micro train + convert + engine simulation."""
    return micro_pipeline_config(
        dataset=dataset, window=window, tau=tau, epochs=epochs, seed=seed,
        scheme=scheme, max_batch=max_batch, limit=limit, backend=backend,
        name=f"simulate-{scheme}")


def artifact_simulate_config(artifact_path, dataset: str = "mini-cifar10",
                             scheme: str = "", max_batch: int = 0,
                             limit: int = 0, backend: str = "",
                             name: str = "artifact-simulate"
                             ) -> ExperimentConfig:
    """``repro simulate --artifact``: restore a bundle, then simulate.

    Scheme/backend/max_batch default to what the bundle's manifest
    recorded at build time; pass non-empty/non-zero values to override.
    """
    from ..serve import ModelArtifact

    # manifest-only read: the restore stage load()s (and so digest-
    # verifies) the bundle once, when the pipeline actually runs
    artifact = ModelArtifact.peek(artifact_path)
    return ExperimentConfig(
        name=name, stages=("restore", "simulate"),
        dataset=DatasetConfig(name=dataset),
        simulate=SimulateConfig(
            scheme=scheme or artifact.scheme,
            backend=backend or artifact.backend,
            max_batch=max_batch or artifact.max_batch,
            limit=limit),
        artifact=ArtifactConfig(path=str(artifact_path)))


def artifact_export_defaults(artifact_path, scheme: str = "") -> dict:
    """``repro export``: resolved parameters for exporting a bundle.

    A manifest-only peek (no weight load): the coding scheme the export
    will compile — the bundle's recorded scheme unless overridden — plus
    the settings every target backend records alongside it (see
    :mod:`repro.targets`).
    """
    from ..engine import resolve_scheme_name
    from ..serve import ModelArtifact

    artifact = ModelArtifact.peek(artifact_path)
    return {
        "name": artifact.name,
        "scheme": resolve_scheme_name(scheme or artifact.scheme),
        "backend": artifact.backend,
        "max_batch": artifact.max_batch,
        "input_shape": artifact.input_shape,
    }


def fig2_config(window: int = 24, tau: float = 4.0) -> ExperimentConfig:
    """``repro fig2``: the activation-error curves, as a pipeline."""
    return ExperimentConfig(name="fig2", stages=("fig2",),
                            analysis=AnalysisConfig(window=window, tau=tau))


def fig6_config() -> ExperimentConfig:
    """``repro fig6``: PE-array design points, as a pipeline."""
    return ExperimentConfig(name="fig6", stages=("fig6",))


def table4_config() -> ExperimentConfig:
    """``repro table4``: the processor comparison, as a pipeline."""
    return ExperimentConfig(name="table4", stages=("table4",))


def latency_config(layers: int = 16, window: int = 24,
                   early_firing: bool = False) -> ExperimentConfig:
    """``repro latency``: the Table 2 latency formula, as a pipeline."""
    return ExperimentConfig(
        name="latency", stages=("latency",),
        analysis=AnalysisConfig(layers=layers, window=window,
                                early_firing=early_firing))


#: Named presets for ``repro run --preset`` (builders so each call gets
#: a fresh, independently-validated config).
PRESETS = Registry("preset")

available_presets = PRESETS.names
preset_config = PRESETS.create


PRESETS.register("micro-smoke", lambda: ExperimentConfig(
    name="micro-smoke",
    dataset=DatasetConfig(name="mini-cifar10"),
    model=ModelConfig(arch="vgg_micro"),
    train=TrainConfig(window=6, tau=2.0, epochs=1, relu_epochs=1),
    quantize=QuantizeConfig(bits=5, z_w=1),
    simulate=SimulateConfig(scheme="ttfs-closed-form", max_batch=8,
                            limit=16),
))
PRESETS.register("micro-full", lambda: ExperimentConfig(
    name="micro-full",
    dataset=DatasetConfig(name="mini-cifar10"),
    model=ModelConfig(arch="vgg_micro"),
    train=TrainConfig(window=8, tau=2.0, epochs=2, relu_epochs=1),
))
PRESETS.register("paper-artefacts", lambda: ExperimentConfig(
    name="paper-artefacts", stages=("fig2", "fig6", "table4", "latency")))


# ----------------------------------------------------------------------
def train_micro_snn(dataset: str, window: int, tau: float, epochs: int,
                    seed: int, cache=None, preloaded=None,
                    on_stage_start: Optional[Callable] = None,
                    on_stage_end: Optional[Callable] = None):
    """Train + convert the micro VGG (the CLI's former in-line helper).

    Runs the train and convert stages through the experiment driver —
    so a stage ``cache`` makes repeat invocations (e.g. ``repro
    evaluate`` re-runs) skip training entirely — and returns the
    resulting :class:`~repro.cat.convert.ConvertedSNN`.  ``preloaded``
    is an already-loaded :class:`~repro.data.Dataset` matching
    ``dataset`` (saves regenerating it when the caller has one).
    """
    from .experiment import Experiment
    from .stages import PipelineContext

    config = micro_pipeline_config(dataset=dataset, window=window, tau=tau,
                                   epochs=epochs, seed=seed,
                                   stages=("train", "convert"),
                                   name="train-micro-snn")
    context = PipelineContext(config=config, dataset=preloaded)
    report = Experiment(config, cache=cache,
                        on_stage_start=on_stage_start,
                        on_stage_end=on_stage_end).run(context=context)
    return report.context.snn
