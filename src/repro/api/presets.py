"""Named experiment configs and the builders the CLI commands use.

:data:`PRESETS` holds the configs ``repro run --preset`` / ``repro
build --preset`` name: ``micro-smoke`` and ``micro-full`` (the micro-VGG
pipeline) and ``paper-artefacts`` (Fig. 2, Fig. 6, Table 4 and the
Table 2 latency as analytic stages).  The builders turn ``repro
simulate``'s flags into an :class:`~repro.api.config.ExperimentConfig`
for the same :class:`~repro.api.experiment.Experiment` driver ``repro
run`` uses; tests assert CLI/driver parity by calling them directly.

:func:`train_micro_snn` trains and converts the micro VGG through the
train/convert stages (optionally against a stage cache) for ``repro
evaluate`` and returns the :class:`~repro.cat.convert.ConvertedSNN`.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..util import Registry
from .config import (
    ArtifactConfig,
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
    """Train + convert the micro VGG.

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
