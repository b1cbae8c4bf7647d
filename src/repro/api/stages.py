"""Pipeline stages: the units the :class:`~repro.api.Experiment` chains.

A stage is anything satisfying the :class:`Stage` protocol — a ``name``,
a ``run(ctx)`` that reads/extends the shared :class:`PipelineContext`,
and a ``cache_key(ctx)`` fingerprinting everything its output depends on
(``None`` opts out of caching).  Cacheable stages additionally implement
``export``/``restore`` so the driver can persist their artifacts through
:class:`repro.engine.cache.ResultCache` and rehydrate a later run
without re-executing anything.

The five paper-pipeline stages wrap the existing subsystems one-to-one:

========== ==========================================================
``train``     :func:`repro.cat.train_cat` (CATTrainer) on the config's
              model/dataset — including the micro-VGG path that used to
              live in the CLI as ``_train_micro_snn``
``convert``   :func:`repro.cat.convert` (BN fusion, spec extraction,
              output weight normalisation)
``quantize``  :func:`repro.quant.quantize_snn` (log-domain PTQ)
``simulate``  :class:`repro.engine.PipelineRunner` over any registered
              coding scheme
``hardware``  :class:`repro.hw.SNNProcessor` on the converted geometry
              with a measured/simulated firing profile
========== ==========================================================

``restore`` loads a prebuilt :class:`~repro.serve.ModelArtifact`
bundle in place of the build stages (``repro build`` writes bundles).
Four analytic stages (``fig2``/``fig6``/``table4``/``latency``) expose
the instant paper artefacts through the same pipeline, so ``repro run``
is their one command.

Stages register by name through :func:`register_stage` into
:data:`STAGES`, a :class:`repro.util.Registry` like the coding schemes'
in :mod:`repro.engine.registry`, so third-party stages plug in the same
way.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Protocol, runtime_checkable

import numpy as np

from ..engine.cache import digest
from ..util import Registry
from .config import ARCHITECTURES, ExperimentConfig


class PipelineError(RuntimeError):
    """A stage could not run (message says which input is missing/why)."""


@dataclass
class PipelineContext:
    """Mutable state threaded through the stage chain.

    Stages communicate exclusively through this object: upstream stages
    populate fields, downstream stages ``require`` them.  ``metrics`` is
    the JSON-able per-stage summary that ends up in the
    :class:`~repro.api.experiment.ExperimentReport`; ``artifacts`` holds
    rich in-memory objects (figure curves, processor reports) that
    callers may inspect after a run but that never serialise.
    """

    config: ExperimentConfig
    dataset: Any = None
    model: Any = None
    train_history: List[Dict[str, Any]] = field(default_factory=list)
    snn: Any = None
    quant_report: Any = None
    sim_result: Any = None
    metrics: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    artifacts: Dict[str, Any] = field(default_factory=dict)

    def ensure_dataset(self):
        """The configured dataset, loaded once and memoised.

        ``dataset.shards`` opens an on-disk shard directory (streamed by
        the training stage); otherwise the named generator materialises
        in memory.
        """
        if self.dataset is None:
            if self.config.dataset.shards:
                from ..data import open_shards

                self.dataset = open_shards(self.config.dataset.shards)
            else:
                from ..data import load

                self.dataset = load(self.config.dataset.name)
        return self.dataset

    def require(self, attr: str, stage: str, producer: str):
        """Fetch a context field, failing actionably when absent."""
        value = getattr(self, attr)
        if value is None:
            raise PipelineError(
                f"stage '{stage}' needs context field {attr!r}, which no "
                f"earlier stage produced; add '{producer}' before "
                f"'{stage}' in the config's stages list")
        return value


@runtime_checkable
class Stage(Protocol):
    """What the :class:`~repro.api.Experiment` driver chains."""

    name: str

    def cache_key(self, ctx: PipelineContext) -> Optional[str]:
        """Digest of everything the stage output depends on (None = skip)."""
        ...

    def run(self, ctx: PipelineContext) -> PipelineContext:
        """Execute the stage, mutating and returning ``ctx``."""
        ...


class PipelineStage:
    """Convenience base: uncached by default, config captured at build."""

    name = "stage"

    def __init__(self, config: ExperimentConfig):
        self.config = config

    def cache_key(self, ctx: PipelineContext) -> Optional[str]:
        return None

    def run(self, ctx: PipelineContext) -> PipelineContext:
        raise NotImplementedError

    # Cacheable stages override both; export returns the payload the
    # driver stores, restore rehydrates a context from it.
    def export(self, ctx: PipelineContext) -> Any:
        return None

    def restore(self, ctx: PipelineContext, payload: Any) -> PipelineContext:
        raise PipelineError(f"stage '{self.name}' does not support restore")


# ----------------------------------------------------------------------
# Stage registry (a repro.util.Registry, like the coding-scheme one)
# ----------------------------------------------------------------------

#: Every pipeline stage, by name: ``factory(config) -> Stage``.
STAGES = Registry("pipeline stage")

register_stage = STAGES.register
get_stage = STAGES.create
available_stages = STAGES.names


# ----------------------------------------------------------------------
# The paper pipeline
# ----------------------------------------------------------------------

# Cache keys digest the stage's *actual* inputs — the dataset contents,
# model weights, converted network — not just the config sections.  A
# context-injected model/dataset (Experiment.run(context=...),
# train_micro_snn(preloaded=...)) therefore keys differently from a
# config-derived one and can never replay the wrong cached results.

def _dataset_digest(dataset) -> str:
    content = getattr(dataset, "content_digest", None)
    if content is not None:
        # Sharded datasets already carry a manifest digest covering every
        # shard's contents — reuse it instead of materialising the train
        # split just to hash it.
        return digest("dataset-sharded", content)
    return digest("dataset", dataset.name, dataset.num_classes,
                  dataset.train_x, dataset.train_y, dataset.test_x,
                  dataset.test_y)


def _model_digest(model) -> str:
    return digest("model-state", model.state_dict())


def _snn_digest(snn) -> str:
    return digest("snn", snn.layers, snn.config, float(snn.output_scale))


def _install_final_activations(model, cat_config) -> None:
    """Put a freshly-built model into its end-of-schedule CAT state.

    ``state_dict`` round-trips parameters and buffers but not the
    scheduled activation functions, so a cache-restored model must have
    the final stage's activation (and input encoding) reinstalled to
    compute identically to the live trained one.
    """
    from ..cat import make_activation

    stage = cat_config.stage_at(cat_config.epochs - 1)
    model.set_hidden_activation(
        make_activation(stage, cat_config.window, cat_config.tau,
                        cat_config.theta0, cat_config.base), stage)
    if cat_config.uses_input_encoding:
        model.set_input_encoding(
            make_activation("ttfs", cat_config.window, cat_config.tau,
                            cat_config.theta0, cat_config.base),
            "ttfs-input")
    else:
        model.set_input_encoding(lambda t: t, "identity")


@register_stage("train")
class TrainStage(PipelineStage):
    """Conversion-aware training of the configured model (CATTrainer)."""

    name = "train"

    def cache_key(self, ctx):
        # verbose is presentation-only: excluded so toggling it reuses
        # the same entry
        train_cfg = dataclasses.replace(self.config.train, verbose=False)
        return digest("train", _dataset_digest(ctx.ensure_dataset()),
                      self.config.model, train_cfg)

    def run(self, ctx):
        from ..cat import train_cat
        from ..nn import init as nninit

        dataset = ctx.ensure_dataset()
        cfg = self.config
        nninit.seed(cfg.model.seed)
        model = ARCHITECTURES.create(
            cfg.model.arch, num_classes=dataset.num_classes,
            input_size=dataset.image_shape[-1])
        # the prefetch knob only matters for streamed shards; in-memory
        # datasets keep the loader's synchronous default
        prefetch = cfg.dataset.prefetch if cfg.dataset.shards else None
        result = train_cat(model, dataset, cfg.train.cat_config(
            seed=cfg.model.seed), verbose=cfg.train.verbose,
            prefetch=prefetch)
        ctx.model = model
        ctx.train_history = [dataclasses.asdict(r) for r in result.history]
        ctx.metrics["train"] = {
            "epochs": len(result.history),
            "final_test_acc": result.final_test_acc,
            "best_test_acc": result.best_test_acc,
            "images_per_s": (result.history[-1].images_per_s
                             if result.history else 0.0),
        }
        return ctx

    def export(self, ctx):
        return {"state": ctx.model.state_dict(),
                "history": ctx.train_history,
                "metrics": ctx.metrics["train"]}

    def restore(self, ctx, payload):
        dataset = ctx.ensure_dataset()
        cfg = self.config
        model = ARCHITECTURES.create(
            cfg.model.arch, num_classes=dataset.num_classes,
            input_size=dataset.image_shape[-1])
        model.load_state_dict(payload["state"])
        _install_final_activations(model, cfg.train.cat_config(
            seed=cfg.model.seed))
        model.eval()
        ctx.model = model
        ctx.train_history = payload["history"]
        ctx.metrics["train"] = payload["metrics"]
        return ctx


@register_stage("convert")
class ConvertStage(PipelineStage):
    """ANN-to-SNN conversion of the trained model (BN fusion + norm)."""

    name = "convert"

    def cache_key(self, ctx):
        model = ctx.require("model", self.name, "train")
        train_cfg = dataclasses.replace(self.config.train, verbose=False)
        return digest("convert", self.config.convert, train_cfg,
                      self.config.model.seed, _model_digest(model),
                      _dataset_digest(ctx.ensure_dataset()))

    def run(self, ctx):
        from ..cat import convert, evaluate

        model = ctx.require("model", self.name, "train")
        dataset = ctx.ensure_dataset()
        cfg = self.config
        # train_head works for both in-memory and sharded datasets (the
        # latter gathers only the head instead of the whole train split)
        calibration = (dataset.train_head(cfg.convert.calibration)
                       if cfg.convert.calibration else None)
        snn = convert(model, cfg.train.cat_config(seed=cfg.model.seed),
                      calibration=calibration)
        ctx.snn = snn
        metrics: Dict[str, Any] = {
            "weight_layers": len(snn.weight_layers),
            "latency_timesteps": snn.latency_timesteps,
            "output_scale": float(snn.output_scale),
        }
        if cfg.convert.evaluate:
            ann = evaluate(model, dataset.test_x, dataset.test_y)
            acc = snn.accuracy(dataset.test_x, dataset.test_y)
            metrics.update(ann_accuracy=ann, snn_accuracy=acc,
                           conversion_loss_pp=100.0 * (acc - ann))
        ctx.metrics["convert"] = metrics
        return ctx

    def export(self, ctx):
        return {"snn": ctx.snn, "metrics": ctx.metrics["convert"]}

    def restore(self, ctx, payload):
        ctx.snn = payload["snn"]
        ctx.metrics["convert"] = payload["metrics"]
        return ctx


@register_stage("quantize")
class QuantizeStage(PipelineStage):
    """Post-training log quantisation of the converted SNN's weights."""

    name = "quantize"

    def cache_key(self, ctx):
        snn = ctx.require("snn", self.name, "convert")
        return digest("quantize", self.config.quantize, _snn_digest(snn))

    def run(self, ctx):
        from ..quant import LogQuantConfig, quantize_snn

        snn = ctx.require("snn", self.name, "convert")
        cfg = self.config.quantize
        quantized, report = quantize_snn(
            snn, LogQuantConfig(bits=cfg.bits, z_w=cfg.z_w))
        ctx.snn = quantized          # downstream stages see quantised weights
        ctx.quant_report = report
        ctx.metrics["quantize"] = {
            "bits": cfg.bits,
            "z_w": cfg.z_w,
            "mean_mse": float(np.mean(report.mse)) if report.mse else 0.0,
            "mean_zero_fraction": (float(np.mean(report.zero_fraction))
                                   if report.zero_fraction else 0.0),
        }
        return ctx

    def export(self, ctx):
        return {"snn": ctx.snn, "report": ctx.quant_report,
                "metrics": ctx.metrics["quantize"]}

    def restore(self, ctx, payload):
        ctx.snn = payload["snn"]
        ctx.quant_report = payload["report"]
        ctx.metrics["quantize"] = payload["metrics"]
        return ctx


@register_stage("simulate")
class SimulateStage(PipelineStage):
    """Run the converted/quantised SNN through a registered coding scheme."""

    name = "simulate"

    def cache_key(self, ctx):
        snn = ctx.require("snn", self.name, "convert")
        x, _ = self._test_split(ctx)
        return digest("simulate", self.config.simulate, _snn_digest(snn),
                      np.asarray(x))

    def _test_split(self, ctx):
        dataset = ctx.ensure_dataset()
        limit = self.config.simulate.limit
        x, y = dataset.test_x, dataset.test_y
        if limit:
            x, y = x[:limit], y[:limit]
        return x, y

    def run(self, ctx):
        from ..engine import PipelineRunner, create_scheme, result_predictions

        snn = ctx.require("snn", self.name, "convert")
        cfg = self.config.simulate
        x, y = self._test_split(ctx)
        # backend goes through the runner, not the factory, so custom
        # schemes whose constructors know nothing about backends still
        # build (they simply ignore the attribute)
        scheme = create_scheme(cfg.scheme, snn)
        runner = PipelineRunner(scheme, max_batch=cfg.max_batch,
                                backend=cfg.backend)
        t0 = time.perf_counter()
        result = runner.run(x)
        elapsed = time.perf_counter() - t0
        preds = result_predictions(result)
        ctx.sim_result = result
        metrics: Dict[str, Any] = {
            "scheme": cfg.scheme,
            "backend": cfg.backend,
            "num_images": int(len(x)),
            "max_batch": cfg.max_batch,
            "accuracy": float((preds == y).mean()),
            "elapsed_s": float(elapsed),
        }
        for attr in ("total_spikes", "total_sops", "agreement",
                     "max_membrane_drift"):
            value = getattr(result, attr, None)
            if value is not None:
                metrics[attr] = (float(value) if isinstance(value, float)
                                 else int(value))
        ctx.metrics["simulate"] = metrics
        return ctx

    def export(self, ctx):
        return {"result": ctx.sim_result, "metrics": ctx.metrics["simulate"]}

    def restore(self, ctx, payload):
        ctx.sim_result = payload["result"]
        ctx.metrics["simulate"] = payload["metrics"]
        return ctx


@register_stage("hardware")
class HardwareStage(PipelineStage):
    """Processor performance/energy report for the converted network."""

    name = "hardware"

    def cache_key(self, ctx):
        snn = ctx.require("snn", self.name, "convert")
        return digest("hardware", self.config.hardware, _snn_digest(snn),
                      ctx.sim_result)

    def _profile(self, ctx, num_weight_layers: int):
        from ..hw import (
            MEASURED_VGG_PROFILE,
            profile_from_simulation,
            uniform_profile,
        )

        cfg = self.config.hardware
        if cfg.profile == "simulate":
            result = ctx.sim_result
            if result is not None and getattr(result, "traces", None):
                return profile_from_simulation(result), "simulate"
            # no simulated traces available (e.g. simulate stage skipped
            # or the scheme records none): fall back to the measured one
            return MEASURED_VGG_PROFILE, "measured"
        if cfg.profile == "measured":
            return MEASURED_VGG_PROFILE, "measured"
        return uniform_profile(cfg.uniform_rate, num_weight_layers), "uniform"

    def run(self, ctx):
        from ..hw import SNNProcessor, geometry_from_converted

        snn = ctx.require("snn", self.name, "convert")
        dataset = ctx.ensure_dataset()
        geometry = geometry_from_converted(
            snn, input_shape=(1, *dataset.image_shape))
        profile, profile_source = self._profile(ctx, len(geometry.layers))
        processor = SNNProcessor()
        report = processor.run(geometry, profile)
        ctx.artifacts["hardware_report"] = report
        ctx.metrics["hardware"] = {
            "profile": profile_source,
            "fps": float(report.fps),
            "energy_per_image_uj": float(report.energy_per_image_uj),
            "core_energy_uj": float(report.core_energy_uj),
            "dram_energy_uj": float(report.dram_energy_uj),
            "area_mm2": float(report.area_mm2),
            "power_mw": float(report.power_mw),
            "total_cycles": int(report.total_cycles),
            "total_sops": int(report.total_sops),
        }
        return ctx

    def export(self, ctx):
        return {"metrics": ctx.metrics["hardware"]}

    def restore(self, ctx, payload):
        ctx.metrics["hardware"] = payload["metrics"]
        return ctx


# ----------------------------------------------------------------------
# Run-time entry: consume a ModelArtifact bundle
# ----------------------------------------------------------------------

@register_stage("restore")
class RestoreStage(PipelineStage):
    """Load a ModelArtifact bundle into the context (skips build time).

    The run-time entry point of a pipeline: ``("restore", "simulate")``
    evaluates a prebuilt bundle without ever touching train/convert/
    quantize.
    """

    name = "restore"

    def run(self, ctx):
        from ..serve import ArtifactError, ModelArtifact

        cfg = self.config.artifact
        if not cfg.path:
            raise PipelineError(
                "stage 'restore' needs artifact.path set in the config "
                "(the bundle directory to read)")
        try:
            artifact = ModelArtifact.load(cfg.path)
        except ArtifactError as exc:
            raise PipelineError(str(exc)) from None
        ctx.snn = artifact.snn
        ctx.artifacts["model_artifact"] = artifact
        ctx.metrics["restore"] = {
            "path": str(artifact.path),
            "name": artifact.name,
            "scheme": artifact.scheme,
            "backend": artifact.backend,
            "quantization": artifact.quantization,
        }
        return ctx


# ----------------------------------------------------------------------
# Analytic stages (instant paper artefacts; uncached by design)
# ----------------------------------------------------------------------

@register_stage("fig2")
class Fig2Stage(PipelineStage):
    """Activation/representation-error curves (paper Fig. 2)."""

    name = "fig2"

    def run(self, ctx):
        from ..cat import activation_curves

        cfg = self.config.analysis
        curves = activation_curves(window=cfg.window, tau=cfg.tau)
        ctx.artifacts["fig2_curves"] = curves
        # the figure's curves at 13 evenly spaced inputs
        idx = np.linspace(0, len(curves.inputs) - 1, 13).astype(int)
        curve = {"x": np.round(curves.inputs[idx], 3).tolist()}
        curve.update({k: np.round(curves.errors[k][idx], 4).tolist()
                      for k in ("relu", "clip", "ttfs")})
        ctx.metrics["fig2"] = {
            "window": cfg.window,
            "tau": cfg.tau,
            "max_error": {k: float(curves.max_error(k))
                          for k in ("ttfs", "clip", "relu")},
            "curve": curve,
        }
        return ctx


@register_stage("fig6")
class Fig6Stage(PipelineStage):
    """PE-array area/power design points (paper Fig. 6)."""

    name = "fig6"

    def run(self, ctx):
        from ..hw import fig6_design_points

        result = fig6_design_points()
        ctx.artifacts["fig6_result"] = result
        ctx.metrics["fig6"] = {
            "area_saving_cat": float(result.area_saving_cat),
            "power_saving_cat": float(result.power_saving_cat),
            "area_saving_log": float(result.area_saving_log),
            "power_saving_log": float(result.power_saving_log),
            # the figure's bars, normalised to the baseline PE array
            "normalised": result.normalized_series(),
        }
        return ctx


@register_stage("table4")
class Table4Stage(PipelineStage):
    """Processor-vs-TPU comparison on exact VGG-16 geometry (Table 4)."""

    name = "table4"

    WORKLOADS = (("cifar10", (32, 10)), ("cifar100", (32, 100)),
                 ("tiny-imagenet", (64, 200)))

    def run(self, ctx):
        from ..hw import (
            MEASURED_VGG_PROFILE,
            SNNProcessor,
            TPULikeProcessor,
            vgg16_geometry,
        )

        proc, tpu = SNNProcessor(), TPULikeProcessor()
        rows = []
        for name, (size, classes) in self.WORKLOADS:
            geo = vgg16_geometry(input_size=size, num_classes=classes)
            ours = proc.run(geo, MEASURED_VGG_PROFILE)
            theirs = tpu.run(geo)
            rows.append({
                "workload": name,
                "snn_fps": round(ours.fps, 1),
                "snn_uj_per_image": round(ours.energy_per_image_uj, 1),
                "tpu_fps": round(theirs.fps, 1),
                "tpu_uj_per_image": round(theirs.energy_per_image_uj, 1),
            })
        ctx.metrics["table4"] = {"area_mm2": float(proc.area_mm2()),
                                 "rows": rows}
        return ctx


@register_stage("latency")
class LatencyStage(PipelineStage):
    """TTFS pipeline latency calculator (Table 2 formula)."""

    name = "latency"

    def run(self, ctx):
        from ..analysis import latency_timesteps

        cfg = self.config.analysis
        ctx.metrics["latency"] = {
            "layers": cfg.layers,
            "window": cfg.window,
            "early_firing": cfg.early_firing,
            "timesteps": int(latency_timesteps(
                cfg.layers, cfg.window, early_firing=cfg.early_firing)),
        }
        return ctx
