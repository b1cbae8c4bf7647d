"""Stage registry, context plumbing, and individual stage behaviour."""

import numpy as np
import pytest

from repro.api import (
    ExperimentConfig,
    PipelineContext,
    PipelineError,
    available_stages,
    get_stage,
)
from repro.api.config import (
    AnalysisConfig,
    ConvertConfig,
    QuantizeConfig,
    SimulateConfig,
    TrainConfig,
)


def micro_config(**overrides) -> ExperimentConfig:
    defaults = dict(
        train=TrainConfig(window=6, epochs=1, relu_epochs=1),
        simulate=SimulateConfig(max_batch=8, limit=8),
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


@pytest.fixture()
def ctx(tiny_dataset):
    """A context over the shared tiny dataset (no disk, no download)."""
    return PipelineContext(config=micro_config(), dataset=tiny_dataset)


class TestRegistry:
    def test_builtin_stages_are_listed(self):
        stages = available_stages()
        for name in ("train", "convert", "quantize", "simulate",
                     "hardware", "fig2", "fig6", "table4", "latency"):
            assert name in stages

    def test_unknown_stage_gets_a_suggestion(self):
        with pytest.raises(KeyError, match="unknown pipeline stage "
                                           "'quantise'.*did you mean "
                                           "'quantize'"):
            get_stage("quantise", ExperimentConfig())

    def test_get_stage_builds_from_config(self):
        stage = get_stage("train", ExperimentConfig())
        assert stage.name == "train"


class TestContext:
    def test_require_missing_field_is_actionable(self, ctx):
        with pytest.raises(PipelineError, match="stage 'convert' needs "
                                                "context field 'model'.*"
                                                "add 'train'"):
            ctx.require("model", "convert", "train")

    def test_ensure_dataset_prefers_preloaded(self, ctx, tiny_dataset):
        assert ctx.ensure_dataset() is tiny_dataset


class TestPipelineStages:
    @pytest.fixture(scope="class")
    def base_ctx(self, tiny_dataset):
        """Context after train + convert (never mutated by the tests)."""
        config = micro_config()
        ctx = PipelineContext(config=config, dataset=tiny_dataset)
        get_stage("train", config).run(ctx)
        get_stage("convert", config).run(ctx)
        return ctx

    @pytest.fixture()
    def fresh_ctx(self, base_ctx):
        """An independent context sharing the trained model + SNN."""
        return PipelineContext(config=base_ctx.config,
                               dataset=base_ctx.dataset,
                               model=base_ctx.model, snn=base_ctx.snn)

    def test_train_populates_model_history_metrics(self, base_ctx):
        assert base_ctx.model is not None
        assert len(base_ctx.train_history) == 1
        metrics = base_ctx.metrics["train"]
        assert metrics["epochs"] == 1
        assert 0.0 <= metrics["final_test_acc"] <= 1.0

    def test_convert_produces_snn(self, base_ctx):
        snn = base_ctx.snn
        assert snn is not None
        assert base_ctx.metrics["convert"]["weight_layers"] == \
            len(snn.weight_layers)
        assert base_ctx.metrics["convert"]["latency_timesteps"] == \
            snn.latency_timesteps

    def test_quantize_replaces_weights_and_reports(self, fresh_ctx):
        before = fresh_ctx.snn.weight_layers[0].weight.copy()
        get_stage("quantize", fresh_ctx.config).run(fresh_ctx)
        after = fresh_ctx.snn.weight_layers[0].weight
        assert not np.array_equal(before, after)   # PTQ actually applied
        assert fresh_ctx.metrics["quantize"]["bits"] == 5
        assert fresh_ctx.quant_report is not None

    def test_simulate_runs_scheme_and_scores(self, fresh_ctx):
        get_stage("simulate", fresh_ctx.config).run(fresh_ctx)
        metrics = fresh_ctx.metrics["simulate"]
        assert metrics["num_images"] == 8
        assert 0.0 <= metrics["accuracy"] <= 1.0
        assert metrics["total_spikes"] > 0
        assert fresh_ctx.sim_result is not None

    def test_simulate_key_resolves_scheme_aliases(self, base_ctx):
        def key(scheme):
            config = micro_config(simulate=SimulateConfig(
                scheme=scheme, max_batch=8, limit=8))
            ctx = PipelineContext(config=config, dataset=base_ctx.dataset,
                                  snn=base_ctx.snn)
            return get_stage("simulate", config).cache_key(ctx)

        assert key("ttfs-timestep") == key("ttfs-closed-form")
        assert key("ttfs-early") != key("ttfs-closed-form")

    def test_hardware_reports_from_simulated_profile(self, fresh_ctx):
        get_stage("simulate", fresh_ctx.config).run(fresh_ctx)
        get_stage("hardware", fresh_ctx.config).run(fresh_ctx)
        metrics = fresh_ctx.metrics["hardware"]
        assert metrics["profile"] == "simulate"
        assert metrics["fps"] > 0
        assert metrics["energy_per_image_uj"] > 0
        assert fresh_ctx.artifacts["hardware_report"].total_cycles > 0

    def test_hardware_without_simulation_falls_back_to_measured(
            self, fresh_ctx):
        get_stage("hardware", fresh_ctx.config).run(fresh_ctx)
        assert fresh_ctx.metrics["hardware"]["profile"] == "measured"

    def test_simulate_without_convert_fails_actionably(self, ctx):
        with pytest.raises(PipelineError, match="add 'convert' before "
                                                "'simulate'"):
            get_stage("simulate", ctx.config).run(ctx)


class TestAnalyticStages:
    def test_fig2(self):
        config = ExperimentConfig(stages=("fig2",),
                                  analysis=AnalysisConfig(window=12,
                                                          tau=2.0))
        ctx = get_stage("fig2", config).run(PipelineContext(config=config))
        assert ctx.metrics["fig2"]["max_error"]["ttfs"] == \
            pytest.approx(0.0, abs=1e-9)
        assert "fig2_curves" in ctx.artifacts

    def test_fig6_and_table4_and_latency(self):
        config = ExperimentConfig(stages=("fig6", "table4", "latency"))
        ctx = PipelineContext(config=config)
        get_stage("fig6", config).run(ctx)
        get_stage("table4", config).run(ctx)
        get_stage("latency", config).run(ctx)
        assert 0.0 < ctx.metrics["fig6"]["area_saving_cat"] < 1.0
        assert [r["workload"] for r in ctx.metrics["table4"]["rows"]] == \
            ["cifar10", "cifar100", "tiny-imagenet"]
        assert ctx.metrics["latency"]["timesteps"] == 408  # 17 stages x 24

    def test_analytic_stages_are_uncached(self):
        config = ExperimentConfig(stages=("fig2",))
        stage = get_stage("fig2", config)
        assert stage.cache_key(PipelineContext(config=config)) is None


class TestQuantizeConfigPlumbs:
    def test_bits_flow_through(self, tiny_dataset):
        config = micro_config(quantize=QuantizeConfig(bits=3, z_w=0))
        ctx = PipelineContext(config=config, dataset=tiny_dataset)
        get_stage("train", config).run(ctx)
        get_stage("convert", config).run(ctx)
        get_stage("quantize", config).run(ctx)
        assert ctx.metrics["quantize"]["bits"] == 3
        assert ctx.metrics["quantize"]["z_w"] == 0


class TestArtifactStages:
    def _config(self, tmp_path, **overrides):
        from repro.api.config import ArtifactConfig

        return micro_config(
            stages=("train", "convert", "quantize", "export"),
            artifact=ArtifactConfig(path=str(tmp_path / "bundle")),
            **overrides)

    def test_export_requires_path(self, tiny_dataset):
        config = micro_config(stages=("train", "convert", "export"))
        ctx = PipelineContext(config=config, dataset=tiny_dataset)
        get_stage("train", config).run(ctx)
        get_stage("convert", config).run(ctx)
        with pytest.raises(PipelineError, match="artifact.path"):
            get_stage("export", config).run(ctx)

    def test_export_then_restore_round_trips_the_snn(self, tmp_path,
                                                     tiny_dataset):
        config = self._config(tmp_path)
        ctx = PipelineContext(config=config, dataset=tiny_dataset)
        for name in config.stages:
            get_stage(name, config).run(ctx)
        assert ctx.metrics["export"]["path"] == str(tmp_path / "bundle")
        assert ctx.metrics["export"]["files"] == ["model.npz", "plans.npz",
                                                  "snn.npz"]

        restore_config = micro_config(
            stages=("restore", "simulate"),
            artifact=ctx.config.artifact)
        ctx2 = PipelineContext(config=restore_config, dataset=tiny_dataset)
        get_stage("restore", restore_config).run(ctx2)
        assert ctx2.metrics["restore"]["quantization"] == \
            {"bits": 5, "z_w": 1}
        x = tiny_dataset.test_x[:6]
        np.testing.assert_allclose(ctx2.snn.forward_value(x),
                                   ctx.snn.forward_value(x))

    def test_restore_missing_bundle_is_pipeline_error(self, tmp_path,
                                                      tiny_dataset):
        from repro.api.config import ArtifactConfig

        config = micro_config(
            stages=("restore",),
            artifact=ArtifactConfig(path=str(tmp_path / "missing")))
        ctx = PipelineContext(config=config, dataset=tiny_dataset)
        with pytest.raises(PipelineError, match="no such artifact bundle"):
            get_stage("restore", config).run(ctx)

    def test_restore_requires_path(self, tiny_dataset):
        config = micro_config(stages=("restore",))
        ctx = PipelineContext(config=config, dataset=tiny_dataset)
        with pytest.raises(PipelineError, match="artifact.path"):
            get_stage("restore", config).run(ctx)
