"""ModelArtifact bundles: round-trips, integrity checks, build parity."""

import json

import numpy as np
import pytest

from repro.api import Experiment, ExperimentConfig, PipelineContext
from repro.api.config import SimulateConfig, TrainConfig
from repro.engine import result_predictions
from repro.serve import (
    ARTIFACT_SCHEMA_VERSION,
    MANIFEST_NAME,
    ArtifactError,
    InferenceSession,
    ModelArtifact,
)


class TestSaveLoadRoundtrip:
    def test_manifest_fields(self, micro_bundle):
        loaded = ModelArtifact.load(micro_bundle.path)
        assert loaded.name == "micro"
        assert loaded.scheme == "ttfs-closed-form"
        assert loaded.backend == "dense"
        assert loaded.max_batch == 8
        assert loaded.input_shape == (3, 8, 8)
        assert loaded.manifest["schema_version"] == ARTIFACT_SCHEMA_VERSION
        assert sorted(loaded.manifest["files"]) == ["model.npz", "plans.npz",
                                                    "snn.npz"]

    def test_snn_forward_identical(self, micro_bundle, converted_micro,
                                   tiny_dataset):
        loaded = ModelArtifact.load(micro_bundle.path)
        x = tiny_dataset.test_x[:8]
        assert np.allclose(loaded.snn.forward_value(x),
                           converted_micro.forward_value(x))

    def test_scheme_alias_canonicalised_at_save(self, tmp_path,
                                                converted_micro):
        artifact = ModelArtifact.save(tmp_path / "b", converted_micro,
                                      name="m", scheme="ttfs")
        assert artifact.scheme == "ttfs-closed-form"

    def test_save_refuses_overwrite_by_default(self, micro_bundle,
                                               converted_micro):
        with pytest.raises(ArtifactError, match="already holds an artifact"):
            ModelArtifact.save(micro_bundle.path, converted_micro,
                               name="micro", scheme="rate")

    def test_summary_is_jsonable(self, micro_bundle):
        json.dumps(micro_bundle.summary())

    def test_legacy_auto_backend_opens_on_dense(self, tmp_path, micro_bundle,
                                                converted_micro,
                                                tiny_dataset):
        artifact = ModelArtifact.save(tmp_path / "b", converted_micro,
                                      name="m", scheme="ttfs-closed-form",
                                      input_shape=(3, 8, 8))
        manifest = json.loads((artifact.path / MANIFEST_NAME).read_text())
        manifest["backend"] = "auto"
        (artifact.path / MANIFEST_NAME).write_text(json.dumps(manifest))
        legacy = InferenceSession(artifact.path, warmup=False)
        assert legacy.backend == "dense"
        x = tiny_dataset.test_x[:12]
        dense = InferenceSession(micro_bundle, warmup=False).predict(x)
        np.testing.assert_array_equal(legacy.predict(x).predictions,
                                      dense.predictions)


class TestIntegrityChecks:
    def test_missing_directory(self, tmp_path):
        with pytest.raises(ArtifactError, match="no such artifact bundle"):
            ModelArtifact.load(tmp_path / "nope")

    def test_directory_without_manifest(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(ArtifactError,
                           match="not a ModelArtifact bundle"):
            ModelArtifact.load(tmp_path / "empty")

    def test_corrupted_manifest_json(self, tmp_path, converted_micro):
        artifact = ModelArtifact.save(tmp_path / "b", converted_micro,
                                      name="m", scheme="rate")
        (artifact.path / MANIFEST_NAME).write_text("{not json")
        with pytest.raises(ArtifactError, match="corrupted manifest"):
            ModelArtifact.load(artifact.path)

    def _mutate_manifest(self, path, mutate):
        manifest = json.loads((path / MANIFEST_NAME).read_text())
        mutate(manifest)
        (path / MANIFEST_NAME).write_text(json.dumps(manifest))

    def test_wrong_schema_version(self, tmp_path, converted_micro):
        artifact = ModelArtifact.save(tmp_path / "b", converted_micro,
                                      name="m", scheme="rate")
        self._mutate_manifest(artifact.path,
                              lambda m: m.update(schema_version=99))
        with pytest.raises(ArtifactError,
                           match=r"reads version 1/2, found 99.*rebuild"):
            ModelArtifact.load(artifact.path)

    def test_missing_schema_version(self, tmp_path, converted_micro):
        artifact = ModelArtifact.save(tmp_path / "b", converted_micro,
                                      name="m", scheme="rate")
        self._mutate_manifest(artifact.path,
                              lambda m: m.pop("schema_version"))
        with pytest.raises(ArtifactError, match="none \\(missing field\\)"):
            ModelArtifact.load(artifact.path)

    def test_missing_required_field(self, tmp_path, converted_micro):
        artifact = ModelArtifact.save(tmp_path / "b", converted_micro,
                                      name="m", scheme="rate")
        self._mutate_manifest(artifact.path, lambda m: m.pop("scheme"))
        with pytest.raises(ArtifactError,
                           match="missing required field.*scheme"):
            ModelArtifact.load(artifact.path)

    def test_listed_file_missing_on_disk(self, tmp_path, converted_micro):
        artifact = ModelArtifact.save(tmp_path / "b", converted_micro,
                                      name="m", scheme="rate")
        (artifact.path / "snn.npz").unlink()
        with pytest.raises(ArtifactError, match="missing on disk"):
            ModelArtifact.load(artifact.path)

    def test_tampered_file_digest(self, tmp_path, converted_micro):
        artifact = ModelArtifact.save(tmp_path / "b", converted_micro,
                                      name="m", scheme="rate")
        with open(artifact.path / "snn.npz", "ab") as f:
            f.write(b"extra bytes")
        with pytest.raises(ArtifactError, match="digest mismatch"):
            ModelArtifact.load(artifact.path)


class TestBuild:
    def _config(self):
        return ExperimentConfig(
            name="build-parity",
            stages=("train", "convert", "quantize", "simulate"),
            train=TrainConfig(window=6, epochs=1, relu_epochs=1),
            simulate=SimulateConfig(max_batch=8, limit=12))

    def test_build_filters_to_build_stages_and_matches_experiment(
            self, tmp_path, tiny_dataset):
        """build → save → load → predict == the in-memory pipeline."""
        config = self._config()
        artifact = ModelArtifact.build(
            config, tmp_path / "bundle",
            context=PipelineContext(config=config, dataset=tiny_dataset))
        # only build stages ran; the bundle records their metrics
        assert set(artifact.metrics) == {"train", "convert", "quantize"}
        assert artifact.quantization == {"bits": 5, "z_w": 1}

        report = Experiment(config).run(
            context=PipelineContext(config=config, dataset=tiny_dataset))
        expected = result_predictions(report.context.sim_result)

        session = ModelArtifact.load(tmp_path / "bundle").open(warmup=False)
        got = session.predict(tiny_dataset.test_x[:12]).predictions
        np.testing.assert_array_equal(got, expected)

    def test_build_without_convert_stage_fails(self, tmp_path):
        config = ExperimentConfig(name="x", stages=("fig2",))
        with pytest.raises(ArtifactError, match="'convert' stage"):
            ModelArtifact.build(config, tmp_path / "b")


class TestPeek:
    def test_peek_skips_digests_but_not_schema(self, tmp_path,
                                               converted_micro):
        artifact = ModelArtifact.save(tmp_path / "b", converted_micro,
                                      name="m", scheme="rate")
        with open(artifact.path / "snn.npz", "ab") as f:
            f.write(b"tamper")
        peeked = ModelArtifact.peek(artifact.path)   # manifest-only: ok
        assert peeked.scheme == "rate"
        with pytest.raises(ArtifactError, match="digest mismatch"):
            ModelArtifact.load(artifact.path)        # full check: fails
        manifest = json.loads(
            (artifact.path / MANIFEST_NAME).read_text())
        manifest["schema_version"] = 99
        (artifact.path / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(ArtifactError, match="schema version"):
            ModelArtifact.peek(artifact.path)


class TestPlans:
    def test_bundle_ships_compiled_plans(self, micro_bundle,
                                         converted_micro):
        loaded = ModelArtifact.load(micro_bundle.path)
        assert loaded.manifest["plans"] == {
            "file": "plans.npz",
            "num_layers": len(converted_micro.weight_layers)}
        plans = loaded.plans
        assert plans is not None
        assert len(plans) == len(converted_micro.weight_layers)
        assert loaded.plans is plans                 # memoised

    def test_save_without_plans_is_supported(self, tmp_path,
                                             converted_micro):
        artifact = ModelArtifact.save(tmp_path / "b", converted_micro,
                                      name="m", scheme="rate",
                                      input_shape=(3, 8, 8),
                                      include_plans=False)
        assert artifact.manifest["plans"] is None
        loaded = ModelArtifact.load(artifact.path)
        assert loaded.plans is None
        assert "plans.npz" not in loaded.manifest["files"]

    def test_v1_bundle_without_plans_still_loads(self, tmp_path,
                                                 converted_micro,
                                                 tiny_dataset):
        """Back compat: pre-plans manifests open and predict fine."""
        artifact = ModelArtifact.save(tmp_path / "v1", converted_micro,
                                      name="m", scheme="ttfs-closed-form",
                                      input_shape=(3, 8, 8),
                                      include_plans=False)
        manifest = json.loads((artifact.path / MANIFEST_NAME).read_text())
        manifest["schema_version"] = 1
        del manifest["plans"]
        (artifact.path / MANIFEST_NAME).write_text(json.dumps(manifest))

        loaded = ModelArtifact.load(artifact.path)
        assert loaded.manifest["schema_version"] == 1
        assert loaded.plans is None
        # the session compiles plans at open time instead
        session = loaded.open(warmup=False, backend="event")
        assert len(session._scheme.plans) == \
            len(converted_micro.weight_layers)
        x = tiny_dataset.test_x[:6]
        np.testing.assert_array_equal(
            session.predict(x).predictions,
            ModelArtifact.save(tmp_path / "v2", converted_micro,
                               name="m", scheme="ttfs-closed-form",
                               input_shape=(3, 8, 8))
            .open(warmup=False, backend="event").predict(x).predictions)

    def test_corrupted_plans_file_is_actionable(self, tmp_path,
                                                converted_micro):
        artifact = ModelArtifact.save(tmp_path / "b", converted_micro,
                                      name="m", scheme="rate",
                                      input_shape=(3, 8, 8))
        peeked = ModelArtifact.peek(artifact.path)   # skips file digests
        (artifact.path / "plans.npz").write_bytes(b"garbage")
        with pytest.raises(ArtifactError, match="not a readable plan"):
            peeked.plans


class TestMmapLoading:
    def test_two_mmap_loads_share_one_backing_file(self, micro_bundle,
                                                   tiny_dataset):
        """N fleet workers opening the bundle map the *same* file: one
        resident copy of the weights, not N private loads."""
        import os
        from pathlib import Path

        first = ModelArtifact.load(micro_bundle.path, mmap_mode="r")
        second = ModelArtifact.load(micro_bundle.path, mmap_mode="r")
        mapped_first = [spec.weight for spec in first.snn.layers
                        if spec.weight is not None]
        mapped_second = [spec.weight for spec in second.snn.layers
                         if spec.weight is not None]
        assert mapped_first
        assert all(isinstance(w, np.memmap)
                   for w in mapped_first + mapped_second)
        backing = {os.fspath(w.filename)
                   for w in mapped_first + mapped_second}
        assert len(backing) == 1
        assert Path(backing.pop()).resolve().parent == \
            Path(micro_bundle.path).resolve()

    def test_mmap_load_is_bitwise_identical(self, micro_bundle):
        plain = ModelArtifact.load(micro_bundle.path)
        mapped = ModelArtifact.load(micro_bundle.path, mmap_mode="r")
        for p, m in zip(plain.snn.layers, mapped.snn.layers):
            if p.weight is None:
                continue
            np.testing.assert_array_equal(np.asarray(m.weight), p.weight)
            np.testing.assert_array_equal(np.asarray(m.bias), p.bias)
