"""InferenceSession: parity with the engine runner, batching, purity."""

import numpy as np
import pytest

from repro.engine import PipelineRunner, available_schemes, create_scheme, result_predictions
from repro.serve import InferenceSession, ModelArtifact


class TestPredictParity:
    @pytest.mark.parametrize("scheme", sorted(available_schemes())
                             + ["ttfs-timestep"])
    def test_loaded_session_matches_direct_runner(self, scheme,
                                                  micro_bundle,
                                                  converted_micro,
                                                  tiny_dataset):
        """Every registered scheme, and the alias of the retired stepped
        walk, predicts identically from the bundle."""
        x = tiny_dataset.test_x[:16]
        session = InferenceSession(micro_bundle.path, scheme=scheme,
                                   warmup=False)
        direct = PipelineRunner(create_scheme(scheme, converted_micro),
                                max_batch=8)
        np.testing.assert_array_equal(
            session.predict(x).predictions,
            result_predictions(direct.run(x)))

    def test_bundle_recorded_with_timestep_serves_closed_form(
            self, micro_bundle, tiny_dataset, tmp_path):
        """A bundle whose manifest names ``ttfs-timestep`` (written before
        it became an alias) opens and serves closed-form's bits."""
        import json
        import shutil

        bundle = tmp_path / "old"
        shutil.copytree(micro_bundle.path, bundle)
        manifest_path = bundle / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["scheme"] = "ttfs-timestep"
        manifest_path.write_text(json.dumps(manifest))
        x = tiny_dataset.test_x[:16]
        old = InferenceSession(bundle, warmup=False)
        assert old.scheme_name == "ttfs-closed-form"
        got = old.predict(x)
        want = InferenceSession(micro_bundle, warmup=False).predict(x)
        np.testing.assert_array_equal(got.predictions, want.predictions)
        assert (got.total_spikes, got.total_sops) == \
            (want.total_spikes, want.total_sops)

    def test_single_chw_image_accepted(self, micro_bundle, tiny_dataset):
        session = InferenceSession(micro_bundle, warmup=False)
        result = session.predict(tiny_dataset.test_x[0])
        assert result.predictions.shape == (1,)
        assert result.batch_size == 1

    def test_bad_rank_rejected(self, micro_bundle):
        session = InferenceSession(micro_bundle, warmup=False)
        with pytest.raises(ValueError, match="CHW image or an NCHW batch"):
            session.predict(np.zeros((8, 8)))

    def test_metrics_populated(self, micro_bundle, tiny_dataset):
        session = InferenceSession(micro_bundle)
        result = session.predict(tiny_dataset.test_x[:4])
        assert result.scheme == "ttfs-closed-form"
        assert result.backend == "dense"
        assert result.total_spikes > 0
        assert result.total_sops > 0
        assert result.latency_s > 0
        assert result.to_dict()["predictions"] == [
            int(p) for p in result.predictions]


class TestPredictStream:
    def test_overrides_resolve_aliases_and_reject_typos(self, micro_bundle):
        assert InferenceSession(micro_bundle, scheme="ttfs",
                                warmup=False).scheme_name == \
            "ttfs-closed-form"
        with pytest.raises(KeyError, match="did you mean"):
            InferenceSession(micro_bundle, scheme="ttfs-close-form",
                             warmup=False)
        with pytest.raises(ValueError, match="unknown backend"):
            InferenceSession(micro_bundle, backend="evnt", warmup=False)


class TestRuntimeNeverRebuilds:
    def test_repeated_predicts_skip_all_build_stages(self, micro_bundle,
                                                     tiny_dataset,
                                                     monkeypatch):
        """Acceptance: >= 3 predicts, zero conversion/quantization runs."""
        import repro.cat as cat
        import repro.quant as quant

        calls = {"train": 0, "convert": 0, "quantize": 0}

        monkeypatch.setattr(
            cat, "train_cat",
            lambda *a, **k: calls.__setitem__(
                "train", calls["train"] + 1))
        monkeypatch.setattr(
            cat, "convert",
            lambda *a, **k: calls.__setitem__(
                "convert", calls["convert"] + 1))
        monkeypatch.setattr(
            quant, "quantize_snn",
            lambda *a, **k: calls.__setitem__(
                "quantize", calls["quantize"] + 1))

        session = InferenceSession(micro_bundle.path)
        outputs = [session.predict(tiny_dataset.test_x[i:i + 4])
                   for i in range(3)]
        assert session.num_dispatches == 3
        assert all(len(o.predictions) == 4 for o in outputs)
        assert calls == {"train": 0, "convert": 0, "quantize": 0}

    def test_artifact_snn_deserialised_once(self, micro_bundle,
                                            tiny_dataset):
        artifact = ModelArtifact.load(micro_bundle.path)
        session = InferenceSession(artifact, warmup=False)
        first = session.snn
        session.predict(tiny_dataset.test_x[:2])
        session.predict(tiny_dataset.test_x[2:4])
        assert session.snn is first is artifact.snn


class TestSessionLifecycle:
    def test_closed_session_fails_loudly(self, micro_bundle, tiny_dataset):
        """A retired session raises on predict instead of half-working."""
        session = InferenceSession(micro_bundle.path, warmup=False)
        session.predict(tiny_dataset.test_x[:1])
        session.close()
        assert session.closed
        session.close()                              # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            session.predict(tiny_dataset.test_x[:1])

    def test_mmap_session_maps_bundle_weights(self, micro_bundle,
                                              tiny_dataset):
        """``mmap=True`` serves off read-only maps of the bundle file —
        the page cache shares them across every session/process — with
        bitwise-identical predictions."""
        from pathlib import Path

        mapped = InferenceSession(micro_bundle.path, warmup=False,
                                  mmap=True)
        assert mapped.mmap and mapped.stats()["mmap"] is True
        weights = [spec.weight for spec in mapped.snn.layers
                   if spec.weight is not None]
        assert weights
        assert all(isinstance(w, np.memmap) for w in weights)
        assert Path(weights[0].filename).resolve().parent == \
            Path(micro_bundle.path).resolve()
        x = tiny_dataset.test_x[:8]
        plain = InferenceSession(micro_bundle.path, warmup=False)
        np.testing.assert_array_equal(mapped.predict(x).predictions,
                                      plain.predict(x).predictions)
