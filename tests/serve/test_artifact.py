"""ModelArtifact bundles: round-trips, integrity checks, build parity."""

import json
import os

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

from ..nn.test_serialization import hostile_npz


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

    @pytest.mark.parametrize("content", [
        b'{"name": "m", "scheme": "\xff\xfe"}',       # not UTF-8
        b"[" * 100_000 + b"]" * 100_000,               # nested too deep
    ], ids=["non-utf8", "deep"])
    def test_unreadable_manifest_names_it(self, tmp_path, converted_micro,
                                          content):
        artifact = ModelArtifact.save(tmp_path / "b", converted_micro,
                                      name="m", scheme="rate")
        (artifact.path / MANIFEST_NAME).write_bytes(content)
        with pytest.raises(ArtifactError,
                           match=rf"{MANIFEST_NAME}: corrupted manifest"):
            ModelArtifact.load(artifact.path)

    @pytest.mark.parametrize("field,value", [
        ("files", {"snn.npz": 5}), ("files", ["snn.npz"]), ("scheme", 5),
        ("name", None), ("backend", ["dense"]), ("max_batch", "32"),
        ("max_batch", True),
    ])
    def test_wrong_field_type_names_the_manifest(self, tmp_path,
                                                 converted_micro, field,
                                                 value):
        artifact = ModelArtifact.save(tmp_path / "b", converted_micro,
                                      name="m", scheme="rate")
        self._mutate_manifest(artifact.path,
                              lambda m: m.update({field: value}))
        with pytest.raises(ArtifactError,
                           match=rf"{MANIFEST_NAME}: manifest field\(s\) "
                                 rf"{field} have the wrong type"):
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

    def test_manifest_without_snn_digest(self, tmp_path, converted_micro):
        artifact = ModelArtifact.save(tmp_path / "b", converted_micro,
                                      name="m", scheme="rate")
        self._mutate_manifest(artifact.path,
                              lambda m: m["files"].pop("snn.npz"))
        with pytest.raises(ArtifactError, match="no 'snn.npz' digest"):
            ModelArtifact.load(artifact.path)

    @pytest.mark.parametrize("shape", [(2**40,), (2**32,)],
                             ids=["2**40", "2**32"])
    def test_oversized_member_names_the_file(self, tmp_path,
                                             converted_micro, shape):
        artifact = ModelArtifact.save(tmp_path / "b", converted_micro,
                                      name="m", scheme="rate")
        hostile_npz(artifact.path / "snn.npz", shape)
        _rerecord_snn_digest(artifact.path)
        with pytest.raises(ArtifactError, match=r"snn\.npz: .*declares"):
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
        with pytest.raises(ArtifactError, match="load the bundle"):
            peeked.snn                               # never decoded
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


@pytest.fixture(params=[1, 2], ids=["1-thread", "2-threads"])
def digest_threads(request):
    """Run both bundle digests inline (1) or side by side (2)."""
    from repro import threads

    threads.set_threads(request.param)
    yield request.param
    threads.set_threads(None)


def _rerecord_snn_digest(path):
    """Make the manifest's file digest match snn.npz as it now is."""
    from repro.serve.artifact import file_digest

    manifest = json.loads((path / MANIFEST_NAME).read_text())
    manifest["files"]["snn.npz"] = file_digest(path / "snn.npz")
    (path / MANIFEST_NAME).write_text(json.dumps(manifest))


def _weights(snn):
    return [a for spec in snn.layers if spec.weight is not None
            for a in (spec.weight, spec.bias)]


class TestOneReadOpen:
    """``load`` reads snn.npz once and checks both digests over it."""

    @pytest.fixture
    def bundle(self, tmp_path, converted_micro):
        return ModelArtifact.save(tmp_path / "b", converted_micro, name="m",
                                  scheme="ttfs-closed-form",
                                  input_shape=(3, 8, 8)).path

    def test_edited_weight_fails_the_header_digest(self, bundle,
                                                   digest_threads):
        from repro.nn.serialization import mmap_npz_members

        offset = mmap_npz_members(bundle / "snn.npz")["w/0"].offset
        with open(bundle / "snn.npz", "r+b") as fh:
            fh.seek(offset)
            byte = fh.read(1)
            fh.seek(offset)
            fh.write(bytes([byte[0] ^ 0x40]))
        _rerecord_snn_digest(bundle)
        with pytest.raises(ArtifactError, match="header says"):
            ModelArtifact.load(bundle).snn
        with pytest.raises(ArtifactError, match="header says"):
            InferenceSession(bundle, warmup=False)
        with pytest.raises(ArtifactError, match="header says"):
            InferenceSession(bundle, warmup=False, mmap=True)

    @pytest.mark.parametrize("keep", [0, 100, 0.5])
    def test_truncated_file_fails_the_manifest_digest(self, bundle, keep,
                                                      digest_threads):
        data = (bundle / "snn.npz").read_bytes()
        if isinstance(keep, float):
            keep = int(len(data) * keep)
        (bundle / "snn.npz").write_bytes(data[:keep])
        for mmap_mode in (None, "r"):
            with pytest.raises(ArtifactError, match="manifest says"):
                ModelArtifact.load(bundle, mmap_mode=mmap_mode)

    def test_compressed_legacy_file_loads_bitwise(self, bundle,
                                                  converted_micro,
                                                  digest_threads):
        from repro.nn.serialization import save_converted

        save_converted(converted_micro, bundle / "snn.npz", compress=True)
        _rerecord_snn_digest(bundle)
        for mmap_mode in (None, "r"):
            snn = ModelArtifact.load(bundle, mmap_mode=mmap_mode).snn
            with np.load(bundle / "snn.npz", allow_pickle=False) as data:
                expected = [data[f"{kind}/{i}"]
                            for i, spec in enumerate(snn.layers)
                            if spec.weight is not None for kind in "wb"]
            for got, want in zip(_weights(snn), expected, strict=True):
                assert got.dtype == want.dtype
                np.testing.assert_array_equal(got, want)

    def test_parent_layout_still_loads_and_maps(self, bundle,
                                                digest_threads):
        """Files whose stored members start at odd offsets (np.savez)."""
        with np.load(bundle / "snn.npz", allow_pickle=False) as data:
            members = dict(data)
        np.savez(bundle / "snn.npz", **members)
        _rerecord_snn_digest(bundle)
        plain = ModelArtifact.load(bundle).snn
        mapped = ModelArtifact.load(bundle, mmap_mode="r").snn
        for p, m in zip(_weights(plain), _weights(mapped), strict=True):
            assert isinstance(m, np.memmap)
            assert p.flags.aligned and p.flags.writeable
            np.testing.assert_array_equal(p, np.asarray(m))

    def test_plain_weights_are_aligned_and_writable(self, bundle,
                                                    converted_micro,
                                                    digest_threads):
        snn = ModelArtifact.load(bundle).snn
        weights = _weights(snn)
        assert weights
        for got, want in zip(weights, _weights(converted_micro),
                             strict=True):
            assert got.flags.aligned and got.flags.writeable
            assert got.ctypes.data % 64 == 0
            np.testing.assert_array_equal(got, want)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_plain_weights_are_copied_on_write_across_fork(self, bundle):
        """A forked child's writes stay out of the parent's weights."""
        weight = _weights(ModelArtifact.load(bundle).snn)[0]
        before = weight.copy()
        pid = os.fork()
        if pid == 0:            # child: scribble over the weights
            weight[...] = 7
            os._exit(0)
        assert os.waitpid(pid, 0)[1] == 0
        np.testing.assert_array_equal(weight, before)

    def test_mapped_weights_of_a_new_bundle_are_aligned(self, bundle):
        from repro.nn.serialization import MEMBER_ALIGNMENT

        weights = _weights(ModelArtifact.load(bundle, mmap_mode="r").snn)
        assert weights
        for array in weights:
            assert isinstance(array, np.memmap)
            assert array.flags.aligned
            assert array.offset % MEMBER_ALIGNMENT == 0


class TestPlanLoading:
    def test_dense_sessions_never_load_plans(self, micro_bundle,
                                             monkeypatch, tiny_dataset):
        from repro.engine import plan

        calls = []
        real = plan.load_plans

        def spy(path):
            calls.append(path)
            return real(path)

        monkeypatch.setattr(plan, "load_plans", spy)
        x = tiny_dataset.test_x[:6]
        dense = InferenceSession(micro_bundle.path)
        assert dense.backend == "dense"
        dense.predict(x)
        InferenceSession(micro_bundle.path, scheme="fixed-point",
                         warmup=False).predict(x)
        assert calls == []

        event = InferenceSession(micro_bundle.path, backend="event")
        assert len(calls) == 1
        assert event._scheme.plans is event.artifact.plans
        got = event.predict(x)
        unplanned = InferenceSession(micro_bundle.path, backend="event",
                                     warmup=False)
        unplanned._scheme.plans = type(unplanned._scheme.plans)()
        want = unplanned.predict(x)
        np.testing.assert_array_equal(got.predictions, want.predictions)
        assert (got.total_spikes, got.total_sops) == \
            (want.total_spikes, want.total_sops)


class TestOverwriteKeepsMappedReaders:
    def test_mapped_bundle_keeps_its_weights_across_an_overwrite(
            self, tmp_path, converted_micro):
        """An overwrite save replaces ``snn.npz`` instead of rewriting it
        in place: a live mapped session keeps serving the weights it
        opened, and the next load sees the new ones, digests checked."""
        from dataclasses import replace

        bundle = tmp_path / "bundle"
        options = dict(name="m", scheme="ttfs-closed-form", backend="dense",
                       max_batch=8)
        ModelArtifact.save(bundle, converted_micro, **options)
        mapped = ModelArtifact.load(bundle, mmap_mode="r").snn
        first = next(s for s in mapped.layers if s.weight is not None)
        assert isinstance(first.weight, np.memmap)
        old = np.array(first.weight)

        changed = type(converted_micro)(
            layers=[spec if spec.weight is None
                    else replace(spec, weight=spec.weight + 1.0)
                    for spec in converted_micro.layers],
            config=converted_micro.config,
            output_scale=converted_micro.output_scale)
        ModelArtifact.save(bundle, changed, overwrite=True, **options)

        np.testing.assert_array_equal(np.asarray(first.weight), old)
        fresh = ModelArtifact.load(bundle, mmap_mode="r").snn
        for got, want in zip(fresh.layers, changed.layers):
            if want.weight is not None:
                np.testing.assert_array_equal(np.asarray(got.weight),
                                              want.weight)
        assert not list(bundle.glob("*.tmp"))
