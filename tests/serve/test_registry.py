"""ModelRegistry: publish/resolve/version/alias semantics."""

import os
import shutil

import pytest

from repro.serve import ArtifactError, ModelArtifact, ModelRegistry


@pytest.fixture()
def registry(tmp_path, micro_bundle):
    reg = ModelRegistry(tmp_path / "reg")
    reg.publish(micro_bundle, name="micro", version="v1")
    return reg


class TestPublish:
    def test_publish_and_load(self, registry, micro_bundle, tiny_dataset):
        artifact = registry.load("micro:v1")
        assert artifact.name == "micro"
        session = registry.open("micro", warmup=False)
        assert len(session.predict(tiny_dataset.test_x[:2]).predictions) == 2

    def test_auto_version_and_latest_alias(self, registry, micro_bundle):
        name, version, _ = registry.publish(micro_bundle, name="micro")
        assert (name, version) == ("micro", "v2")
        assert registry.aliases("micro")["latest"] == "v2"
        assert registry.resolve("micro") == registry.resolve("micro:v2")

    def test_versions_are_immutable(self, registry, micro_bundle):
        with pytest.raises(ArtifactError, match="versions are immutable"):
            registry.publish(micro_bundle, name="micro", version="v1")

    def test_natural_version_sort(self, registry, micro_bundle):
        for version in ("v2", "v10"):
            registry.publish(micro_bundle, name="micro", version=version,
                             alias=None)
        assert registry.versions("micro") == ["v1", "v2", "v10"]
        # implicit latest (no alias written for v2/v10) = newest version
        registry_no_alias = ModelRegistry(registry.root)
        aliases = registry_no_alias.aliases("micro")
        assert aliases == {"latest": "v1"}    # only the publish() default
        assert registry.resolve("micro:v10").name == "v10"

    @pytest.mark.parametrize("leftover", [None, "partial.bin"])
    def test_existing_version_directory_is_refused(self, registry,
                                                   micro_bundle, leftover):
        # rename() would replace an empty directory, and the old
        # in-place copy filled a partial one
        dest = registry.root / "micro" / "v2"
        dest.mkdir()
        if leftover:
            (dest / leftover).write_bytes(b"x")
        with pytest.raises(ArtifactError, match="versions are immutable"):
            registry.publish(micro_bundle, name="micro", version="v2")
        assert [p.name for p in dest.iterdir()] == ([leftover] if leftover
                                                    else [])
        assert registry.versions("micro") == ["v1"]
        assert _entries(registry) == ["aliases.json", "v1", "v2"]

    def test_auto_version_skips_existing_directories(self, registry,
                                                     micro_bundle):
        (registry.root / "micro" / "v2").mkdir()
        _, version, _ = registry.publish(micro_bundle, name="micro")
        assert version == "v3"
        assert registry.versions("micro") == ["v1", "v3"]

    def test_losing_concurrent_publisher_leaves_the_winner(
            self, registry, micro_bundle, monkeypatch):
        rename = os.rename

        def another_publisher_first(src, dst):
            # the winner's rename lands between our check and ours
            shutil.copytree(micro_bundle.path, dst)
            (dst / "winner").write_text("")
            return rename(src, dst)

        monkeypatch.setattr(os, "rename", another_publisher_first)
        with pytest.raises(ArtifactError, match="versions are immutable"):
            registry.publish(micro_bundle, name="micro", version="v2")
        monkeypatch.undo()
        assert (registry.root / "micro" / "v2" / "winner").exists()
        assert registry.versions("micro") == ["v1", "v2"]
        assert registry.aliases("micro") == {"latest": "v1"}
        assert _entries(registry) == ["aliases.json", "v1", "v2"]
        registry.load("micro:v2")

    def test_failed_verification_leaves_nothing(self, registry,
                                                micro_bundle, monkeypatch):
        load = ModelArtifact.load.__func__

        def corrupt_copy(cls, path, **kwargs):
            if path.name.startswith("."):
                raise ArtifactError(f"{path}: digest mismatch")
            return load(cls, path, **kwargs)

        monkeypatch.setattr(ModelArtifact, "load", classmethod(corrupt_copy))
        with pytest.raises(ArtifactError, match="digest mismatch"):
            registry.publish(micro_bundle, name="micro", version="v2")
        assert _entries(registry) == ["aliases.json", "v1"]

    def test_versions_ignore_staging_directories(self, registry,
                                                 micro_bundle):
        shutil.copytree(micro_bundle.path,
                        registry.root / "micro" / ".v2.abc.tmp")
        assert registry.versions("micro") == ["v1"]
        assert registry.resolve("micro:latest").name == "v1"

    def test_invalid_names_rejected(self, registry, micro_bundle):
        for bad in ("a/b", "a:b", ".hidden"):
            with pytest.raises(ArtifactError, match="invalid model name"):
                registry.publish(micro_bundle, name=bad)


class TestResolve:
    def test_unknown_model_suggests_names_and_aliases(self, registry):
        with pytest.raises(ArtifactError, match="did you mean 'micro'"):
            registry.resolve("micr")
        with pytest.raises(ArtifactError,
                           match="aliases: micro:latest -> micro:v1"):
            registry.resolve("nothere")

    def test_unknown_version_suggests_aliases(self, registry):
        with pytest.raises(ArtifactError, match="did you mean 'latest'"):
            registry.resolve("micro:latst")
        with pytest.raises(ArtifactError,
                           match="aliases: latest -> v1"):
            registry.resolve("micro:v9")

    def test_set_alias_and_dangling_alias(self, registry, tmp_path):
        registry.set_alias("micro", "prod", "v1")
        assert registry.resolve("micro:prod").name == "v1"
        with pytest.raises(ArtifactError, match="available: v1"):
            registry.set_alias("micro", "prod", "v99")
        # hand-break the alias table: resolution reports the dangle
        import json
        (registry.root / "micro" / "aliases.json").write_text(
            json.dumps({"prod": "v99"}))
        with pytest.raises(ArtifactError, match="points at version"):
            registry.resolve("micro:prod")

    def test_missing_registry_dir(self, tmp_path):
        with pytest.raises(ArtifactError, match="no such registry"):
            ModelRegistry(tmp_path / "nope", create=False)

    def test_entries_listing(self, registry):
        (entry,) = registry.entries()
        assert entry["name"] == "micro"
        assert entry["versions"] == ["v1"]
        assert entry["aliases"] == {"latest": "v1"}
        assert entry["scheme"] == "ttfs-closed-form"


def _entries(registry, name="micro"):
    return sorted(p.name for p in (registry.root / name).iterdir())


class TestHostileAliasTable:
    @pytest.mark.parametrize("content", [b"[1, 2]", b"5", b"\xff\xfe"],
                             ids=["list", "number", "non-utf8"])
    def test_bad_alias_table_names_the_file(self, registry, content):
        alias_path = registry.root / "micro" / "aliases.json"
        alias_path.write_bytes(content)
        with pytest.raises(ArtifactError,
                           match=r"aliases\.json: corrupted alias table"):
            registry.aliases("micro")
        with pytest.raises(ArtifactError, match=r"aliases\.json"):
            registry.resolve("micro")
