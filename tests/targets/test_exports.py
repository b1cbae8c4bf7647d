"""Export determinism, digest verification, and manifest hygiene."""

from __future__ import annotations

import json

import pytest

from repro.targets import (TARGET_FORMAT_VERSION, TargetError,
                           available_targets, canonical_json,
                           export_artifact, load_target,
                           load_target_manifest)


@pytest.mark.parametrize("target", sorted(available_targets()))
def test_reexport_is_bit_identical(tmp_path, micro_bundle, target):
    a = export_artifact(micro_bundle, target, tmp_path / "a")
    b = export_artifact(micro_bundle, target, tmp_path / "b")
    files_a = sorted(p.name for p in a.iterdir())
    assert files_a == sorted(p.name for p in b.iterdir())
    for name in files_a:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_export_refuses_overwrite_without_force(tmp_path, micro_bundle):
    out = export_artifact(micro_bundle, "pynn-netlist", tmp_path / "e")
    with pytest.raises(TargetError, match="already holds a target export"):
        export_artifact(micro_bundle, "pynn-netlist", out)
    export_artifact(micro_bundle, "pynn-netlist", out, force=True)


def test_tampered_payload_fails_digest_check(tmp_path, micro_bundle):
    out = export_artifact(micro_bundle, "pynn-netlist", tmp_path / "e")
    netlist = out / "netlist.json"
    netlist.write_text(netlist.read_text().replace('"scheme"', '"schema"',
                                                   1))
    with pytest.raises(TargetError, match="digest mismatch"):
        load_target(out)


def test_missing_payload_file_is_reported(tmp_path, micro_bundle):
    out = export_artifact(micro_bundle, "tile-config", tmp_path / "e")
    (out / "tile_config.json").unlink()
    with pytest.raises(TargetError, match="missing on disk"):
        load_target(out)


def test_unknown_format_version_is_rejected(tmp_path, micro_bundle):
    out = export_artifact(micro_bundle, "tile-config", tmp_path / "e")
    manifest = json.loads((out / "target.json").read_text())
    manifest["format_version"] = TARGET_FORMAT_VERSION + 1
    (out / "target.json").write_text(canonical_json(manifest))
    with pytest.raises(TargetError, match="format version mismatch"):
        load_target(out)


@pytest.mark.parametrize("content", [b"\xff", b"[" * 100_000, b"[1]"],
                         ids=["non-utf8", "deep", "list"])
def test_hostile_target_manifest_names_the_file(tmp_path, micro_bundle,
                                                content):
    out = export_artifact(micro_bundle, "pynn-netlist", tmp_path / "e")
    (out / "target.json").write_bytes(content)
    with pytest.raises(TargetError,
                       match=r"target\.json: corrupted target manifest"):
        load_target(out)


@pytest.mark.parametrize("target,payload,what", [
    ("pynn-netlist", "netlist.json", "netlist"),
    ("tile-config", "tile_config.json", "tile config")])
def test_hostile_payload_names_the_file(tmp_path, micro_bundle, target,
                                        payload, what):
    """A payload whose digest was forged to match still fails cleanly."""
    from repro.serve.artifact import file_digest

    out = export_artifact(micro_bundle, target, tmp_path / "e")
    (out / payload).write_bytes(b"\xff")
    manifest = json.loads((out / "target.json").read_text())
    manifest["files"][payload] = file_digest(out / payload)
    (out / "target.json").write_text(canonical_json(manifest))
    with pytest.raises(TargetError,
                       match=rf"{payload}: corrupted {what}, not valid"):
        load_target(out)


def test_wrong_backend_load_is_rejected(tmp_path, micro_bundle):
    from repro.targets import create_target

    out = export_artifact(micro_bundle, "pynn-netlist", tmp_path / "e")
    with pytest.raises(TargetError, match="'pynn-netlist' export"):
        create_target("tile-config").load(out)


def test_not_an_export_directory(tmp_path):
    with pytest.raises(TargetError, match="no such target export"):
        load_target_manifest(tmp_path / "nowhere")
    with pytest.raises(TargetError, match="not a target export"):
        load_target_manifest(tmp_path)


def test_manifest_records_provenance_and_settings(tmp_path, micro_bundle):
    out = export_artifact(micro_bundle, "pynn-netlist", tmp_path / "e",
                          scheme="rate")
    manifest = load_target_manifest(out, expected_target="pynn-netlist")
    assert manifest["scheme"] == "rate"
    assert manifest["source"]["artifact"] == "micro"
    settings = manifest["settings"]
    assert settings["max_batch"] == 8
    assert settings["input_shape"] == [3, 8, 8]


def test_record_export_round_trips_manifest(tmp_path, converted_micro):
    from repro.serve import ModelArtifact

    art = ModelArtifact.save(tmp_path / "bundle", converted_micro,
                             name="m", scheme="rate")
    assert art.exports == {}
    assert art.summary()["targets"] is None
    art.record_export("pynn-netlist", scheme="rate",
                      format_version=TARGET_FORMAT_VERSION)
    art.record_export("tile-config", scheme="rate",
                      format_version=TARGET_FORMAT_VERSION)
    reloaded = ModelArtifact.load(tmp_path / "bundle")
    assert sorted(reloaded.exports) == ["pynn-netlist", "tile-config"]
    assert reloaded.exports["pynn-netlist"]["scheme"] == "rate"
    assert reloaded.summary()["targets"] == ["pynn-netlist", "tile-config"]


def test_netlist_structure(tmp_path, micro_bundle):
    out = export_artifact(micro_bundle, "pynn-netlist", tmp_path / "e",
                          scheme="fixed-point")
    netlist = json.loads((out / "netlist.json").read_text())
    labels = [p["label"] for p in netlist["populations"]]
    assert labels[0] == "input"
    # micro VGG: conv/pool/conv/pool/flatten/linear readout
    assert "conv0" in labels and "linear2" in labels
    by_label = {p["label"]: p for p in netlist["populations"]}
    assert by_label["linear2"]["cell_type"] == "readout"
    assert by_label["conv0"]["cell_type"] == "logpe_if"
    assert by_label["conv0"]["params"]["lut"]
    projections = {p["post"]: p for p in netlist["projections"]}
    assert projections["conv0"]["connector"]["type"] == "conv"
    assert "codes" in projections["conv0"]  # quantised, not float
    assert "weights" not in projections["conv0"]
    # populations carry concrete sizes when the artifact knows its input
    assert by_label["input"]["size"] == 3 * 8 * 8


def test_tile_config_structure(tmp_path, micro_bundle):
    from repro.hw.config import HwConfig

    out = export_artifact(micro_bundle, "tile-config", tmp_path / "e")
    config = json.loads((out / "tile_config.json").read_text())
    hw = HwConfig.from_dict(config["hw"])
    assert hw.window == micro_bundle.snn.config.window
    assert hw.tau == micro_bundle.snn.config.tau
    rows = config["layer_map"]
    assert [r["kind"] for r in rows] == ["conv", "conv", "linear"]
    for row in rows:
        assert row["tiles"] >= 1
        assert row["synapses"] > 0
    assert config["encoder"]["theta0"] == micro_bundle.snn.config.theta0


def test_hwconfig_dict_round_trip():
    from repro.hw.config import HwConfig

    cfg = HwConfig(window=12, tau=2.0, num_pes=64, pe_groups=2)
    assert HwConfig.from_dict(cfg.to_dict()) == cfg
    with pytest.raises(ValueError, match="unknown HwConfig field"):
        HwConfig.from_dict({"window": 12, "warp_drive": True})
