"""``repro export`` CLI behaviour (direct main() invocation)."""

from __future__ import annotations

import json

from repro.cli import main
from repro.serve import ModelArtifact


def test_list_targets(capsys):
    assert main(["export", "--list-targets"]) == 0
    out = capsys.readouterr().out
    for name in ("pynn-netlist/pynn", "tile-config/tile"):
        assert name in out
    assert "engine" not in out


def test_info_lists_export_targets(capsys):
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "export targets" in out
    assert "pynn-netlist" in out and "tile-config" in out
    assert "pynn -> pynn-netlist" in out


def test_missing_flags_is_usage_error(capsys):
    assert main(["export"]) == 2
    err = capsys.readouterr().err
    assert "--artifact" in err and "--target" in err and "--out" in err


def test_unknown_target_suggests(tmp_path, micro_bundle, capsys):
    assert main(["export", "--artifact", str(micro_bundle.path),
                 "--target", "pynn-netlst",
                 "--out", str(tmp_path / "e")]) == 2
    err = capsys.readouterr().err
    assert "unknown export target" in err and "pynn-netlist" in err


def test_missing_artifact_is_clean_error(tmp_path, capsys):
    assert main(["export", "--artifact", str(tmp_path / "nowhere"),
                 "--target", "pynn-netlist",
                 "--out", str(tmp_path / "e")]) == 2
    assert "error" in capsys.readouterr().err


def test_export_records_in_bundle_manifest(tmp_path, micro_bundle, capsys):
    # note: micro_bundle is session-scoped; exports accumulate on it,
    # which is exactly what the registry-facing manifest should show
    assert main(["export", "--artifact", str(micro_bundle.path),
                 "--target", "tile",
                 "--out", str(tmp_path / "tile-export")]) == 0
    out = capsys.readouterr().out
    assert "exported micro -> tile-config" in out
    reloaded = ModelArtifact.load(micro_bundle.path)
    assert "tile-config" in reloaded.exports
    assert reloaded.exports["tile-config"]["scheme"] == "ttfs-closed-form"


def test_export_predictions_match_simulate(tmp_path, micro_bundle,
                                           tiny_dataset, capsys,
                                           monkeypatch):
    """The CI conformance gate, in miniature: exported predictions equal
    ``repro simulate --artifact`` over the same images."""
    import repro.data

    # the bundle's SNN is 8x8; route the CLI's dataset lookup to the
    # matching fixture instead of the 16x16 named datasets
    monkeypatch.setattr(repro.data, "load",
                        lambda name, **kw: tiny_dataset)
    sim_json = tmp_path / "sim.json"
    assert main(["simulate", "--artifact", str(micro_bundle.path),
                 "--limit", "12", "--predictions", str(sim_json)]) == 0
    exp_json = tmp_path / "exp.json"
    assert main(["export", "--artifact", str(micro_bundle.path),
                 "--target", "pynn", "--out", str(tmp_path / "e"),
                 "--limit", "12", "--predictions", str(exp_json)]) == 0
    capsys.readouterr()
    sim = json.loads(sim_json.read_text())
    exp = json.loads(exp_json.read_text())
    assert exp["target"] == "pynn-netlist"
    assert exp["predictions"] == sim["predictions"]
    assert exp["accuracy"] == sim["accuracy"]
