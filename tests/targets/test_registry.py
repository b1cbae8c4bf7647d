"""Target registry: resolution, aliases, suggestions, extension."""

from __future__ import annotations

import numpy as np
import pytest

from repro.targets import (TargetBackend, available_targets, create_target,
                           describe_targets, get_target, register_target,
                           register_target_alias, resolve_target_name,
                           target_aliases)


def test_builtin_targets_listed():
    assert available_targets() == ["pynn-netlist", "tile-config"]
    # a bundle runs as it is through the engine; no export repackages it
    for gone in ("engine", "reference"):
        with pytest.raises(KeyError, match="unknown export target"):
            resolve_target_name(gone)


def test_aliases_resolve():
    assert resolve_target_name("pynn") == "pynn-netlist"
    assert resolve_target_name("tile") == "tile-config"
    # canonical names resolve to themselves
    for name in available_targets():
        assert resolve_target_name(name) == name


def test_unknown_target_suggests_closest():
    with pytest.raises(KeyError) as err:
        resolve_target_name("pynn-netlst")
    message = err.value.args[0]
    assert "unknown export target" in message
    assert "pynn-netlist" in message


def test_describe_targets_has_descriptions():
    rows = describe_targets()
    assert [r["name"] for r in rows] == available_targets()
    assert all(r["description"] for r in rows)


def test_register_custom_target_and_alias():
    class NullBackend(TargetBackend):
        name = "null"
        description = "does nothing"

    register_target("null", NullBackend)
    try:
        assert "null" in available_targets()
        assert isinstance(create_target("null"), NullBackend)
        register_target_alias("nothing", "null")
        assert resolve_target_name("nothing") == "null"
        assert target_aliases()["nothing"] == "null"
    finally:
        from repro.targets.base import TARGETS

        TARGETS.unregister("null")
    assert "nothing" not in target_aliases()


def test_alias_to_unknown_target_fails():
    with pytest.raises(KeyError, match="unknown export target"):
        register_target_alias("x", "no-such-backend")


def test_get_target_resolves_alias_to_builtin():
    factory = get_target("tile")
    assert factory().name == "tile-config"


def test_program_predict_is_abstract(tmp_path, micro_bundle):
    from repro.targets import export_artifact, load_target_manifest
    from repro.targets.base import TargetProgram

    out = export_artifact(micro_bundle, "tile-config", tmp_path / "e")
    program = TargetProgram(load_target_manifest(out))
    assert program.max_batch == 8
    assert program.input_shape == (3, 8, 8)
    with pytest.raises(NotImplementedError):
        program.predict(np.zeros((1, 3, 8, 8)))
