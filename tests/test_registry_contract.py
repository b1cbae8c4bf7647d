"""The one :class:`repro.util.Registry` contract, on every named table."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.api.config import ARCHITECTURES, ConfigError, DatasetConfig
from repro.api.presets import PRESETS
from repro.api.stages import STAGES
from repro.data import load
from repro.data.datasets import DATASETS
from repro.engine.registry import SCHEMES
from repro.targets.base import TARGETS

REGISTRIES = [SCHEMES, TARGETS, STAGES, PRESETS, DATASETS, ARCHITECTURES]


@pytest.fixture(params=REGISTRIES, ids=lambda r: r.kind.replace(" ", "-"))
def registry(request):
    return request.param


def test_canonical_names_resolve_to_themselves(registry):
    assert registry.names()
    for name in registry.names():
        assert registry.resolve(name) == name
        assert name in registry


def test_one_letter_typo_suggests_the_name(registry):
    name = max(registry.names(), key=len)
    with pytest.raises(KeyError) as err:
        registry.get(name[:-1])
    message = err.value.args[0]
    assert message.startswith(f"unknown {registry.kind} {name[:-1]!r};")
    assert f"did you mean {name!r}?" in message


def test_registered_name_wins_over_alias(registry):
    target = registry.names()[0]
    names, aliases = registry.names(), registry.aliases()
    marker = object()
    registry.alias("contract-shadow", target)
    registry.register("contract-shadow", lambda *a, **kw: marker)
    try:
        assert registry.resolve("contract-shadow") == "contract-shadow"
        assert registry.create("contract-shadow") is marker
        registry.unregister("contract-shadow")      # the entry goes first
        assert registry.resolve("contract-shadow") == target
    finally:
        registry.unregister("contract-shadow")      # then the alias
    assert (registry.names(), registry.aliases()) == (names, aliases)


def test_alias_to_unknown_entry_raises(registry):
    aliases = registry.aliases()
    with pytest.raises(KeyError,
                       match=f"unknown {registry.kind} 'no-such-entry'"):
        registry.alias("contract-alias", "no-such-entry")
    assert registry.aliases() == aliases


def test_plugin_registered_then_removed(registry):
    names, aliases = registry.names(), registry.aliases()
    registry.register("contract-plugin", lambda *a, **kw: "plugin")
    try:
        registry.alias("contract-plug", "contract-plugin")
        assert "contract-plugin" in registry.names()
        assert registry.create("contract-plug") == "plugin"
    finally:
        registry.unregister("contract-plugin")
    assert registry.names() == names
    assert registry.aliases() == aliases


def test_dataset_load_and_config_share_the_message():
    with pytest.raises(KeyError) as err:
        load("mini-cifar1")
    message = err.value.args[0]
    assert "did you mean 'mini-cifar10'?" in message
    with pytest.raises(ConfigError) as cfg_err:
        DatasetConfig(name="mini-cifar1")
    assert str(cfg_err.value) == f"dataset.name: {message}"


def test_fresh_import_registers_every_builtin():
    """Builtins register on import: no lookup has to load a provider."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import json, repro.targets\n"
            "from repro.engine.registry import SCHEMES\n"
            "from repro.targets.base import TARGETS\n"
            "print(json.dumps([[r.names(), r.aliases()]\n"
            "                  for r in (SCHEMES, TARGETS)]))\n")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert json.loads(out) == [
        [["fixed-point", "rate", "ttfs-closed-form", "ttfs-early"],
         {"fp": "fixed-point", "ttfs": "ttfs-closed-form",
          "ttfs-timestep": "ttfs-closed-form"}],
        [["pynn-netlist", "tile-config"],
         {"pynn": "pynn-netlist", "tile": "tile-config"}],
    ]
