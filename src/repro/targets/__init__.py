"""Compile model artifacts into self-contained execution targets.

One trained TTFS network, two more substrates: a pyNN-style
population/projection netlist with a pure python interpreter
(``pynn-netlist``), and the cycle-accurate tile-model design point
(``tile-config``).  Every backend's exports are deterministic,
digest-verified on load, and conformance-tested against the
predictions of :class:`repro.engine.PipelineRunner`, which runs a
bundle as it is (``repro simulate --artifact``) — see
``docs/targets.md``.
"""

from .base import (TARGET_FORMAT_VERSION, TARGET_MANIFEST_NAME,
                   TargetBackend, TargetError, TargetProgram,
                   available_targets, canonical_json, create_target,
                   describe_targets, export_artifact,
                   get_target, load_target, load_target_manifest,
                   register_target, register_target_alias,
                   resolve_target_name, target_aliases,
                   write_target_manifest)
# the builtin backends register (and alias) themselves on import
from . import pynn, tile  # noqa: F401

__all__ = [
    "TARGET_FORMAT_VERSION",
    "TARGET_MANIFEST_NAME",
    "TargetBackend",
    "TargetError",
    "TargetProgram",
    "available_targets",
    "canonical_json",
    "create_target",
    "describe_targets",
    "export_artifact",
    "get_target",
    "load_target",
    "load_target_manifest",
    "register_target",
    "register_target_alias",
    "resolve_target_name",
    "target_aliases",
    "write_target_manifest",
]
