"""Target-backend protocol, registry and digested export manifests.

A *target backend* compiles a loaded :class:`~repro.serve.ModelArtifact`
into a self-contained **target description** on disk — something another
runtime could consume — and can load such a description back and execute
it.  The seam mirrors snn_toolbox's ``AbstractSNN`` target simulators:
one trained TTFS network, many execution substrates.

Every export directory is the same shape regardless of backend:

```
export/
  target.json    format version, target + scheme names, repro version,
                 source-artifact provenance, backend settings, and a
                 content digest per payload file
  ...            backend payload (netlist.json, or tile_config.json +
                 snn.npz)
```

``target.json`` is written canonically (sorted keys, no timestamps), so
re-exporting the same artifact is bit-identical, and every payload file
is digest-verified on load — the same integrity contract as the
artifact bundles the exports are compiled from.

The registry is a :class:`repro.util.Registry`, the same class behind
the coding schemes of :mod:`repro.engine.registry`: the builtin backends
register when :mod:`repro.targets` imports them, third-party backends
register with :func:`register_target`, aliases resolve through
:func:`register_target_alias`, and unknown names fail with
``repro.util.unknown_name_message`` suggestions.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

import numpy as np

from ..errors import ReproError
from ..util import Registry, read_json_object

PathLike = Union[str, "os.PathLike[str]"]

#: The version new target descriptions are written at.
TARGET_FORMAT_VERSION = 1

#: Manifest filename inside every export directory.
TARGET_MANIFEST_NAME = "target.json"


class TargetError(ReproError):
    """A target description could not be exported/loaded (message says why)."""


# ---------------------------------------------------------------------------
# manifest helpers
# ---------------------------------------------------------------------------

def canonical_json(obj: Any) -> str:
    """The one serialisation every target file uses: stable key order,
    two-space indent, trailing newline — so identical content is
    identical bytes and the determinism contract is byte-level."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def write_target_manifest(out_dir: Path, *, target: str, scheme: str,
                          settings: Dict[str, Any],
                          source: Dict[str, Any],
                          files: Sequence[str]) -> Dict[str, Any]:
    """Digest the payload ``files`` and write ``target.json``."""
    from .. import __version__
    from ..serve.artifact import file_digest

    out_dir = Path(out_dir)
    manifest = {
        "format_version": TARGET_FORMAT_VERSION,
        "target": target,
        "scheme": scheme,
        "repro_version": __version__,
        "source": source,
        "settings": settings,
        "files": {name: file_digest(out_dir / name) for name in files},
    }
    (out_dir / TARGET_MANIFEST_NAME).write_text(canonical_json(manifest))
    return manifest


def load_target_manifest(path: PathLike,
                         expected_target: Optional[str] = None
                         ) -> Dict[str, Any]:
    """Read ``target.json`` and verify format version + file digests."""
    from ..serve.artifact import file_digest

    path = Path(path)
    manifest_path = path / TARGET_MANIFEST_NAME
    if not path.is_dir():
        raise TargetError(
            f"{path}: no such target export (expected a directory holding "
            f"{TARGET_MANIFEST_NAME})")
    if not manifest_path.exists():
        raise TargetError(
            f"{path}: no {TARGET_MANIFEST_NAME} — not a target export "
            "(write one with 'repro export' or TargetBackend.export)")
    manifest = read_json_object(manifest_path, TargetError,
                                "target manifest")
    found = manifest.get("format_version")
    if found != TARGET_FORMAT_VERSION:
        raise TargetError(
            f"{path}: target format version mismatch — this checkout reads "
            f"version {TARGET_FORMAT_VERSION}, found "
            f"{'none (missing field)' if found is None else found}; "
            "re-export with this checkout's 'repro export'")
    missing = [key for key in ("target", "scheme", "files")
               if key not in manifest]
    if missing:
        raise TargetError(
            f"{manifest_path}: target manifest is missing required field(s) "
            f"{', '.join(missing)} — truncated or hand-edited export")
    if expected_target is not None and manifest["target"] != expected_target:
        raise TargetError(
            f"{path}: this is a {manifest['target']!r} export, not "
            f"{expected_target!r} — load it through its own backend or "
            "repro.targets.load_target")
    for fname, expected in manifest["files"].items():
        fpath = path / fname
        if not fpath.exists():
            raise TargetError(
                f"{path}: file {fname!r} is listed in {TARGET_MANIFEST_NAME} "
                "but missing on disk — incomplete copy of the export")
        actual = file_digest(fpath)
        if actual != expected:
            raise TargetError(
                f"{fpath}: content digest mismatch — {TARGET_MANIFEST_NAME} "
                f"says {expected[:12]}…, file hashes to {actual[:12]}… "
                "(corrupted or tampered export)")
    return manifest


# ---------------------------------------------------------------------------
# programs and backends
# ---------------------------------------------------------------------------

class TargetProgram:
    """A loaded target description, ready to execute.

    Concrete programs implement :meth:`predict`; the base class decodes
    the manifest fields every backend records (scheme, execution
    backend, ``max_batch`` chunking, input shape).
    """

    def __init__(self, manifest: Dict[str, Any]):
        self.manifest = manifest
        self.scheme: str = manifest["scheme"]
        settings = manifest.get("settings") or {}
        self.backend: Optional[str] = settings.get("backend")
        self.max_batch: int = int(settings.get("max_batch") or 32)
        shape = settings.get("input_shape")
        self.input_shape = tuple(shape) if shape else None

    def predict(self, images) -> np.ndarray:
        """Class predictions (int array of shape ``(n,)``) for a batch."""
        raise NotImplementedError


class TargetBackend:
    """One compile target for artifacts; subclass and register.

    The contract (see ``docs/targets.md``):

    * :meth:`export` compiles a loaded artifact into a self-contained
      directory and writes a digested ``target.json`` manifest.
      Exports are deterministic: same artifact + scheme → identical
      bytes.
    * :meth:`load` digest-verifies that directory and returns a
      :class:`TargetProgram` whose :meth:`~TargetProgram.predict`
      reproduces :class:`repro.engine.PipelineRunner`'s predictions for
      the exported scheme (pinned per registered backend by
      ``tests/targets``).
    """

    #: Canonical registry name (``"pynn-netlist"``, ...).
    name: str = ""
    #: One-line human description for listings.
    description: str = ""

    def export(self, artifact, out_dir: PathLike, *,
               scheme: Optional[str] = None, force: bool = False) -> Path:
        """Compile ``artifact`` into ``out_dir``; returns the directory."""
        raise NotImplementedError

    def load(self, path: PathLike) -> TargetProgram:
        """Digest-verify an export of this backend and make it runnable."""
        raise NotImplementedError

    # -- shared export plumbing ----------------------------------------
    def _resolve_scheme(self, artifact, scheme: Optional[str]) -> str:
        from ..engine.registry import resolve_scheme_name

        return resolve_scheme_name(scheme or artifact.scheme)

    def _start_export(self, out_dir: PathLike, force: bool) -> Path:
        out = Path(out_dir)
        if (out / TARGET_MANIFEST_NAME).exists() and not force:
            raise TargetError(
                f"{out} already holds a target export (found "
                f"{TARGET_MANIFEST_NAME}); pass force=True to replace it")
        out.mkdir(parents=True, exist_ok=True)
        return out

    def _base_settings(self, artifact, scheme: str) -> Dict[str, Any]:
        return {
            "scheme": scheme,
            "backend": artifact.backend,
            "max_batch": artifact.max_batch,
            "input_shape": list(artifact.input_shape or ()) or None,
            "quantization": artifact.quantization,
        }

    def _finish_export(self, out: Path, artifact, scheme: str,
                       settings: Dict[str, Any],
                       files: Sequence[str]) -> Path:
        write_target_manifest(
            out, target=self.name, scheme=scheme, settings=settings,
            source={
                "artifact": artifact.name,
                "artifact_schema_version": artifact.manifest["schema_version"],
            },
            files=files)
        return out


# ---------------------------------------------------------------------------
# registry (a repro.util.Registry, like the coding-scheme one)
# ---------------------------------------------------------------------------

#: Every export target, by canonical name; the builtin backends
#: (``repro.targets.pynn``/``tile``) register and alias
#: themselves when :mod:`repro.targets` imports them.
TARGETS = Registry("export target")

register_target = TARGETS.register
register_target_alias = TARGETS.alias
resolve_target_name = TARGETS.resolve
get_target = TARGETS.get
available_targets = TARGETS.names
create_target = TARGETS.create
target_aliases = TARGETS.aliases


def describe_targets() -> List[Dict[str, str]]:
    """Name + description rows for every backend (CLI listings)."""
    rows = []
    for name in available_targets():
        backend = create_target(name)
        rows.append({"name": name, "description": backend.description})
    return rows


# ---------------------------------------------------------------------------
# module-level conveniences
# ---------------------------------------------------------------------------

def export_artifact(artifact, target: str, out_dir: PathLike, *,
                    scheme: Optional[str] = None,
                    force: bool = False) -> Path:
    """Export ``artifact`` (a :class:`ModelArtifact` or bundle path)
    through the backend registered under ``target``."""
    if not hasattr(artifact, "manifest"):
        from ..serve.artifact import ModelArtifact

        artifact = ModelArtifact.load(artifact)
    backend = create_target(target)
    return backend.export(artifact, out_dir, scheme=scheme, force=force)


def load_target(path: PathLike) -> TargetProgram:
    """Load any target export, dispatching on its recorded backend name."""
    manifest = load_target_manifest(path)
    backend = create_target(manifest["target"])
    return backend.load(path)

