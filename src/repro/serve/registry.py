"""Named, versioned model artifacts in one root directory.

Registry layout — one subdirectory per model name, one bundle per
version, plus an alias table::

    registry-root/
      vgg-t2fsnn/
        v1/            (a ModelArtifact bundle)
        v2/
        aliases.json   {"latest": "v2", "prod": "v1"}

``resolve("vgg-t2fsnn:latest")`` walks name → alias → version and
returns the bundle path; ``open(...)`` hands back a live
:class:`~repro.serve.session.InferenceSession`.  Unknown names fail
with the same suggestion machinery every other registry in the package
uses (:func:`repro.util.unknown_name_message`) — and the candidate pool
includes *aliases* as well as canonical versions, so ``:latst``
suggests ``latest``.
"""

from __future__ import annotations

import errno
import json
import os
import re
import shutil
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from ..util import unknown_name_message
from .artifact import MANIFEST_NAME, ArtifactError, ModelArtifact

PathLike = Union[str, "os.PathLike[str]"]

ALIAS_FILE = "aliases.json"

#: The alias every publish refreshes unless told otherwise.
DEFAULT_ALIAS = "latest"


def _natural_key(version: str):
    """Sort "v2" before "v10" (digit runs compare numerically)."""
    return [(0, int(part)) if part.isdigit() else (1, part)
            for part in re.split(r"(\d+)", version) if part]


def _check_component(kind: str, value: str) -> str:
    if not value or "/" in value or ":" in value or value.startswith("."):
        raise ArtifactError(
            f"invalid {kind} {value!r}: must be non-empty and contain "
            "no '/', ':' or leading '.'")
    return value


class ModelRegistry:
    """Publish, list and resolve named/versioned artifact bundles."""

    def __init__(self, root: PathLike, create: bool = True):
        self.root = Path(root)
        if create:
            self.root.mkdir(parents=True, exist_ok=True)
        elif not self.root.is_dir():
            raise ArtifactError(
                f"{self.root}: no such registry directory")

    # -- listings ------------------------------------------------------
    def names(self) -> List[str]:
        """Model names with at least one published version."""
        if not self.root.is_dir():
            return []
        return sorted(entry.name for entry in self.root.iterdir()
                      if entry.is_dir() and self.versions(entry.name))

    def versions(self, name: str) -> List[str]:
        """Published versions of ``name``, naturally sorted."""
        model_dir = self.root / name
        if not model_dir.is_dir():
            return []
        # a leading dot marks a publish still staging its copy
        return sorted((entry.name for entry in model_dir.iterdir()
                       if not entry.name.startswith(".")
                       and (entry / MANIFEST_NAME).exists()),
                      key=_natural_key)

    def aliases(self, name: str) -> Dict[str, str]:
        """The alias -> version map of one model (empty when none)."""
        alias_path = self.root / name / ALIAS_FILE
        if not alias_path.exists():
            return {}
        try:
            aliases = json.loads(alias_path.read_text())
        except json.JSONDecodeError as exc:
            raise ArtifactError(
                f"{alias_path}: corrupted alias table ({exc})") from None
        return dict(aliases)

    def entries(self) -> List[Dict[str, Any]]:
        """JSON-able listing of every model (the server's /models)."""
        out = []
        for name in self.names():
            versions = self.versions(name)
            aliases = self.aliases(name)
            latest = self._resolve_version(name, DEFAULT_ALIAS,
                                           versions, aliases)
            # manifest-only read: listing N models must not re-hash N
            # bundles' worth of weight files
            artifact = ModelArtifact.peek(self.root / name / latest)
            out.append({"name": name, "versions": versions,
                        "aliases": aliases, "latest": latest,
                        **{k: v for k, v in artifact.summary().items()
                           if k != "name"}})
        return out

    # -- publishing ----------------------------------------------------
    def publish(self, artifact: Union[ModelArtifact, PathLike],
                name: Optional[str] = None, version: Optional[str] = None,
                alias: Optional[str] = DEFAULT_ALIAS
                ) -> Tuple[str, str, ModelArtifact]:
        """Copy a built bundle into the registry; returns (name, version,
        the registered artifact).

        ``name`` defaults to the manifest's; ``version`` to the next
        ``v<n>``; ``alias`` (default ``latest``, ``None`` to skip) is
        pointed at the new version.  The bundle is copied into a hidden
        sibling directory, verified there and renamed to the version, so
        no half-written version is ever visible; a version that already
        exists, even as an empty directory, or that a concurrent
        publisher renames into place first, raises :class:`ArtifactError`.
        A bundle given by path, and the copy, are verified with mapped
        opens (``mmap_mode="r"``), so publishing holds no private copy
        of the weights; the registered artifact maps its network.
        """
        if not isinstance(artifact, ModelArtifact):
            artifact = ModelArtifact.load(artifact, mmap_mode="r")
        source = artifact.path
        name = _check_component("model name", name or artifact.name)
        del artifact    # unmaps a source this call opened before the copy
        model_dir = self.root / name
        if version is None:
            taken = set(os.listdir(model_dir)) if model_dir.is_dir() else ()
            n = 1
            while f"v{n}" in taken:
                n += 1
            version = f"v{n}"
        version = _check_component("version", version)
        dest = model_dir / version
        immutable = (f"model {name!r} already has a version {version!r} at "
                     f"{dest}; publish under a new version (versions are "
                     "immutable)")
        if os.path.lexists(dest):
            raise ArtifactError(immutable)
        model_dir.mkdir(parents=True, exist_ok=True)
        staging = Path(tempfile.mkdtemp(prefix=f".{version}.",
                                        suffix=".tmp", dir=model_dir))
        try:
            shutil.copytree(source, staging, dirs_exist_ok=True)
            registered = ModelArtifact.load(staging, mmap_mode="r")
            try:
                os.rename(staging, dest)
            except OSError as exc:
                # onto a non-empty directory: a concurrent publish won
                if exc.errno not in (errno.EEXIST, errno.ENOTEMPTY):
                    raise
                raise ArtifactError(immutable) from None
        except BaseException:
            shutil.rmtree(staging, ignore_errors=True)
            raise
        # the rename moved every file, and the maps over them, unchanged
        registered.path = dest
        if alias is not None:
            self.set_alias(name, alias, version)
        return name, version, registered

    def set_alias(self, name: str, alias: str, version: str) -> None:
        """Point ``name:alias`` at ``version`` (atomic table rewrite)."""
        _check_component("alias", alias)
        if version not in self.versions(name):
            raise ArtifactError(unknown_name_message(
                f"version of model {name!r}", version, self.versions(name),
                aliases=self.aliases(name)))
        aliases = self.aliases(name)
        aliases[alias] = version
        alias_path = self.root / name / ALIAS_FILE
        tmp = alias_path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(aliases, indent=2, sort_keys=True) + "\n")
        os.replace(tmp, alias_path)

    # -- resolution ----------------------------------------------------
    def _qualified_aliases(self) -> Dict[str, str]:
        """``name:alias -> name:version`` across the whole registry."""
        out = {}
        for name in self.names():
            for alias, version in self.aliases(name).items():
                out[f"{name}:{alias}"] = f"{name}:{version}"
        return out

    def _resolve_version(self, name: str, version: str,
                         versions: List[str],
                         aliases: Dict[str, str]) -> str:
        if version in aliases:
            target = aliases[version]
            if target not in versions:
                raise ArtifactError(
                    f"alias {name}:{version} points at version "
                    f"{target!r}, which is not published; repair it with "
                    f"set_alias({name!r}, {version!r}, <version>)")
            return target
        if version == DEFAULT_ALIAS and versions:
            return versions[-1]          # implicit latest = newest
        if version not in versions:
            raise ArtifactError(unknown_name_message(
                f"version of model {name!r}", version, versions,
                aliases=aliases))
        return version

    def resolve(self, spec: str) -> Path:
        """Bundle path of ``"name"``, ``"name:version"`` or ``"name:alias"``.

        A bare name means ``name:latest``.
        """
        name, _, version = spec.partition(":")
        names = self.names()
        if name not in names:
            raise ArtifactError(unknown_name_message(
                "model", name, names, aliases=self._qualified_aliases()))
        version = self._resolve_version(
            name, version or DEFAULT_ALIAS,
            self.versions(name), self.aliases(name))
        return self.root / name / version

    def load(self, spec: str) -> ModelArtifact:
        """The integrity-checked artifact behind ``spec``."""
        return ModelArtifact.load(self.resolve(spec))

    def open(self, spec: str, **overrides):
        """An :class:`~repro.serve.session.InferenceSession` for ``spec``."""
        return self.load(spec).open(**overrides)
