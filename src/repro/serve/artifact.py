"""Versioned on-disk model bundles: the build-time/run-time boundary.

A :class:`ModelArtifact` is a directory holding everything the run-time
side needs to serve predictions — and *nothing* the build-time side
needed to produce them (no dataset, no training graph, no optimiser):

```
bundle/
  manifest.json   schema version, name, scheme, backend, quantization,
                  build config + metrics, per-file content digests
  snn.npz         the converted (and usually log-quantised) SNN
                  (repro.nn.serialization.save_converted, itself versioned)
  plans.npz       optional (schema >= 2): compiled event-execution plans
                  (repro.engine.plan.save_plans, itself versioned), so a
                  session pays zero plan-compile cost per request
  model.npz       optional: the trained ANN state dict, for re-derivation
```

``ModelArtifact.build(config, path)`` drives the existing
:class:`repro.api.Experiment` through the config's *build* stages
(train → convert → quantize) and writes the bundle;
``ModelArtifact.load(path)`` verifies the manifest schema version and
every file's content digest (via :func:`repro.engine.cache.digest`)
before handing anything to the simulator, so a truncated copy or a
bundle from an incompatible writer fails with an actionable
:class:`ArtifactError` instead of garbage predictions.  ``snn.npz`` is
read once: its manifest digest and the digest in its own header are
both checked over that one read, side by side on the shared
:mod:`repro.threads` pool, and the decoded network comes back with the
bundle.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
from pathlib import Path
from typing import Any, Dict, Optional, Sequence, Union

from ..errors import ReproError
from ..util import read_json_object

PathLike = Union[str, "os.PathLike[str]"]

#: The version new bundles are written at.  v2 added the optional
#: compiled-plans file (``plans.npz`` + a ``plans`` manifest section).
ARTIFACT_SCHEMA_VERSION = 2

#: Versions loaders accept.  v1 bundles (no plans) stay loadable —
#: sessions simply compile plans at open time instead.
SUPPORTED_SCHEMA_VERSIONS = (1, 2)

MANIFEST_NAME = "manifest.json"
SNN_FILE = "snn.npz"
MODEL_FILE = "model.npz"
PLANS_FILE = "plans.npz"

#: The pipeline stages that belong to build time, in execution order.
BUILD_STAGES = ("train", "convert", "quantize")


class ArtifactError(ReproError):
    """A model bundle could not be built/loaded (message says why)."""


def file_digest(path: Path) -> str:
    """Content digest of one bundle file (raw bytes, type-tagged)."""
    return _content_digest(path.read_bytes())


def _content_digest(content) -> str:
    from ..engine.cache import digest

    return digest("artifact-file", content)


def _check_digest(fpath: Path, expected: str, actual: str) -> None:
    if actual != expected:
        raise ArtifactError(
            f"{fpath}: content digest mismatch — manifest says "
            f"{expected[:12]}…, file hashes to {actual[:12]}… "
            "(corrupted or tampered bundle)")


def _open_snn(fpath: Path, expected: str, mmap_mode: Optional[str]):
    """The converted SNN in ``fpath``, from one read of the file.

    The manifest's file digest and the file's own header digest are
    both checked over that one read, side by side on the shared thread
    pool.  A file that fails its manifest digest reports that, whatever
    decoding it made of it.
    """
    from ..nn.serialization import SerializationError, read_converted
    from ..threads import run_concurrently

    try:
        content, decode = read_converted(fpath, mmap_mode)
    except SerializationError as exc:
        raise ArtifactError(f"artifact at {fpath.parent}: {exc}") from None

    def attempt():
        try:
            return decode()
        except Exception as exc:   # reported after the file digest
            return exc

    actual, snn = run_concurrently(
        functools.partial(_content_digest, content), attempt)
    _check_digest(fpath, expected, actual)
    if isinstance(snn, SerializationError):
        raise ArtifactError(f"artifact at {fpath.parent}: {snn}") from None
    if isinstance(snn, Exception):
        raise snn
    return snn


class ModelArtifact:
    """A loaded (and integrity-checked) model bundle.

    Construction goes through :meth:`build` / :meth:`save` /
    :meth:`load` / :meth:`peek`.  :meth:`load` decodes the converted
    SNN while it checks the file; a peeked bundle has the manifest only.
    """

    def __init__(self, path: Path, manifest: Dict[str, Any],
                 mmap_mode: Optional[str] = None):
        self.path = Path(path)
        self.manifest = manifest
        self.mmap_mode = mmap_mode
        self._snn = None
        self._plans = None

    # -- manifest accessors --------------------------------------------
    @property
    def name(self) -> str:
        return self.manifest["name"]

    @property
    def scheme(self) -> str:
        return self.manifest["scheme"]

    @property
    def backend(self) -> str:
        # bundles written while an ``auto`` backend existed may record
        # it; they run on dense
        backend = self.manifest["backend"]
        return "dense" if backend == "auto" else backend

    @property
    def max_batch(self) -> int:
        return self.manifest["max_batch"]

    @property
    def quantization(self) -> Optional[Dict[str, Any]]:
        return self.manifest.get("quantization")

    @property
    def input_shape(self) -> Optional[tuple]:
        shape = self.manifest.get("input_shape")
        return tuple(shape) if shape else None

    @property
    def metrics(self) -> Dict[str, Any]:
        return self.manifest.get("metrics", {})

    @property
    def exports(self) -> Dict[str, Any]:
        """Target exports recorded for this bundle: name → export info."""
        return dict(self.manifest.get("exports") or {})

    @property
    def snn(self):
        """The converted SNN, decoded by :meth:`load` (or :meth:`save`).

        With ``mmap_mode="r"`` (see :meth:`load`) the weight arrays are
        read-only maps of the bundle file, so every process serving the
        same bundle shares one page-cache copy of the weights.
        """
        if self._snn is None:
            raise ArtifactError(
                f"artifact at {self.path} was only peeked at; load the "
                "bundle (ModelArtifact.load) to decode its network")
        return self._snn

    @property
    def plans(self):
        """The bundle's compiled execution plans, or ``None``.

        ``None`` for v1 bundles and v2 bundles built without an input
        shape; callers fall back to lazy compile-on-first-use.
        """
        if self._plans is None and self.manifest.get("plans"):
            from ..engine.plan import PlanError, load_plans

            try:
                self._plans = load_plans(self.path / PLANS_FILE)
            except PlanError as exc:
                raise ArtifactError(
                    f"artifact at {self.path}: {exc}") from None
        return self._plans

    def open(self, **overrides):
        """An :class:`~repro.serve.session.InferenceSession` over this bundle."""
        from .session import InferenceSession

        return InferenceSession(self, **overrides)

    def summary(self) -> Dict[str, Any]:
        """JSON-able one-row description (registry/server listings)."""
        return {
            "name": self.name,
            "scheme": self.scheme,
            "backend": self.backend,
            "max_batch": self.max_batch,
            "quantization": self.quantization,
            "input_shape": list(self.input_shape or ()) or None,
            "schema_version": self.manifest["schema_version"],
            "repro_version": self.manifest.get("repro_version"),
            "targets": sorted(self.exports) or None,
        }

    def record_export(self, target: str, **info: Any) -> None:
        """Record in the manifest that this bundle was exported.

        ``repro export`` calls this after a successful
        :meth:`repro.targets.TargetBackend.export` so registry and
        server listings can say which target descriptions exist for a
        bundle.  The manifest is the one bundle file that is not
        digest-protected (it *holds* the digests), so updating it in
        place never invalidates the bundle; the write is temp + rename
        like :meth:`save`.
        """
        exports = self.exports
        exports[str(target)] = info
        self.manifest["exports"] = exports
        tmp = self.path / f"{MANIFEST_NAME}.{os.getpid()}.tmp"
        tmp.write_text(json.dumps(self.manifest, indent=2) + "\n")
        os.replace(tmp, self.path / MANIFEST_NAME)

    # -- writing -------------------------------------------------------
    @classmethod
    def save(cls, path: PathLike, snn, *, name: str, scheme: str,
             backend: str = "dense", max_batch: int = 32,
             quantization: Optional[Dict[str, Any]] = None,
             input_shape: Optional[Sequence[int]] = None,
             config: Optional[Dict[str, Any]] = None,
             metrics: Optional[Dict[str, Any]] = None,
             model=None, overwrite: bool = False,
             include_plans: bool = True) -> "ModelArtifact":
        """Write a bundle directory from in-memory build products.

        ``snn`` is the converted network; ``model`` (optional) the
        trained ANN whose state dict rides along in ``model.npz``.
        When ``input_shape`` is known, the event-execution plans are
        compiled here — at build time — and shipped in ``plans.npz``
        (disable with ``include_plans=False``).  Refuses a directory
        that already holds a manifest unless ``overwrite`` is set, so a
        registry slot is never silently clobbered.
        """
        from .. import __version__
        from ..engine.plan import compile_plans, save_plans
        from ..engine.registry import resolve_scheme_name
        from ..nn.serialization import save_converted, save_model

        path = Path(path)
        manifest_path = path / MANIFEST_NAME
        if manifest_path.exists() and not overwrite:
            raise ArtifactError(
                f"{path} already holds an artifact (found {MANIFEST_NAME}); "
                "pass overwrite=True to replace it")
        scheme = resolve_scheme_name(scheme)
        path.mkdir(parents=True, exist_ok=True)
        # uncompressed: the weights stay memory-mappable, so a worker
        # fleet shares one resident copy (load with mmap_mode="r")
        save_converted(snn, path / SNN_FILE, compress=False)
        files = {SNN_FILE: file_digest(path / SNN_FILE)}
        if model is not None:
            save_model(model, path / MODEL_FILE, artifact=name)
            files[MODEL_FILE] = file_digest(path / MODEL_FILE)
        plans_meta = None
        if include_plans and input_shape:
            plans = compile_plans(snn, tuple(input_shape))
            save_plans(plans, path / PLANS_FILE)
            files[PLANS_FILE] = file_digest(path / PLANS_FILE)
            plans_meta = {"file": PLANS_FILE, "num_layers": len(plans)}
        manifest = {
            "schema_version": ARTIFACT_SCHEMA_VERSION,
            "repro_version": __version__,
            "name": name,
            "scheme": scheme,
            "backend": backend,
            "max_batch": int(max_batch),
            "quantization": quantization,
            "input_shape": list(input_shape) if input_shape else None,
            "plans": plans_meta,
            "config": config,
            "metrics": metrics or {},
            "files": files,
        }
        # temp + rename: a crashed build never leaves a loadable-looking
        # bundle whose manifest is half-written
        tmp = path / f"{MANIFEST_NAME}.{os.getpid()}.tmp"
        tmp.write_text(json.dumps(manifest, indent=2) + "\n")
        os.replace(tmp, manifest_path)
        artifact = cls(path, manifest)
        artifact._snn = snn
        return artifact

    @classmethod
    def build(cls, config, path: PathLike, cache=None, context=None,
              overwrite: bool = False, on_stage_start=None,
              on_stage_end=None) -> "ModelArtifact":
        """Run the config's build stages and bundle the result at ``path``.

        The bundle carries the trained ANN's state dict too
        (``model.npz``) when the build ran the train stage.

        The config's stage list is filtered to the build-time subset
        (:data:`BUILD_STAGES`); run-time stages (simulate/hardware/...)
        are ignored here — they are what the bundle exists to skip.
        A stage ``cache`` gives build the same stage-granular resume as
        ``repro run``.
        """
        from ..api.config import config_to_dict
        from ..api.experiment import Experiment

        build_stages = tuple(s for s in config.stages if s in BUILD_STAGES)
        if "convert" not in build_stages:
            raise ArtifactError(
                "cannot build an artifact from a config without a "
                f"'convert' stage; config stages: {', '.join(config.stages)}")
        build_config = dataclasses.replace(config, stages=build_stages)
        report = Experiment(build_config, cache=cache,
                            on_stage_start=on_stage_start,
                            on_stage_end=on_stage_end).run(context=context)
        ctx = report.context
        quantization = None
        if "quantize" in build_stages:
            quantization = {"bits": config.quantize.bits,
                            "z_w": config.quantize.z_w}
        input_shape = None
        if ctx.dataset is not None:
            input_shape = tuple(ctx.dataset.image_shape)
        return cls.save(
            path, ctx.snn, name=config.name,
            scheme=config.simulate.scheme, backend=config.simulate.backend,
            max_batch=config.simulate.max_batch, quantization=quantization,
            input_shape=input_shape, config=config_to_dict(config),
            metrics=report.metrics,
            model=ctx.model, overwrite=overwrite)

    # -- reading -------------------------------------------------------
    @classmethod
    def peek(cls, path: PathLike) -> "ModelArtifact":
        """Read and schema-check the manifest only — no file digests.

        Cheap enough for registry listings and manifest-default lookups
        over large bundles; anything that will actually *simulate* the
        bundle must go through :meth:`load`, which also verifies every
        file's content digest.
        """
        return cls(*cls._read_manifest(path))

    @classmethod
    def load(cls, path: PathLike,
             mmap_mode: Optional[str] = None) -> "ModelArtifact":
        """Open a bundle, verifying schema version and file digests.

        ``mmap_mode="r"`` maps the weight arrays off disk instead of
        reading them into private memory — the worker-pool serving path
        opens every bundle this way so N processes share one copy.
        Bundles whose ``snn.npz`` predates the uncompressed layout
        silently fall back to in-memory loads.
        """
        path, manifest = cls._read_manifest(path)
        if SNN_FILE not in manifest["files"]:
            raise ArtifactError(
                f"{path}: the manifest lists no {SNN_FILE!r} digest — "
                "truncated or hand-edited bundle")
        snn = None
        for fname, expected in manifest["files"].items():
            fpath = path / fname
            if not fpath.exists():
                raise ArtifactError(
                    f"{path}: file {fname!r} is listed in the manifest but "
                    "missing on disk — incomplete copy of the bundle")
            if fname == SNN_FILE:
                snn = _open_snn(fpath, expected, mmap_mode)
            else:
                _check_digest(fpath, expected, file_digest(fpath))
        artifact = cls(path, manifest, mmap_mode=mmap_mode)
        artifact._snn = snn
        return artifact

    @classmethod
    def _read_manifest(cls, path: PathLike):
        path = Path(path)
        manifest_path = path / MANIFEST_NAME
        if not path.is_dir():
            raise ArtifactError(
                f"{path}: no such artifact bundle (expected a directory "
                f"holding {MANIFEST_NAME})")
        if not manifest_path.exists():
            raise ArtifactError(
                f"{path}: no {MANIFEST_NAME} — not a ModelArtifact bundle "
                "(build one with ModelArtifact.build or 'repro build')")
        manifest = read_json_object(manifest_path, ArtifactError, "manifest")
        found = manifest.get("schema_version")
        if found not in SUPPORTED_SCHEMA_VERSIONS:
            supported = "/".join(str(v) for v in SUPPORTED_SCHEMA_VERSIONS)
            raise ArtifactError(
                f"{path}: artifact schema version mismatch — this checkout "
                f"reads version {supported}, found "
                f"{'none (missing field)' if found is None else found}; "
                "rebuild the bundle with this checkout's 'repro build'")
        missing = [key for key in ("name", "scheme", "backend", "max_batch",
                                   "files") if key not in manifest]
        if missing:
            raise ArtifactError(
                f"{manifest_path}: manifest is missing required field(s) "
                f"{', '.join(missing)} — truncated or hand-edited bundle")
        files = manifest["files"]
        wrong = [key for key in ("name", "scheme", "backend")
                 if not isinstance(manifest[key], str)]
        if (not isinstance(manifest["max_batch"], int)
                or isinstance(manifest["max_batch"], bool)):
            wrong.append("max_batch")
        if not (isinstance(files, dict) and all(
                isinstance(v, str) for v in files.values())):
            wrong.append("files")
        if wrong:
            raise ArtifactError(
                f"{manifest_path}: manifest field(s) {', '.join(wrong)} "
                "have the wrong type (name, scheme and backend are "
                "strings, max_batch an integer, files maps file names to "
                "digest strings) — hand-edited bundle")
        return path, manifest
