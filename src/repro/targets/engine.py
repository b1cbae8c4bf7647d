"""The ``engine`` target: the reference runner as a standalone export.

The export is the converted SNN (byte-copied out of the artifact, so
its digest carries over unchanged) plus the run settings the artifact
recorded; the program replays it through the same
:class:`~repro.engine.runner.PipelineRunner` the serving stack uses.
Every other backend's conformance bar is "matches this one".
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional

import numpy as np

from ..serve.artifact import SNN_FILE
from .base import (PathLike, TargetBackend, TargetError, TargetProgram,
                   load_target_manifest, register_target,
                   register_target_alias)


class EngineProgram(TargetProgram):
    """Loaded ``engine`` export: reference runner over the bundled SNN."""

    def __init__(self, manifest, snn):
        super().__init__(manifest)
        self.snn = snn

    def predict(self, images) -> np.ndarray:
        from ..engine.registry import create_scheme
        from ..engine.runner import PipelineRunner, result_predictions

        scheme = create_scheme(self.scheme, self.snn)
        runner = PipelineRunner(scheme, max_batch=self.max_batch,
                                backend=self.backend)
        return np.asarray(result_predictions(runner.run(
            np.asarray(images))))


@register_target("engine")
class EngineTarget(TargetBackend):
    name = "engine"
    description = ("reference repro.engine runner repackaged as a "
                   "standalone bundle (conformance baseline)")

    def export(self, artifact, out_dir: PathLike, *,
               scheme: Optional[str] = None, force: bool = False) -> Path:
        scheme = self._resolve_scheme(artifact, scheme)
        out = self._start_export(out_dir, force)
        (out / SNN_FILE).write_bytes((artifact.path / SNN_FILE).read_bytes())
        settings = self._base_settings(artifact, scheme)
        return self._finish_export(out, artifact, scheme, settings,
                                   files=[SNN_FILE])

    def load(self, path: PathLike) -> EngineProgram:
        from ..nn.serialization import SerializationError, load_converted

        manifest = load_target_manifest(path, expected_target=self.name)
        try:
            snn = load_converted(Path(path) / SNN_FILE)
        except SerializationError as exc:
            raise TargetError(f"target export at {path}: {exc}") from None
        return EngineProgram(manifest, snn)


register_target_alias("reference", "engine")
