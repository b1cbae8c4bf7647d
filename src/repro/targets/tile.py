"""The ``tile-config`` target: a hardware design-point binding.

The export bundles everything the cycle-accurate tile model
(:mod:`repro.hw.tilesim`) needs to run standalone: the converted SNN
(byte-copied out of the artifact) plus ``tile_config.json`` — the
:class:`~repro.hw.config.HwConfig` design point pinned to the model's
coding window, the spike-encoder settings, and the per-weight-layer tile
mapping (neurons / synapses / tiles over ``num_pes`` PEs).

The loaded program predicts through the same engine schemes as the
reference (binding the exported ``HwConfig`` for the fixed-point
datapath), so it sits inside the conformance contract, and additionally
exposes :meth:`TileProgram.cycle_report` — the per-tile cycle accounting
of :class:`~repro.hw.tilesim.TiledCycleModel` for single images.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np

from ..engine import executor
from ..serve.artifact import SNN_FILE
from .base import (PathLike, TargetBackend, TargetError, TargetProgram,
                   canonical_json, load_target_manifest, register_target,
                   register_target_alias)

TILE_CONFIG_VERSION = 1
TILE_CONFIG_FILE = "tile_config.json"


def _layer_map(snn, hw, input_shape) -> List[Dict[str, Any]]:
    """Per-weight-layer PE-array mapping (shapes need ``input_shape``)."""
    shape = (1,) + tuple(input_shape) if input_shape else None
    rows: List[Dict[str, Any]] = []
    index = 0
    for spec in snn.layers:
        if spec.is_weight_layer:
            neurons = None
            if shape is not None:
                shape = executor.output_shape(spec, shape)
                neurons = int(np.prod(shape[1:]))
            rows.append({
                "layer": f"{spec.kind}{index}",
                "kind": spec.kind,
                "is_output": bool(spec.is_output),
                "neurons": neurons,
                "synapses": spec.synapse_count(),
                "tiles": (None if neurons is None
                          else math.ceil(neurons / hw.num_pes)),
            })
            if spec.is_output:
                break
            index += 1
        elif spec.kind in ("maxpool", "avgpool") and shape is not None:
            n, c, h, w = shape
            k, s = spec.kernel_size, spec.stride
            shape = (n, c, (h - k) // s + 1, (w - k) // s + 1)
        elif spec.kind == "flatten" and shape is not None:
            shape = (shape[0], int(np.prod(shape[1:])))
    return rows


class TileProgram(TargetProgram):
    """Loaded tile-config export: engine schemes bound to the exported
    design point, plus cycle-accurate single-image reports."""

    def __init__(self, manifest, config: Dict[str, Any], snn):
        from ..hw.config import HwConfig

        super().__init__(manifest)
        self.config = config
        self.snn = snn
        self.hw = HwConfig.from_dict(config["hw"])

    def _scheme(self):
        if self.scheme == "fixed-point":
            from ..hw.tilesim import FixedPointInference

            return FixedPointInference(self.snn, cfg=self.hw)
        from ..engine.registry import create_scheme

        return create_scheme(self.scheme, self.snn)

    def predict(self, images) -> np.ndarray:
        from ..engine.runner import PipelineRunner, result_predictions

        runner = PipelineRunner(self._scheme(), max_batch=self.max_batch,
                                backend=self.backend)
        return np.asarray(result_predictions(runner.run(
            np.asarray(images))))

    def cycle_report(self, image):
        """Tile-level cycle accounting for one image (CHW or 1×CHW)."""
        from ..hw.tilesim import TiledCycleModel

        return TiledCycleModel(self.snn, cfg=self.hw).run_image(
            np.asarray(image))


@register_target("tile-config")
class TileConfigTarget(TargetBackend):
    name = "tile-config"
    description = ("HwConfig design point + layer/tile mapping + encoder "
                   "settings for the cycle-accurate hw.tilesim model")

    def export(self, artifact, out_dir: PathLike, *,
               scheme: Optional[str] = None, force: bool = False) -> Path:
        from ..hw.config import HwConfig

        scheme = self._resolve_scheme(artifact, scheme)
        snn = artifact.snn
        hw = HwConfig(window=snn.config.window, tau=snn.config.tau)
        config = {
            "tile_config_version": TILE_CONFIG_VERSION,
            "scheme": scheme,
            "hw": hw.to_dict(),
            "encoder": {
                "window": snn.config.window, "tau": snn.config.tau,
                "theta0": snn.config.theta0, "base": snn.config.base,
            },
            "layer_map": _layer_map(snn, hw, artifact.input_shape),
        }
        out = self._start_export(out_dir, force)
        (out / TILE_CONFIG_FILE).write_text(canonical_json(config))
        (out / SNN_FILE).write_bytes((artifact.path / SNN_FILE).read_bytes())
        settings = self._base_settings(artifact, scheme)
        settings["tile_config_version"] = TILE_CONFIG_VERSION
        return self._finish_export(out, artifact, scheme, settings,
                                   files=[TILE_CONFIG_FILE, SNN_FILE])

    def load(self, path: PathLike) -> TileProgram:
        from ..nn.serialization import SerializationError, load_converted

        manifest = load_target_manifest(path, expected_target=self.name)
        config = json.loads((Path(path) / TILE_CONFIG_FILE).read_text())
        found = config.get("tile_config_version")
        if found != TILE_CONFIG_VERSION:
            raise TargetError(
                f"{path}: tile config version mismatch — this checkout "
                f"reads version {TILE_CONFIG_VERSION}, found {found}")
        try:
            snn = load_converted(Path(path) / SNN_FILE)
        except SerializationError as exc:
            raise TargetError(f"target export at {path}: {exc}") from None
        return TileProgram(manifest, config, snn)


register_target_alias("tile", "tile-config")
