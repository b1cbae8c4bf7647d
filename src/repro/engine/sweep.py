"""Experiment sweeps: scheme x max-timestep x batch grids, cached.

The paper's evaluation is made of sweeps — Fig. 2 varies the coding
window, Table 1/2 vary the scheme, Table 4 varies the workload — and a
reproduction wants to re-run them constantly with one knob changed.
:func:`run_sweep` enumerates a :class:`SweepGrid`, pushes every point
through the :class:`~repro.engine.parallel.ParallelRunner` (optionally
backed by a :class:`~repro.engine.cache.ResultCache`, so unchanged
points replay from disk), and emits one machine-readable report dict
that ``repro evaluate`` prints/persists and
:func:`repro.analysis.reporting.format_sweep_report` renders.

The max-timestep axis re-codes the *same converted weights* under a
different window: TTFS-family and fixed-point schemes get a config
variant with ``window=T`` (coarser/finer spike-time grids — the Fig. 2
trade-off), while the rate scheme maps T onto its ``timesteps`` option.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, replace as dc_replace
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from .cache import ResultCache
from .parallel import ParallelRunner, SchemeSpec
from .runner import result_predictions

#: Version of the report dict layout (golden-tested).
REPORT_SCHEMA_VERSION = 1

#: Per-point record keys, in emission order (the report contract).
POINT_KEYS = ("scheme", "window", "max_batch", "num_images", "accuracy",
              "total_spikes", "total_sops", "elapsed_s", "cache_hits",
              "cache_misses")


@dataclass(frozen=True)
class SweepPoint:
    """One grid cell: a scheme evaluated at window T with a chunk size."""

    scheme: str
    window: int
    max_batch: int


@dataclass(frozen=True)
class SweepGrid:
    """The cross product the orchestrator enumerates (deterministic).

    Each axis keeps the first occurrence of a repeated value, so no
    point runs or reports twice; scheme aliases must be resolved before
    (``repro evaluate`` does), or an alias and its scheme count as two.
    """

    schemes: Tuple[str, ...]
    windows: Tuple[int, ...]
    max_batches: Tuple[int, ...] = (64,)

    def __post_init__(self):
        for axis in ("schemes", "windows", "max_batches"):
            object.__setattr__(self, axis,
                               tuple(dict.fromkeys(getattr(self, axis))))
        if not (self.schemes and self.windows and self.max_batches):
            raise ValueError("every sweep axis needs at least one value")
        if any(t < 1 for t in self.windows):
            raise ValueError("windows must be >= 1")
        if any(b < 1 for b in self.max_batches):
            raise ValueError("max_batches must be >= 1")

    def points(self) -> List[SweepPoint]:
        """Scheme-major, then window, then batch — a stable order."""
        return [SweepPoint(s, t, b) for s, t, b in itertools.product(
            self.schemes, self.windows, self.max_batches)]

    def describe(self) -> Dict[str, Any]:
        return {"schemes": list(self.schemes),
                "windows": list(self.windows),
                "max_batches": list(self.max_batches)}


def variant_snn(snn, window: int):
    """The same converted weights re-coded at a different window.

    Returns ``snn`` itself when the window already matches; otherwise a
    shallow variant sharing the layer specs, with the output
    normalisation carried over (re-calibrating would entangle the sweep
    axes).
    """
    if window == snn.config.window:
        return snn
    return type(snn)(layers=snn.layers,
                     config=dc_replace(snn.config, window=window),
                     output_scale=snn.output_scale)


def spec_for_point(snn, point: SweepPoint) -> SchemeSpec:
    """Build the picklable scheme spec evaluating ``point`` on ``snn``."""
    options: Dict[str, Any] = {}
    if point.scheme == "rate":
        # rate coding has no spike-time grid; T is its step count
        options["timesteps"] = point.window
    return SchemeSpec(point.scheme, variant_snn(snn, point.window), options)


def run_sweep(snn, grid: SweepGrid, images: np.ndarray,
              labels: Optional[np.ndarray] = None,
              cache: Optional[ResultCache] = None,
              workers: int = 1, progress=None) -> Dict[str, Any]:
    """Evaluate every grid point; returns the machine-readable report.

    ``progress`` (optional callable) receives each finished point record
    for online display.  With a cache, re-running an identical sweep
    executes zero scheme chunks — every point replays from disk.
    """
    images = np.asarray(images)
    if labels is not None:
        labels = np.asarray(labels)
    points: List[Dict[str, Any]] = []
    # Grid order is scheme-major then window then batch, so consecutive
    # points along the batch axis share a scheme spec: group them under
    # one runner to pay worker-pool start-up once per (scheme, window).
    for (_, _), group in itertools.groupby(
            grid.points(), key=lambda p: (p.scheme, p.window)):
        group = list(group)
        spec = spec_for_point(snn, group[0])
        with ParallelRunner(spec, max_batch=group[0].max_batch,
                            workers=workers, cache=cache) as runner:
            for point in group:
                record = _run_point(runner, point, images, labels, cache)
                points.append(record)
                if progress is not None:
                    progress(record)
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "grid": grid.describe(),
        "num_images": int(len(images)),
        "workers": int(workers),
        "cached": cache is not None,
        "cache": {
            "hits": sum(p["cache_hits"] for p in points),
            "misses": sum(p["cache_misses"] for p in points),
        },
        "points": points,
    }


def _run_point(runner: ParallelRunner, point: SweepPoint,
               images: np.ndarray, labels: Optional[np.ndarray],
               cache: Optional[ResultCache]) -> Dict[str, Any]:
    runner.max_batch = point.max_batch  # re-chunk; pool stays warm
    hits0 = cache.hits if cache is not None else 0
    misses0 = cache.misses if cache is not None else 0
    t0 = time.perf_counter()
    result = runner.run(images)
    elapsed = time.perf_counter() - t0
    accuracy = None
    if labels is not None:
        preds = result_predictions(result)
        accuracy = float((preds == labels).mean())
    return {
        "scheme": point.scheme,
        "window": point.window,
        "max_batch": point.max_batch,
        "num_images": int(len(images)),
        "accuracy": accuracy,
        "total_spikes": _int_or_none(getattr(result, "total_spikes", None)),
        "total_sops": _int_or_none(getattr(result, "total_sops", None)),
        "elapsed_s": float(elapsed),
        "cache_hits": (cache.hits - hits0) if cache is not None else 0,
        "cache_misses": (cache.misses - misses0)
                        if cache is not None else 0,
    }


def _int_or_none(value) -> Optional[int]:
    return None if value is None else int(value)
