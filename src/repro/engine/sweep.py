"""Experiment sweeps: scheme x max-timestep x batch grids, cached.

The paper's evaluation is made of sweeps — Fig. 2 varies the coding
window, Table 1/2 vary the scheme, Table 4 varies the workload — and a
reproduction wants to re-run them constantly with one knob changed.
:func:`run_sweep` enumerates a :class:`SweepGrid`, runs every point's
``max_batch`` chunks through the scheme (optionally backed by a
:class:`~repro.engine.cache.ResultCache`, so unchanged chunks replay
from disk, and with ``workers`` > 1 concurrently on the shared thread
pool), and emits one machine-readable report dict
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

from .. import threads
from ..obs import get_registry
from .cache import ResultCache, run_key, scheme_digest
from .registry import create_scheme
from .runner import chunk_bounds, result_predictions, run_recorded

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


def point_options(point: SweepPoint) -> Dict[str, Any]:
    """Scheme factory options evaluating ``point`` (on its window's
    :func:`variant_snn`)."""
    if point.scheme == "rate":
        # rate coding has no spike-time grid; T is its step count
        return {"timesteps": point.window}
    return {}


def run_chunks(scheme, images: np.ndarray, max_batch: int,
               cache: Optional[ResultCache] = None,
               scheme_key: Optional[str] = None,
               fan_out: bool = False) -> List[Any]:
    """One ``scheme`` result per ``max_batch`` chunk of ``images``, in
    chunk order.

    With a ``cache``, a chunk found under ``run_key(scheme_key, chunk)``
    replays and a missed one runs and is stored.  The missed chunks run
    one after another, or with ``fan_out`` on the shared thread pool,
    one round-robin group per thread (:func:`repro.threads.map_groups`,
    which splits only under a one-thread BLAS).  A pool thread runs each
    chunk's layers inline, exactly as
    :class:`~repro.engine.runner.PipelineRunner` runs them, so the
    results are bitwise the same either way; ``scheme.run`` must be safe
    to call from several threads at once.
    """
    chunks = [images[a:b] for a, b in chunk_bounds(len(images), max_batch)]
    keys = [run_key(scheme_key, chunk) if cache is not None else None
            for chunk in chunks]
    results = [cache.get(key) if cache is not None else None
               for key in keys]
    missed = [i for i, result in enumerate(results) if result is None]
    registry = get_registry()
    if cache is not None and registry.enabled:
        for kind, count, what in (
                ("hits", len(chunks) - len(missed), "chunks not re-simulated"),
                ("misses", len(missed), "chunks executed")):
            if count:
                registry.counter(f"repro_engine_cache_{kind}_total",
                                 f"Result-cache {kind} ({what})").inc(count)

    def run_group(group) -> List[Tuple[int, Any]]:
        return [(missed[j], run_recorded(scheme, chunks[missed[j]], registry))
                for j in group]

    groups = (threads.map_groups(run_group, len(missed)) if fan_out
              else [run_group(range(len(missed)))])
    for i, result in itertools.chain.from_iterable(groups):
        results[i] = result
        if cache is not None:
            cache.put(keys[i], result)
    return results


def run_sweep(snn, grid: SweepGrid, images: np.ndarray,
              labels: Optional[np.ndarray] = None,
              cache: Optional[ResultCache] = None,
              workers: int = 1, progress=None) -> Dict[str, Any]:
    """Evaluate every grid point; returns the machine-readable report.

    ``workers`` > 1 runs each point's cache-missed chunks concurrently
    on the shared thread pool (:func:`run_chunks`); ``repro evaluate
    --workers N`` first sizes that pool to N threads and BLAS to one.
    ``progress`` (optional callable) receives each finished point
    record for online display.  With a cache, re-running an identical
    sweep executes zero scheme chunks — every point replays from disk.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    images = np.asarray(images)
    if labels is not None:
        labels = np.asarray(labels)
    points: List[Dict[str, Any]] = []
    # Grid order is scheme-major then window then batch, so consecutive
    # points along the batch axis share one scheme (and cache key).
    for (name, window), group in itertools.groupby(
            grid.points(), key=lambda p: (p.scheme, p.window)):
        group = list(group)
        variant = variant_snn(snn, window)
        options = point_options(group[0])
        scheme = create_scheme(name, variant, **options)
        key = (scheme_digest(name, variant, options)
               if cache is not None else None)
        for point in group:
            record = _run_point(scheme, key, point, images, labels, cache,
                                workers > 1)
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


def _run_point(scheme, key: Optional[str], point: SweepPoint,
               images: np.ndarray, labels: Optional[np.ndarray],
               cache: Optional[ResultCache],
               fan_out: bool) -> Dict[str, Any]:
    hits0 = cache.hits if cache is not None else 0
    misses0 = cache.misses if cache is not None else 0
    t0 = time.perf_counter()
    results = run_chunks(scheme, images, point.max_batch, cache, key,
                         fan_out)
    if not results:
        raise ValueError("empty image batch")
    result = results[0] if len(results) == 1 else scheme.merge(results)
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
