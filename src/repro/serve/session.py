"""Run-time inference over a built :class:`~repro.serve.ModelArtifact`.

An :class:`InferenceSession` is the stateful handle the serving side
holds: it opens an artifact **once** — converted SNN deserialised,
coding scheme resolved through the engine registry, runner constructed,
encoder state pre-warmed — and then answers ``predict`` calls forever
after without ever touching the build-time machinery (no training, no
conversion, no quantisation; the tests pin this with counting stubs).
Coalescing single requests into batches is the server's job
(:mod:`repro.serve.batching`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, Optional

import numpy as np

from ..engine.executor import validate_backend
from ..engine.registry import create_scheme, resolve_scheme_name
from ..engine.runner import PipelineRunner, result_predictions
from .artifact import ModelArtifact


@dataclass
class Prediction:
    """One dispatch's worth of predictions plus its cost metrics.

    ``total_spikes``/``total_sops`` are the *dispatched batch* totals.
    """

    predictions: np.ndarray   # (N,) predicted class ids
    batch_size: int           # images in the dispatched batch
    latency_s: float          # wall time of the dispatch
    scheme: str
    backend: str
    total_spikes: Optional[int] = None
    total_sops: Optional[int] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "predictions": [int(p) for p in self.predictions],
            "batch_size": self.batch_size,
            "latency_s": self.latency_s,
            "scheme": self.scheme,
            "backend": self.backend,
            "total_spikes": self.total_spikes,
            "total_sops": self.total_sops,
        }


class InferenceSession:
    """Open an artifact once, serve predictions many times.

    ``scheme`` / ``backend`` / ``max_batch`` default to what the
    artifact's manifest recorded at build time; any of them can be
    overridden per session (the scheme through the engine registry, so
    aliases like ``"ttfs"`` resolve and typos get suggestions).
    """

    def __init__(self, artifact, scheme: Optional[str] = None,
                 backend: Optional[str] = None,
                 max_batch: Optional[int] = None, warmup: bool = True,
                 mmap: bool = False):
        if not isinstance(artifact, ModelArtifact):
            artifact = ModelArtifact.load(artifact,
                                          mmap_mode="r" if mmap else None)
        self.artifact = artifact
        self.mmap = artifact.mmap_mode == "r"
        self.closed = False
        self.scheme_name = resolve_scheme_name(scheme or artifact.scheme)
        self.backend = validate_backend(backend or artifact.backend)
        self.max_batch = int(max_batch if max_batch is not None
                             else artifact.max_batch)
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.snn = artifact.snn                       # deserialised once
        self._scheme = create_scheme(self.scheme_name, self.snn)
        self._attach_plans()
        self._runner = PipelineRunner(self._scheme,
                                      max_batch=self.max_batch,
                                      backend=self.backend)
        self.num_dispatches = 0
        self.num_images = 0
        if warmup:
            self._warmup()

    # ------------------------------------------------------------------
    def _attach_plans(self) -> None:
        """Hand the bundle's compiled plans (or fresh ones) to the scheme.

        v2 bundles ship ``plans.npz``, so no plan is ever compiled at
        request time; v1 bundles (or plan-less v2 ones) get plans
        compiled here, once, at open time.  Only the event backend
        reads plans, so dense sessions, and schemes that don't take
        plans, neither load nor compile them.
        """
        if self.backend != "event" or not hasattr(self._scheme, "plans"):
            return
        plans = self.artifact.plans
        if plans is None and self.artifact.input_shape is not None:
            from ..engine.plan import compile_plans

            plans = compile_plans(self.snn, self.artifact.input_shape)
        if plans is not None:
            self._scheme.plans = plans

    def _warmup(self) -> None:
        """Exercise the encoder (and event path) on a zero image.

        First-call costs — TTFS threshold grids, event-stream buffers —
        are paid here, at open time, instead of inside the first user
        request's latency.
        """
        shape = self.artifact.input_shape
        if shape is None:
            return
        zeros = np.zeros((1, *shape), dtype=np.float32)
        self.snn.encode_input(zeros)
        if self.backend == "event":
            self.snn.input_events(zeros)

    def _as_batch(self, batch) -> np.ndarray:
        arr = np.asarray(batch)
        if arr.ndim == 3:           # a single CHW image
            arr = arr[None]
        if arr.ndim != 4:
            raise ValueError(
                f"predict expects one CHW image or an NCHW batch, got "
                f"shape {arr.shape}")
        return arr

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the runner, scheme and (mapped) weights.

        A session that lost a cold-open race — or was retired by a
        hot-reload — must be closed so its warmup work, plans and weight
        maps are actually dropped instead of leaking for the server's
        lifetime.  Idempotent; ``predict`` after close raises.
        """
        self.closed = True
        self._runner = None
        self._scheme = None
        self.snn = None
        self.artifact = None

    def predict(self, batch) -> Prediction:
        """Classify an NCHW batch (or one CHW image) in one dispatch."""
        if self.closed:
            raise RuntimeError(
                "InferenceSession is closed (retired or torn down); open "
                "a fresh session for this bundle")
        arr = self._as_batch(batch)
        t0 = time.perf_counter()
        result = self._runner.run(arr)
        latency = time.perf_counter() - t0
        self.num_dispatches += 1
        self.num_images += len(arr)
        spikes = getattr(result, "total_spikes", None)
        sops = getattr(result, "total_sops", None)
        return Prediction(
            predictions=result_predictions(result),
            batch_size=len(arr), latency_s=latency,
            scheme=self.scheme_name, backend=self.backend,
            total_spikes=None if spikes is None else int(spikes),
            total_sops=None if sops is None else int(sops))

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Lifetime counters (the server's /healthz surfaces these)."""
        return {
            "scheme": self.scheme_name,
            "backend": self.backend,
            "max_batch": self.max_batch,
            "mmap": self.mmap,
            "num_dispatches": self.num_dispatches,
            "num_images": self.num_images,
        }
