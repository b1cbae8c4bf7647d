"""Run-time serving: versioned model bundles + inference sessions.

The build/run split the paper's economics imply — expensive CAT
training, log-quantisation and conversion happen **once**; the cheap
sparse TTFS inference path runs forever after — lives here:

* :mod:`artifact` — :class:`ModelArtifact`, the versioned on-disk bundle
  (manifest + converted SNN + optional ANN weights, content-digested);
  ``build(config, path)`` drives the existing ``repro.api`` stages,
  ``load(path)`` integrity-checks before anything simulates;
* :mod:`session`  — :class:`InferenceSession`, the stateful run-time
  handle: open an artifact once, ``predict`` many times, never
  re-convert or re-quantise;
* :mod:`registry` — :class:`ModelRegistry`, named + versioned bundles
  with alias resolution (``"vgg-t2fsnn:latest"``) and closest-match
  suggestions covering names *and* aliases;
* :mod:`batching` — :class:`MicroBatcher`, coalescing concurrent
  single-image requests into batched simulator dispatches;
* :mod:`pool`     — :class:`WorkerPool`, the horizontal fleet: N
  session *processes* per model over one mmap'd bundle copy, each
  behind its own batcher;
* :mod:`server` / :mod:`client` — the stdlib-only JSON prediction
  server behind ``repro serve`` (with bounded-admission load shedding
  and zero-downtime alias hot-reload) and the ``repro predict`` client.

See ``docs/serve.md`` for the bundle format, registry layout and wire
protocol.
"""

from .artifact import (
    ARTIFACT_SCHEMA_VERSION,
    BUILD_STAGES,
    MANIFEST_NAME,
    ArtifactError,
    ModelArtifact,
    file_digest,
)
from .batching import BatcherClosed, MicroBatcher
from .client import ServerError, predict_remote, server_health, server_models
from .pool import SessionSpec, WorkerPool, WorkerPoolError
from .registry import ALIAS_FILE, DEFAULT_ALIAS, ModelRegistry
from .server import (
    DEFAULT_MAX_BODY_BYTES,
    DEFAULT_MAX_QUEUE,
    PROTOCOL_VERSION,
    PredictionServer,
    ServerOverloaded,
)
from .session import InferenceSession, Prediction

__all__ = [
    "ARTIFACT_SCHEMA_VERSION",
    "BUILD_STAGES",
    "MANIFEST_NAME",
    "ArtifactError",
    "ModelArtifact",
    "file_digest",
    "BatcherClosed",
    "MicroBatcher",
    "ServerError",
    "predict_remote",
    "server_health",
    "server_models",
    "SessionSpec",
    "WorkerPool",
    "WorkerPoolError",
    "ALIAS_FILE",
    "DEFAULT_ALIAS",
    "ModelRegistry",
    "DEFAULT_MAX_BODY_BYTES",
    "DEFAULT_MAX_QUEUE",
    "PROTOCOL_VERSION",
    "PredictionServer",
    "ServerOverloaded",
    "InferenceSession",
    "Prediction",
]
