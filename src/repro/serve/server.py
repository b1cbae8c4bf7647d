"""stdlib-only batching prediction server (``repro serve``).

A :class:`PredictionServer` fronts a :class:`~repro.serve.ModelRegistry`
with a threaded HTTP server.  Per model it keeps one *channel* — either
a single warm in-process :class:`~repro.serve.session.InferenceSession`
behind a :class:`~repro.serve.batching.MicroBatcher` (``workers=0``,
the default), or a multi-process :class:`~repro.serve.pool.WorkerPool`
of N sessions sharing one memory-mapped copy of the bundle
(``workers>=1``) — so concurrent requests coalesce into batched
simulator dispatches and fan out across cores.

Three fleet behaviours live at this layer:

* **Backpressure** — each channel admits at most ``max_queue`` images;
  beyond that, ``POST /predict`` sheds load with ``503`` +
  ``Retry-After`` instead of queueing unboundedly.
* **Hot reload** — model specs are re-resolved on every request, so
  repointing a registry alias (``latest -> v2``) takes effect on the
  next request with zero downtime: the new bundle's channel is opened
  *before* the old one is retired, and retirement drains in-flight work.
* **Symmetric teardown** — every channel close shuts the batcher(s)
  *and* the session(s)/worker pool behind them, including the loser of
  a cold-open race.

Protocol (JSON request/response):

``GET /healthz``
    ``{"status": "ok", "models": [...names...], "sessions": {...stats},
    "channels": {label: {requests, shed, pending}}}``
``GET /models``
    registry listing: name, versions, aliases, scheme, backend, ...
``GET /metrics``
    the process-global :mod:`repro.obs` registry in Prometheus text
    exposition format (request counters, latency/batch-size histograms,
    per-worker fleet counters merged from worker snapshots)
``POST /predict``
    body ``{"model": "name[:version|alias]", "inputs": [CHW, ...]}`` →
    ``{"model": ..., "predictions": [int, ...], "metrics": {...}}``
    with per-request latency and spike/SOP counts.  Unknown models are
    404s whose message carries the registry's closest-match suggestion;
    an admission queue at capacity is a 503 with a ``Retry-After``
    header.  A ``Content-Length`` that is not a non-negative integer is
    a 400, and one above ``max_body_bytes`` a 413, both answered before
    any of the body is read.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from ..errors import ReproError
from ..obs import PROMETHEUS_CONTENT_TYPE, get_registry, render_prometheus
from .artifact import ArtifactError
from .batching import BatcherClosed, MicroBatcher
from .pool import SessionSpec, WorkerPool, WorkerPoolError
from .registry import ModelRegistry
from .session import InferenceSession

PROTOCOL_VERSION = 1

#: Default per-channel admission bound (images queued or in flight).
DEFAULT_MAX_QUEUE = 1024

#: Default bound on a ``/predict`` body.  A batch of 32 CIFAR-sized
#: (3x32x32) images as full-precision JSON floats takes about 2 MB.
DEFAULT_MAX_BODY_BYTES = 16 << 20


class ServerOverloaded(ReproError):
    """The admission queue is full; retry after ``retry_after_s``."""

    def __init__(self, message: str, retry_after_s: int = 1):
        super().__init__(message)
        self.retry_after_s = retry_after_s


class _Admission:
    """Bounded in-flight counter: the load-shedding primitive.

    ``acquire(n)`` admits ``n`` images or raises
    :class:`ServerOverloaded`; every resolved future releases one slot.
    ``limit=0`` disables the bound (explicitly unbounded).
    """

    def __init__(self, limit: int):
        if limit < 0:
            raise ValueError("max_queue must be >= 0 (0 = unbounded)")
        self.limit = limit
        self._count = 0
        self._lock = threading.Lock()

    @property
    def pending(self) -> int:
        return self._count

    def acquire(self, n: int) -> None:
        with self._lock:
            if self.limit and self._count + n > self.limit:
                raise ServerOverloaded(
                    f"admission queue full ({self._count} image(s) in "
                    f"flight, limit {self.limit}); retry shortly")
            self._count += n

    def release(self, n: int = 1) -> None:
        with self._lock:
            self._count -= n


class _ModelChannel:
    """Everything serving one resolved bundle path.

    ``workers=0``: one in-process session behind one batcher (exactly
    the pre-fleet behaviour).  ``workers>=1``: a :class:`WorkerPool`
    whose per-worker batchers fan dispatches across processes.  Either
    way the channel owns an admission bound and closes *everything* it
    opened.
    """

    def __init__(self, path: str, server: "PredictionServer"):
        self.path = path
        self.label = "/".join(Path(path).parts[-2:])
        self.admission = _Admission(server.max_queue)
        self.workers = server.workers
        self._session: Optional[InferenceSession] = None
        self._batcher: Optional[MicroBatcher] = None
        self._pool: Optional[WorkerPool] = None
        if server.workers:
            self._pool = WorkerPool(
                SessionSpec(path, scheme=server.scheme,
                            backend=server.backend,
                            max_batch=server.max_batch,
                            warmup=server.warmup, mmap=True),
                workers=server.workers,
                batch_wait_s=server.batch_wait_s,
                start_method=server.start_method)
            self.scheme_name = self._pool.scheme_name
            self.backend = self._pool.backend
            self.input_shape = self._pool.input_shape
        else:
            self._session = InferenceSession(
                path, scheme=server.scheme, backend=server.backend,
                max_batch=server.max_batch, warmup=server.warmup,
                mmap=server.mmap)
            self._batcher = MicroBatcher(self._session.predict,
                                         self._session.max_batch,
                                         max_wait_s=server.batch_wait_s,
                                         labels={"model": self.label,
                                                 "worker": "0"})
            self.scheme_name = self._session.scheme_name
            self.backend = self._session.backend
            self.input_shape = self._session.artifact.input_shape

    # ------------------------------------------------------------------
    def _submit_one(self, image):
        if self._pool is not None:
            return self._pool.submit(image)
        return self._batcher.submit(image)

    def submit_many(self, images) -> List:
        """Admit and enqueue a whole request's images, or shed it.

        Admission is all-or-nothing per request: a request that would
        overflow the bound is rejected before any of its images queue.
        """
        self.admission.acquire(len(images))
        futures: List = []
        try:
            for image in images:
                future = self._submit_one(image)
                future.add_done_callback(self._release_one)
                futures.append(future)
        except BaseException:
            # images never submitted must not leak admission slots; the
            # submitted ones release via their done-callbacks
            self.admission.release(len(images) - len(futures))
            raise
        return futures

    def _release_one(self, _future) -> None:
        self.admission.release(1)

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        if self._pool is not None:
            stats = self._pool.stats()
        else:
            stats = dict(self._session.stats())
            stats["workers"] = 0
            stats["pending"] = self._batcher.pending
        stats["bundle"] = self.label
        stats["queued"] = self.admission.pending
        return stats

    def close(self) -> None:
        """Drain in-flight work, then free sessions/workers (symmetric:
        everything opened here is closed here)."""
        if self._pool is not None:
            self._pool.close()
        if self._batcher is not None:
            self._batcher.close()
        if self._session is not None:
            self._session.close()


class PredictionServer:
    """Serve every model in a registry over HTTP, micro-batched.

    ``workers=0`` (default) keeps the single-process behaviour: one warm
    in-process session per model version.  ``workers=N`` runs each model
    as a fleet of N session processes over one mmap'd bundle copy.
    ``max_queue`` bounds each model's admission queue (images), shedding
    the excess as HTTP 503; ``0`` disables the bound.  ``max_body_bytes``
    bounds a ``/predict`` body; a longer one is refused with HTTP 413.
    """

    def __init__(self, registry: Union[ModelRegistry, str],
                 host: str = "127.0.0.1", port: int = 0,
                 scheme: Optional[str] = None,
                 backend: Optional[str] = None,
                 max_batch: Optional[int] = None,
                 batch_wait_s: float = 0.005,
                 warmup: bool = True,
                 workers: int = 0,
                 max_queue: int = DEFAULT_MAX_QUEUE,
                 mmap: bool = False,
                 start_method: Optional[str] = None,
                 max_body_bytes: int = DEFAULT_MAX_BODY_BYTES):
        if not isinstance(registry, ModelRegistry):
            registry = ModelRegistry(registry, create=False)
        # validate overrides now (with suggestions), not on first request
        if scheme is not None:
            from ..engine.registry import resolve_scheme_name

            scheme = resolve_scheme_name(scheme)
        if backend is not None:
            from ..engine.executor import validate_backend

            backend = validate_backend(backend)
        if workers < 0:
            raise ValueError("workers must be >= 0 (0 = in-process)")
        if max_queue < 0:
            raise ValueError("max_queue must be >= 0 (0 = unbounded)")
        if max_body_bytes < 1:
            raise ValueError("max_body_bytes must be >= 1")
        self.registry = registry
        self.host = host
        self.port = port                  # 0 = ephemeral; set by start()
        self.scheme = scheme              # per-server session overrides
        self.backend = backend
        self.max_batch = max_batch
        self.batch_wait_s = batch_wait_s
        self.warmup = warmup
        self.workers = workers
        self.max_queue = max_queue
        self.max_body_bytes = max_body_bytes
        self.mmap = mmap or bool(workers)
        self.start_method = start_method
        self.num_requests = 0
        self.num_shed = 0
        self._channels: Dict[str, _ModelChannel] = {}
        self._spec_paths: Dict[str, str] = {}
        self._lock = threading.Lock()
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "PredictionServer":
        """Bind and serve on a daemon thread; returns self (port bound)."""
        handler = _make_handler(self)
        self._httpd = ThreadingHTTPServer((self.host, self.port), handler)
        self.port = self._httpd.server_address[1]
        self._thread = threading.Thread(target=self._httpd.serve_forever,
                                        daemon=True, name="repro-serve")
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Blocking variant for the CLI (Ctrl-C to stop)."""
        if self._httpd is None:
            self.start()
        try:
            self._thread.join()
        except KeyboardInterrupt:
            pass
        finally:
            self.close()

    def close(self) -> None:
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        with self._lock:
            channels, self._channels = self._channels, {}
            self._spec_paths = {}
        for channel in channels.values():
            channel.close()

    def __enter__(self) -> "PredictionServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- channels ------------------------------------------------------
    def channel_for(self, spec: str) -> _ModelChannel:
        """The channel behind a model spec, created once per bundle path.

        Resolution happens on every call, so a repointed alias is picked
        up immediately: the first request after a repoint cold-opens the
        new version's channel (the old one keeps serving until then —
        zero downtime), after which the old channel is *retired* — its
        in-flight work drains, its sessions close — once no served spec
        resolves to it anymore.  Two specs naming the same version share
        one warm channel.
        """
        path = str(self.registry.resolve(spec))
        with self._lock:
            channel = self._channels.get(path)
        if channel is None:
            # the cold open (deserialisation + warmup, or worker spawn)
            # happens outside the lock so requests for already-warm
            # models never stall behind it
            channel = _ModelChannel(path, self)
            with self._lock:
                existing = self._channels.get(path)
                if existing is not None:  # another request won the race
                    loser, channel = channel, existing
                else:
                    loser = None
                    self._channels[path] = channel
            if loser is not None:
                # the losing session/pool would otherwise leak its
                # warmup work and weight maps for the server's lifetime
                loser.close()
        retired = None
        with self._lock:
            previous = self._spec_paths.get(spec)
            self._spec_paths[spec] = path
            if (previous is not None and previous != path
                    and previous not in self._spec_paths.values()):
                retired = self._channels.pop(previous, None)
        if retired is not None:
            retired.close()      # drains in-flight, then frees the bundle
        return channel

    def _record_request(self, label: Optional[str] = None) -> None:
        """Count one served request (handler threads race; lock it)."""
        with self._lock:
            self.num_requests += 1
        registry = get_registry()
        if registry.enabled and label is not None:
            registry.counter(
                "repro_serve_requests_total",
                "Served /predict requests per model channel").inc(
                    1, model=label)

    def _record_shed(self, label: Optional[str] = None) -> None:
        with self._lock:
            self.num_shed += 1
        registry = get_registry()
        if registry.enabled and label is not None:
            registry.counter(
                "repro_serve_shed_total",
                "Requests shed by the admission bound, per model "
                "channel").inc(1, model=label)

    # -- request handling (transport-free, unit-testable) --------------
    def handle_health(self) -> Tuple[int, Dict[str, Any]]:
        with self._lock:
            channels = dict(self._channels)
        stats = {path: channel.stats()
                 for path, channel in channels.items()}
        registry = get_registry()
        per_channel = {
            channel.label: {
                "requests": int(registry.value(
                    "repro_serve_requests_total", model=channel.label)),
                "shed": int(registry.value(
                    "repro_serve_shed_total", model=channel.label)),
                "pending": channel.admission.pending,
            }
            for channel in channels.values()
        }
        return 200, {"status": "ok", "protocol_version": PROTOCOL_VERSION,
                     "models": self.registry.names(),
                     "num_requests": self.num_requests,
                     "num_shed": self.num_shed,
                     "workers": self.workers,
                     "max_queue": self.max_queue,
                     "sessions": stats,
                     "channels": per_channel}

    def handle_metrics(self) -> Tuple[int, str]:
        """``GET /metrics``: the registry in Prometheus text format.

        Queue-depth gauges are refreshed at scrape time (they are levels,
        not events — sampling at exposition is the idiomatic shape).
        """
        registry = get_registry()
        if registry.enabled:
            with self._lock:
                channels = list(self._channels.values())
            pending = registry.gauge(
                "repro_serve_pending",
                "Images admitted to a model channel, not yet resolved")
            pool_pending = registry.gauge(
                "repro_pool_pending",
                "Images queued on one fleet worker's batcher")
            for channel in channels:
                pending.set(channel.admission.pending, model=channel.label)
                if channel._pool is not None:
                    for entry in channel._pool.per_worker_stats():
                        pool_pending.set(entry["pending"],
                                         model=channel.label,
                                         worker=str(entry["worker"]))
        return 200, render_prometheus(registry)

    def handle_models(self) -> Tuple[int, Dict[str, Any]]:
        try:
            return 200, {"models": self.registry.entries()}
        except ArtifactError as exc:
            return 500, {"error": str(exc)}

    def handle_predict(self, payload: Any) -> Tuple[int, Dict[str, Any]]:
        if not isinstance(payload, dict):
            return 400, {"error": "request body must be a JSON object"}
        spec = payload.get("model")
        if not isinstance(spec, str) or not spec:
            return 400, {"error": "missing required field 'model' "
                                  "(e.g. \"vgg-t2fsnn:latest\")"}
        if "inputs" not in payload:
            return 400, {"error": "missing required field 'inputs' "
                                  "(a CHW image or an NCHW batch)"}
        try:
            inputs = np.asarray(payload["inputs"], dtype=np.float64)
        except (TypeError, ValueError) as exc:
            return 400, {"error": f"inputs are not a numeric array: {exc}"}
        if inputs.ndim == 3:
            inputs = inputs[None]
        if inputs.ndim != 4 or len(inputs) == 0:
            return 400, {"error": "inputs must be one CHW image or a "
                                  f"non-empty NCHW batch, got shape "
                                  f"{inputs.shape}"}
        if not np.isfinite(inputs).all():
            # json.loads accepts NaN and Infinity
            return 400, {"error": "inputs must be finite numbers"}
        t0 = time.perf_counter()
        # a submit can race a hot-reload retiring its channel; the
        # retry re-resolves and lands on the replacement, so a deploy
        # never surfaces as a failed request
        for attempt in (0, 1):
            try:
                channel = self.channel_for(spec)
            except ArtifactError as exc:
                return 404, {"error": str(exc)}
            except WorkerPoolError as exc:
                return 500, {"error": str(exc)}
            except (KeyError, ValueError) as exc:
                # e.g. a bad per-session override; KeyError str()
                # re-quotes
                message = exc.args[0] if isinstance(exc, KeyError) else exc
                return 400, {"error": f"cannot open a session for "
                                      f"{spec!r}: {message}"}
            expected = channel.input_shape
            if expected is not None and inputs.shape[1:] != expected:
                # checked before queueing: a batcher stacks requests
                # together, so one wrong shape would fail its neighbours
                return 400, {"error": f"inputs must be images of shape "
                                      f"{list(expected)} (C, H, W) for "
                                      f"{spec!r}, got "
                                      f"{list(inputs.shape[1:])}"}
            try:
                futures = channel.submit_many(inputs)
                break
            except ServerOverloaded as exc:
                self._record_shed(channel.label)
                return 503, {"error": str(exc),
                             "retry_after_s": exc.retry_after_s}
            except BatcherClosed:
                if attempt:
                    return 503, {"error": "model channel is restarting; "
                                          "retry shortly",
                                 "retry_after_s": 1}
        try:
            outcomes = [future.result(timeout=600) for future in futures]
        except Exception as exc:  # noqa: BLE001 — report, don't crash
            return 500, {"error": f"prediction failed: {exc}"}
        wall = time.perf_counter() - t0
        self._record_request(channel.label)
        predictions = [class_id for class_id, _ in outcomes]
        # one entry per distinct dispatched micro-batch this request
        # rode in (identity-keyed: each dispatch builds one Prediction)
        batches = list({id(batch): batch
                        for _, batch in outcomes}.values())
        # latency decomposition: execute is what the simulator dispatches
        # actually cost, queue wait is everything else this request spent
        # (admission, coalescing, waiting behind other batches); their
        # sum is reported as latency_s so existing consumers keep a
        # single end-to-end number that equals its published parts
        execute_s = sum(b.latency_s for b in batches)
        queue_wait_s = max(0.0, wall - execute_s)
        registry = get_registry()
        if registry.enabled:
            registry.histogram(
                "repro_serve_request_seconds",
                "End-to-end /predict wall time").observe(
                    wall, model=channel.label)
            registry.histogram(
                "repro_serve_queue_wait_seconds",
                "Non-execute share of /predict wall time").observe(
                    queue_wait_s, model=channel.label)
            registry.histogram(
                "repro_serve_execute_seconds",
                "Simulator share of /predict wall time").observe(
                    execute_s, model=channel.label)
        spikes = [b.total_spikes for b in batches]
        sops = [b.total_sops for b in batches]
        metrics = {
            "latency_s": queue_wait_s + execute_s,
            "queue_wait_s": queue_wait_s,
            "execute_s": execute_s,
            "num_inputs": len(inputs),
            "num_batches": len(batches),
            "batch_sizes": [b.batch_size for b in batches],
            "scheme": channel.scheme_name,
            "backend": channel.backend,
            "bundle": channel.label,
            "workers": channel.workers,
            "total_spikes": (None if any(s is None for s in spikes)
                             else int(sum(spikes))),
            "total_sops": (None if any(s is None for s in sops)
                           else int(sum(sops))),
        }
        return 200, {"model": spec, "predictions": predictions,
                     "metrics": metrics}


def _make_handler(server: PredictionServer):
    class Handler(BaseHTTPRequestHandler):
        def log_message(self, fmt, *args):
            pass                 # a line per request is noise in tests

        def _reply(self, status: int, payload: Dict[str, Any]) -> None:
            body = json.dumps(payload).encode()
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            if status == 503 and "retry_after_s" in payload:
                self.send_header("Retry-After",
                                 str(payload["retry_after_s"]))
            self.end_headers()
            self.wfile.write(body)

        def _reply_text(self, status: int, body: str,
                        content_type: str) -> None:
            data = body.encode()
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def do_GET(self):  # noqa: N802 — http.server API
            if self.path == "/healthz":
                self._reply(*server.handle_health())
            elif self.path == "/models":
                self._reply(*server.handle_models())
            elif self.path == "/metrics":
                status, body = server.handle_metrics()
                self._reply_text(status, body, PROMETHEUS_CONTENT_TYPE)
            else:
                self._reply(404, {"error": f"unknown path {self.path!r}; "
                                           "endpoints: GET /healthz, "
                                           "GET /metrics, GET /models, "
                                           "POST /predict"})

        def do_POST(self):  # noqa: N802 — http.server API
            if self.path != "/predict":
                self._reply(404, {"error": f"unknown path {self.path!r}; "
                                           "POST /predict is the only "
                                           "mutation endpoint"})
                return
            try:
                length = int(self.headers.get("Content-Length", 0))
            except ValueError:
                length = -1
            if length < 0:
                self._reply(400, {"error": "Content-Length must be a "
                                           "non-negative integer"})
                return
            if length > server.max_body_bytes:
                self._reply(413, {"error": f"request body of {length} "
                                           "bytes exceeds the server's "
                                           f"{server.max_body_bytes}-byte "
                                           "limit"})
                return
            try:
                payload = json.loads(self.rfile.read(length) or b"null")
            except (ValueError, json.JSONDecodeError) as exc:
                self._reply(400, {"error": f"request body is not valid "
                                           f"JSON: {exc}"})
                return
            self._reply(*server.handle_predict(payload))

    return Handler
