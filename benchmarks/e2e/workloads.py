"""What the spawned children run, and the HTTP load generator.

Each batch workload runs in a fresh spawned child that opens the bundle
three times through ``InferenceSession`` (``setup_s`` is the median
open), then calls ``predict`` until the run's seconds are spent.  The
serve child opens three ``PredictionServer`` channels the same way and
serves the last; the load generator drives it from the benchmark
process.  Children report their own peak RSS, the host's speed as
:class:`SpeedProbe` measured it during set-up and during the run and,
when traced, their :class:`~ledger.Ledger` metrics.
"""

from __future__ import annotations

import contextlib
import gc
import http.client
import json
import resource
import statistics
import threading
import time
import traceback

import numpy as np

from repro.cat import Base2Kernel
from repro.engine import executor
from repro.engine.registry import create_scheme
from repro.events import EventStream
from repro.serve import InferenceSession, ModelArtifact, PredictionServer

import netbuild
from ledger import Ledger

#: Batch workloads: session overrides on the bundle, images per call,
#: and whether an untimed single-image call first pays first-call costs
#: (the event path's are about 10% of a call; fixed-point's first call
#: costs no more than later ones, and its one image is 40% of a run).
BATCH = {
    "vgg16-dense": ({}, netbuild.MAX_BATCH, True),
    "vgg16-event": ({"backend": "event"}, 4, True),
    "hw-fixed-point": ({"scheme": "fixed-point"}, 1, False),
}
SERVE = "serve-http"
WORKLOADS = ("vgg16-dense", "vgg16-event", SERVE, "hw-fixed-point")
MODEL = "vgg16-e2e"

#: serve-http open-loop schedule: (step, req/s, share of the run).  At
#: 15 s the base step holds 62 requests.  One image costs 55-130 ms on
#: a 2-core host, so 5 req/s leaves headroom when the host slows; at 8
#: and 10 req/s requests queued behind slow ones and the latency tail
#: spread by 40-60% across runs.
STEPS = (("warmup", 5, 1 / 15), ("base", 5, 12.5 / 15), ("peak", 10, 1.5 / 15))
SENDERS = 2

#: Seconds the speed probe runs before set-up (and, for serve-http, at
#: the end), and its share of each batch call's time, run after the call.
PROBE_BURST_S = 0.5
PROBE_SHARE = 0.04


def peak_rss_mb() -> float:
    """This process's VmHWM (``ru_maxrss`` is in KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def child(conn, target, *args) -> None:
    """Spawned-process entry: run ``target`` and send back its result."""
    try:
        result = target(conn, *args)
    except BaseException:
        conn.send({"error": traceback.format_exc()})
        raise
    conn.send(result)


# ----------------------------------------------------------------------
# Host speed
# ----------------------------------------------------------------------

def probe_inputs():
    rng = np.random.default_rng(0)
    return (rng.standard_normal((4, 64, 34, 34)).astype(np.float32),
            rng.standard_normal((576, 64)).astype(np.float32),
            np.sort(rng.standard_normal(24)).astype(np.float32),
            rng.integers(0, 150_000, 250_000))


def probe_kernel(x, w, grid, targets) -> int:
    """A fixed miniature of a spiking conv layer, in numpy and the
    interpreter only: an im2col gather, a float32 GEMM, a threshold
    search, a scatter-add, a stable sort of the spike times and a
    Python loop.  It never calls the program."""
    windows = np.lib.stride_tricks.sliding_window_view(x, (3, 3),
                                                       axis=(2, 3))
    cols = np.ascontiguousarray(windows.transpose(0, 2, 3, 1, 4, 5))
    z = (cols.reshape(-1, w.shape[0]) @ w).ravel()
    times = np.searchsorted(grid, z)
    psp = np.bincount(targets, weights=z[:targets.size], minlength=150_000)
    order = np.argsort(times, kind="stable")
    total = 0
    for i in range(10_000):
        total += i
    return int(order[0]) + int(psp.argmax()) + total


class SpeedProbe:
    """Times :func:`probe_kernel` next to the workload, so that the
    benchmark can scale its times to a nominal host speed.

    The 2-core VM the benchmark was tuned on switches between two speeds
    within seconds and stays in either for up to tens of minutes; the
    probe then takes about 23 or 32 ms, in CPU time as well as wall
    time.  With each call bracketed by probes, the log of the call time
    moved with the log of the probe time by a factor of 0.8 (dense, 32
    images), 1.1 (dense, one image) and 0.65 (event), and scaling cut
    the spread of call times by 20-60%.
    """

    def __init__(self):
        self.inputs = probe_inputs()
        probe_kernel(*self.inputs)

    def burst(self, seconds: float = PROBE_BURST_S) -> float:
        """Mean kernel time over about ``seconds``, at least one run."""
        times, t_end = [], time.perf_counter() + seconds
        while not times or time.perf_counter() < t_end:
            times.append(timed(probe_kernel, *self.inputs)[1])
        return statistics.fmean(times)


# ----------------------------------------------------------------------
# Set-up: three opens, median reported
# ----------------------------------------------------------------------

def timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def release(session) -> None:
    """Close a session and collect it now, so that whether its memory
    is still held when the next one opens does not depend on when the
    garbage collector happens to run."""
    session.close()
    gc.collect()


def open_sessions(path, overrides, trace: bool):
    """Open the bundle three times; keep the last session.

    Untraced, each open is one ``InferenceSession(path)``.  Traced, the
    artifact load is timed on its own and each open is paired with one
    that skips warm-up, so set-up splits into load, scheme open and
    warm-up.
    """
    opens, loads, cold, warm, session = [], [], [], [], None
    for _ in range(3):
        if session is not None:
            release(session)
        if not trace:
            session, seconds = timed(InferenceSession, path, **overrides)
            opens.append(seconds)
            continue
        artifact, load_s = timed(ModelArtifact.load, path)
        quiet, cold_s = timed(InferenceSession, artifact, warmup=False,
                              **overrides)
        release(quiet)
        artifact, load2_s = timed(ModelArtifact.load, path)
        session, warm_s = timed(InferenceSession, artifact, **overrides)
        loads += [load_s, load2_s]
        cold.append(cold_s)
        warm.append(warm_s)
        opens.append(load2_s + warm_s)
    setup = {"setup_s": statistics.median(opens)}
    if trace:
        setup.update({
            "setup.artifact_load_s": statistics.median(loads),
            "setup.scheme_open_s": statistics.median(cold),
            "setup.warmup_s": max(0.0, statistics.median(warm)
                                  - statistics.median(cold))})
    return session, setup


# ----------------------------------------------------------------------
# Batch workloads
# ----------------------------------------------------------------------

def take(pool, start: int, count: int) -> np.ndarray:
    """``count`` pool images from ``start``, wrapping around the pool."""
    return pool[np.arange(start, start + count) % len(pool)]


def measure(predict, pool, per_call: int, seconds: float, probe,
            repeat: int = 1):
    """Call ``predict`` on successive pool slices for about ``seconds``,
    each slice ``repeat`` times in a row.

    A burst of the :class:`SpeedProbe` ``probe`` for :data:`PROBE_SHARE`
    of each call's time follows the call, and the call's ``probe_s`` is
    the mean of the bursts on either side of it.  Stops when another call
    would more likely end past ``seconds`` than before it, so slow calls
    do not overshoot by a whole call, but never inside a slice's repeats:
    a traced run whose first call alone fills ``seconds`` still makes
    its traced call.
    """
    calls, start, t_start = [], 0, time.perf_counter()
    before = probe.burst(0.0)
    while True:
        batch = take(pool, start, per_call)
        record = {"start": start, "images": per_call, "error": None}
        t0 = time.perf_counter()
        try:
            out = predict(batch)
        except Exception:  # noqa: BLE001 -- counted as a failed call
            record["error"] = traceback.format_exc()
        else:
            record["predictions"] = out.predictions.tolist()
            record["spikes"] = out.total_spikes
            record["sops"] = out.total_sops
        record["wall_s"] = time.perf_counter() - t0
        calls.append(record)
        after = probe.burst(PROBE_SHARE * record["wall_s"])
        record["probe_s"] = (before + after) / 2
        before = after
        if len(calls) % repeat:
            continue
        start += per_call
        if time.perf_counter() - t_start + record["wall_s"] / 2 >= seconds:
            return calls


def run_batch(conn, workload, path, pool, seconds, trace):
    """One batch workload in this (child) process."""
    overrides, per_call, warm_up = BATCH[workload]
    probe = SpeedProbe()
    probe_setup_s = probe.burst()
    session, setup = open_sessions(path, overrides, trace)
    if warm_up:
        session.predict(pool[-1:])
    ledger = (Ledger(capture_times=workload == "vgg16-event") if trace
              else contextlib.nullcontext())
    with ledger:
        # traced, each slice runs untraced then traced: the pair times
        # the same images both ways
        calls = measure(session.predict, pool, per_call, seconds, probe,
                        repeat=2 if trace else 1)
        result = {"calls": calls, "setup": setup,
                  "peak_rss_mb": peak_rss_mb(),
                  "probe_setup_s": probe_setup_s,
                  "probe_run_s": statistics.median(c["probe_s"]
                                                   for c in calls)}
        traced = ledger.batches if trace else []
        if workload == "hw-fixed-point":
            result["checks"] = {"fixed_point_event":
                                fixed_point_event_check(session, pool, calls,
                                                        traced)}
        if trace:
            result["ledger"] = ledger.metrics()
            result["layer_spikes"] = [b["spikes"] for b in traced]
            if workload == "vgg16-event":
                result["ledger"].update(spike_mismatch(session.snn, pool,
                                                       calls, traced))
    session.close()
    return result


def fixed_point_event_check(session, pool, calls, batches) -> bool:
    """The integer datapath agrees with its event formulation on one
    image: bitwise on the readout when the run was traced (the ledger
    captured it), on the prediction otherwise."""
    index = next((i for i, b in enumerate(batches) if b["traced"]), 0)
    call = calls[index]
    event = create_scheme("fixed-point", session.snn, backend="event",
                          plans=session.artifact.plans)
    readout = executor.run_pipeline(event, take(pool, call["start"], 1))
    if batches:
        return bool(np.array_equal(readout, batches[index]["readout"]))
    return int(readout.argmax(axis=1)[0]) == call["predictions"][0]


def spike_mismatch(snn, pool, calls, batches):
    """Per hidden layer, neurons per image whose event-path spike time
    differs from the value-domain reference (which dense matches)."""
    cfg = snn.config
    kernel = Base2Kernel(tau=cfg.tau, base=cfg.base)
    labels = [f"{s.kind}{i}" for i, s in enumerate(snn.weight_layers)]
    counts, images = np.zeros(len(labels) - 1), 0
    for call, batch in zip(calls, batches):
        if not batch["traced"]:
            continue
        acts = []
        netbuild.reference(snn, take(pool, call["start"], call["images"]),
                           acts)
        for i, act in enumerate(acts):
            ref = kernel.spike_time(act, theta0=cfg.theta0,
                                    window=cfg.window)
            state = batch["states"][labels[i]]
            got = state.to_dense() if isinstance(state, EventStream) \
                else state.times
            counts[i] += np.count_nonzero(got != ref)
        images += call["images"]
    return {f"engine.{label}.spike_mismatch": count / max(images, 1)
            for label, count in zip(labels, counts)}


# ----------------------------------------------------------------------
# serve-http
# ----------------------------------------------------------------------

def run_server(conn, registry, trace):
    """Serve the registry until told to stop (runs in the child)."""
    probe = SpeedProbe()
    probe_setup_s = probe.burst()
    with Ledger() if trace else contextlib.nullcontext() as ledger:
        servers, opens = [], []
        for _ in range(3):
            server = PredictionServer(registry)
            opens.append(timed(server.channel_for, MODEL)[1])
            servers.append(server)
        for spare in servers[:-1]:
            spare.close()
        setup = {"setup_s": statistics.median(opens)}
        if trace:
            session, split = open_sessions(
                servers[-1].registry.resolve(MODEL), {}, trace=True)
            session.close()
            split.pop("setup_s")
            setup.update(split)
        server = servers[-1].start()
        conn.send({"port": server.port})
        conn.recv()
        result = {"setup": setup, "peak_rss_mb": peak_rss_mb()}
        if trace:
            result["ledger"] = ledger.metrics()
        server.close()
    result.update(probe_setup_s=probe_setup_s,
                  probe_run_s=(probe_setup_s + probe.burst()) / 2)
    return result


def schedule(seconds: float, pool_size: int, rng):
    """Evenly spaced arrivals: ``(due_s, pool index, step)`` per request."""
    plan, t = [], 0.0
    for step, rate, share in STEPS:
        count = max(1, round(rate * seconds * share))
        for k in range(count):
            plan.append((t + k / rate, int(rng.integers(pool_size)), step))
        t += count / rate
    return plan


def drive(port: int, bodies, plan):
    """Send ``plan`` open-loop from :data:`SENDERS` threads.

    Each sender owns every ``SENDERS``-th request and one HTTP/1.0
    connection at a time.  Latency counts from when a request was due,
    so a stall also charges the requests queued behind it.
    """
    records = [None] * len(plan)
    t0 = time.perf_counter() + 0.05

    def sender(first):
        for i in range(first, len(plan), SENDERS):
            due_s, index, step = plan[i]
            delay = t0 + due_s - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter()
            record = {"step": step, "index": index, "due_s": due_s,
                      "late_s": sent - t0 - due_s, "status": None}
            try:
                conn = http.client.HTTPConnection("127.0.0.1", port,
                                                  timeout=60)
                try:
                    conn.request("POST", "/predict", bodies[index],
                                 {"Content-Type": "application/json"})
                    response = conn.getresponse()
                    record["status"] = response.status
                    payload = json.loads(response.read())
                finally:
                    conn.close()
            except (OSError, ValueError, http.client.HTTPException) as exc:
                record["error"] = repr(exc)
            else:
                if response.status == 200:
                    record["predictions"] = payload["predictions"]
                    record["metrics"] = payload["metrics"]
            done = time.perf_counter()
            record["latency_s"] = done - t0 - due_s
            record["wall_s"] = done - sent
            record["done_s"] = done - t0
            records[i] = record

    threads = [threading.Thread(target=sender, args=(k,), daemon=True)
               for k in range(SENDERS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records


def request_bodies(images):
    """One JSON ``/predict`` body per image."""
    return [json.dumps({"model": MODEL, "inputs": image.tolist()}).encode()
            for image in images]
