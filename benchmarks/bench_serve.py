"""Serving fleet throughput: WorkerPool vs one in-process session.

The fleet claim of the serving layer, measured end to end: concurrent
clients submitting single-image requests through the micro-batching
submit path, against

* an **in-process** reference — one ``InferenceSession`` behind one
  ``MicroBatcher`` (exactly ``repro serve`` with ``--workers 0``), and
* a **fleet** — ``WorkerPool`` with 1, 2 (and, where the cores exist,
  4) session processes sharing one mmap'd bundle copy.

Three claims, one bench:

* **Parity** — fleet predictions are bit-identical to the single
  session's, spikes and SOPs included.
* **Throughput** — on a >= 4-core host, the 4-worker fleet clears
  2x the in-process requests/sec (CI runners get a looser floor; a
  1-core container only records the measurement, it cannot honestly
  assert a parallel speedup).
* **Tail latency** — per-request p50/p99 are recorded per
  configuration, so regressions in the batching/admission path show
  up as latency, not just rps.

Writes ``benchmarks/results/serve.txt`` (human table) and
``benchmarks/results/serve.json`` (machine-readable; diffed against
the committed ``BENCH_serve.json`` by ``compare.py --suite serve``).
"""

from __future__ import annotations

import json
import os
import threading
import time

import numpy as np

from repro.analysis import format_table
from repro.cat import CATConfig, convert
from repro.nn import init as nninit, vgg_micro
from repro.serve import (
    InferenceSession,
    MicroBatcher,
    ModelArtifact,
    SessionSpec,
    WorkerPool,
)

from conftest import RESULTS_DIR, save_result

#: Single-image requests per timed round, spread over CLIENTS threads.
REQUESTS = 64
CLIENTS = 8
MAX_BATCH = 8
ROUNDS = 2
SPEEDUP_WORKERS = 4
SPEEDUP_FLOOR = 2.0


def _build_bundle(path):
    """A served bundle around a seeded (untrained) micro VGG.

    Accuracy is irrelevant to a throughput bench; the early-firing walk
    makes each dispatch compute-bound enough that process parallelism,
    not queue overhead, is what the numbers measure.
    """
    nninit.seed(7)
    model = vgg_micro(num_classes=6, input_size=16)
    snn = convert(model, CATConfig(window=24, tau=4.0, method="I+II+III"))
    return ModelArtifact.save(
        path, snn, name="bench-serve", scheme="ttfs-early",
        backend="dense", max_batch=MAX_BATCH, input_shape=(3, 16, 16))


def _drive(submit, images):
    """Hammer ``submit`` from CLIENTS threads; (rps, p50_ms, p99_ms)."""
    latencies = []
    lock = threading.Lock()

    def client(chunk):
        for image in chunk:
            t0 = time.perf_counter()
            future = submit(image)
            future.result(timeout=600)
            dt = time.perf_counter() - t0
            with lock:
                latencies.append(dt)

    chunks = np.array_split(images, CLIENTS)
    threads = [threading.Thread(target=client, args=(chunk,))
               for chunk in chunks if len(chunk)]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - t0
    latencies_ms = np.sort(np.asarray(latencies)) * 1e3
    return (len(images) / wall,
            float(np.percentile(latencies_ms, 50)),
            float(np.percentile(latencies_ms, 99)))


def _best_drive(submit, images):
    """Best-of-ROUNDS rps (and its latency percentiles)."""
    best = (0.0, float("inf"), float("inf"))
    for _ in range(ROUNDS):
        measured = _drive(submit, images)
        if measured[0] > best[0]:
            best = measured
    return best


def test_serve_fleet_throughput(tmp_path):
    bundle = _build_bundle(tmp_path / "bundle")
    images = np.random.default_rng(0).random((REQUESTS, 3, 16, 16))
    cores = os.cpu_count() or 1
    worker_counts = [1, 2] + ([SPEEDUP_WORKERS]
                              if cores >= SPEEDUP_WORKERS else [])

    # -- in-process reference (repro serve --workers 0) ----------------
    session = InferenceSession(bundle.path)
    reference = session.predict(images[:16])
    with MicroBatcher(session.predict, MAX_BATCH,
                      max_wait_s=0.002) as batcher:
        batcher.submit(images[0]).result(timeout=600)      # warm
        single_rps, single_p50, single_p99 = _best_drive(
            batcher.submit, images)

    records = [{"mode": "in-process", "workers": 0,
                "rps": round(single_rps, 2),
                "p50_ms": round(single_p50, 2),
                "p99_ms": round(single_p99, 2),
                "rps_vs_single": 1.0}]

    # -- the fleet -----------------------------------------------------
    spec = SessionSpec(str(bundle.path), mmap=True)
    for workers in worker_counts:
        with WorkerPool(spec, workers=workers,
                        batch_wait_s=0.002) as pool:
            # fleet parity first: same bits as the in-process session
            pooled = pool.predict(images[:16])
            np.testing.assert_array_equal(pooled.predictions,
                                          reference.predictions)
            assert pooled.total_spikes == reference.total_spikes
            assert pooled.total_sops == reference.total_sops

            pool.submit(images[0]).result(timeout=600)     # warm
            rps, p50, p99 = _best_drive(pool.submit, images)
        records.append({"mode": "fleet", "workers": workers,
                        "rps": round(rps, 2),
                        "p50_ms": round(p50, 2),
                        "p99_ms": round(p99, 2),
                        "rps_vs_single": round(rps / single_rps, 2)})

    rows = [[f"{r['mode']} ({r['workers']} worker(s))" if r["workers"]
             else "in-process session", r["rps"], r["p50_ms"],
             r["p99_ms"], r["rps_vs_single"]] for r in records]
    table = format_table(
        ["configuration", "req/s", "p50 (ms)", "p99 (ms)", "vs single"],
        rows,
        title=f"serving fleet, {REQUESTS} reqs x {CLIENTS} clients, "
              f"{cores} CPU(s) visible")
    save_result("serve", table + (
        "\n\nEach fleet worker is a separate process over one mmap'd "
        "bundle copy, behind its own micro-batcher; requests route to "
        "the least-loaded batcher.  Predictions are asserted "
        "bit-identical to the in-process session."))

    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "serve.json").write_text(json.dumps(
        {"schema_version": 1, "requests": REQUESTS, "clients": CLIENTS,
         "max_batch": MAX_BATCH, "rounds": ROUNDS, "cores": cores,
         "records": records}, indent=2) + "\n")

    # A 1-core container cannot parallelise; it records honest numbers
    # but only a host with the cores can carry the speedup claim.  CI
    # runners oversubscribe vCPUs, so the floor is looser there.
    if cores >= SPEEDUP_WORKERS:
        floor = 1.2 if os.environ.get("CI") else SPEEDUP_FLOOR
        best = max(r["rps_vs_single"] for r in records[1:])
        assert best >= floor, records
