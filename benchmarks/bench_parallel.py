"""Process-parallel sharded runner vs serial — parity, speedup, cache.

Three claims, one bench:

* **Parity** — ``ParallelRunner`` (worker processes rebuilding the
  scheme from a picklable spec) is *bit-identical* to the serial
  ``PipelineRunner`` on a 64-image micro-VGG batch: same outputs, same
  predictions, same spike/SOP totals.
* **Speedup** — sharding the chunks of a compute-bound workload
  (early-firing TTFS over VGG-7, one GEMM per occupied step) across
  4 workers buys >= 1.8x wall-clock over serial.  Asserted only where the hardware can deliver
  it (>= 4 CPUs); single-core runners still record the measurement.
* **Caching** — re-running the same batch through a result cache
  executes nothing: 100% hits, and the replay beats recomputation.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.analysis import format_table
from repro.cat import CATConfig, convert
from repro.engine import (
    ParallelRunner,
    PipelineRunner,
    ResultCache,
    SchemeSpec,
    create_scheme,
)
from repro.nn import init as nninit, vgg7, vgg_micro

from conftest import save_result

ROUNDS = 3
SPEEDUP_WORKERS = 4
SPEEDUP_FLOOR = 1.8


def _build_snn(builder, size: int, window: int, tau: float):
    nninit.seed(11)
    model = builder(num_classes=6, input_size=size)
    return convert(model, CATConfig(window=window, tau=tau,
                                    method="I+II+III"))


def _best(fn) -> float:
    best = float("inf")
    for _ in range(ROUNDS):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_parallel_bit_identical_on_micro_vgg(tmp_path):
    """64-image micro-VGG batch: parallel == serial, bit for bit."""
    snn = _build_snn(vgg_micro, 8, 12, 2.0)
    images = np.random.default_rng(0).random((64, 3, 8, 8))
    serial = PipelineRunner(create_scheme("ttfs-closed-form", snn),
                            max_batch=16).run(images)
    with ParallelRunner(SchemeSpec("ttfs-closed-form", snn), max_batch=16,
                        workers=2) as runner:
        parallel = runner.run(images)
    assert np.array_equal(serial.output, parallel.output)
    assert np.array_equal(serial.predictions(), parallel.predictions())
    assert serial.total_spikes == parallel.total_spikes
    assert serial.total_sops == parallel.total_sops


def test_parallel_speedup_and_cache_replay():
    snn = _build_snn(vgg7, 16, 24, 4.0)
    images = np.random.default_rng(0).random((64, 3, 16, 16))
    spec = SchemeSpec("ttfs-early", snn)  # compute-bound per chunk

    serial_runner = PipelineRunner(create_scheme("ttfs-early", snn),
                                   max_batch=8)
    t_serial = _best(lambda: serial_runner.run(images))

    with ParallelRunner(spec, max_batch=8,
                        workers=SPEEDUP_WORKERS) as runner:
        runner.run(images)  # warm the pool outside the timed region
        t_parallel = _best(lambda: runner.run(images))

    import tempfile
    with tempfile.TemporaryDirectory() as cache_dir:
        cache = ResultCache(cache_dir)
        with ParallelRunner(spec, max_batch=8, workers=1,
                            cache=cache) as runner:
            runner.run(images)  # populate
            assert cache.misses == 8 and cache.hits == 0
            t_cached = _best(lambda: runner.run(images))
            assert cache.misses == 8  # every repeat was a pure replay

    speedup = t_serial / t_parallel
    cores = os.cpu_count() or 1
    rows = [
        ["serial (1 core)", round(1e3 * t_serial, 1), 1.0],
        [f"parallel ({SPEEDUP_WORKERS} workers)",
         round(1e3 * t_parallel, 1), round(speedup, 2)],
        ["cache replay", round(1e3 * t_cached, 1),
         round(t_serial / t_cached, 2)],
    ]
    table = format_table(
        ["configuration", "64-img batch (ms)", "speedup"],
        rows, title=f"ttfs-early VGG-7 16x16, {cores} CPU(s) visible")
    save_result("parallel_runner", table + (
        "\n\nChunks are independent (pure function of weights, config, "
        "inputs), so the parallel runner shards them across a process "
        "pool; the content-addressed cache replays repeated runs "
        "without executing any chunk."))

    # Replay must always beat recomputation, wherever this runs.
    assert t_cached < t_serial, (t_cached, t_serial)
    # The speedup claim needs the cores to exist; a 1-core container
    # cannot parallelise and only measures the sharding overhead.  On
    # shared CI runners the reported vCPUs oversubscribe physical
    # cores, so only a loose floor is load-independent there.
    floor = 1.2 if os.environ.get("CI") else SPEEDUP_FLOOR
    if cores >= SPEEDUP_WORKERS:
        assert speedup >= floor, rows
