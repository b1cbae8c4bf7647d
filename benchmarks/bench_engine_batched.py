"""Batched engine runner vs per-image looping — the batching payoff.

The chip processes one inference at a time, but the simulator does not
have to: the engine's :class:`~repro.engine.PipelineRunner` chunks a
batch through the shared layer walk, amortising the per-layer Python and
im2col overhead over every image in the chunk.  This bench measures
single-image vs chunked-batch throughput of the closed-form TTFS scheme
on a 64-image batch and asserts the batched walk is at least 2x faster
(the margin grows as the per-image compute shrinks — the micro workload
shows the overhead-dominated regime).
"""

from __future__ import annotations

import time

import numpy as np

from repro.analysis import format_table
from repro.cat import CATConfig, convert
from repro.engine import PipelineRunner
from repro.nn import init as nninit, vgg7, vgg_micro
from repro.snn import EventDrivenTTFSNetwork

from conftest import save_result

BATCH = 64
ROUNDS = 3
WORKLOADS = (("vgg_micro 8x8", vgg_micro, 8), ("vgg7 16x16", vgg7, 16))


def _best_throughput(runner: PipelineRunner, images: np.ndarray) -> float:
    best = float("inf")
    for _ in range(ROUNDS):
        t0 = time.perf_counter()
        runner.run(images)
        best = min(best, time.perf_counter() - t0)
    return len(images) / best


def test_batched_runner_throughput():
    rows = []
    speedups = {}
    for label, builder, size in WORKLOADS:
        nninit.seed(11)
        model = builder(num_classes=6, input_size=size)
        cfg = CATConfig(window=12, tau=2.0, method="I+II+III")
        snn = convert(model, cfg)  # weights untrained: throughput only
        rng = np.random.default_rng(0)
        images = rng.random((BATCH, 3, size, size))

        scheme = EventDrivenTTFSNetwork(snn)
        per_image = _best_throughput(PipelineRunner(scheme, max_batch=1),
                                     images)
        batched = _best_throughput(PipelineRunner(scheme, max_batch=BATCH),
                                   images)
        speedups[label] = batched / per_image
        rows.append([label, round(per_image, 1), round(batched, 1),
                     round(batched / per_image, 2)])

    table = format_table(
        ["workload", "per-image img/s", f"batch-{BATCH} img/s", "speedup"],
        rows, title=f"engine runner throughput, {BATCH}-image batch "
                    "(ttfs-closed-form)")
    save_result("engine_batched", table + (
        "\n\nOne batched layer walk amortises the per-layer Python and "
        "im2col overhead across the whole chunk; per-image looping pays "
        f"it {BATCH} times."))

    # Shape criteria: batching must buy >= 2x on a 64-image batch in the
    # overhead-dominated regime (observed ~6x locally, so the bound holds
    # on noisy shared CI runners too), and never slow the larger net down.
    assert speedups["vgg_micro 8x8"] >= 2.0, speedups
    assert speedups["vgg7 16x16"] >= 1.0, speedups
