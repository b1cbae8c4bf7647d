"""Dense vs event backends — compiled plans and the segment-sum scatter.

The dense `ttfs-timestep` walk integrates a full activation volume at
every timestep, so its cost is O(T x neurons) no matter how sparse the
network's activity is.  The event backend scatters only the spikes that
occurred (O(events x fan-out)), which is exactly what the processor's
sorted-spike streaming exploits.  This bench runs the micro-VGG at the
paper-relevant windows (T=16 and the T2FSNN-scale T=80) across input
sparsity levels and times three variants:

``dense``    the dense per-timestep walk;
``scatter``  the event backend's historical hot path (per-batch
             geometry + ``np.add.at``, via
             :func:`~repro.engine.executor.integrate_events_reference`);
``event``    the event backend on compiled plans + segment-sum kernels.

Shape criteria asserted: the plan+segment-sum path must beat the old
scatter on the sparse T=80 workload, and every variant must tell the
same physical story (spike counts, SOPs, predictions).

Results go to ``benchmarks/results/event_stream.txt`` (rendered table)
and ``benchmarks/results/event_stream.json`` (machine-readable, the CI
artifact — diffed against the committed ``BENCH_event_stream.json``
baseline by ``benchmarks/compare.py``).
"""

from __future__ import annotations

import json
import time
from unittest import mock

import numpy as np

from repro.analysis import format_table
from repro.cat import CATConfig, convert
from repro.engine import compile_plans, create_scheme, executor
from repro.nn import init as nninit, vgg_micro

from conftest import RESULTS_DIR, save_result

BATCH = 32
ROUNDS = 3
SCHEME = "ttfs-timestep"
#: (window, tau) design points: the bench-scale paper window and the
#: T2FSNN baseline scale (Table 2's T=80).
WINDOWS = ((16, 4.0), (80, 16.0))
#: Fraction of input pixels left nonzero (spike density knob).
DENSITIES = (1.0, 0.25, 0.05)


def _best_seconds(scheme, images: np.ndarray) -> float:
    best = float("inf")
    for _ in range(ROUNDS):
        t0 = time.perf_counter()
        scheme.run(images)
        best = min(best, time.perf_counter() - t0)
    return best


def test_event_backend_sparsity_speedup():
    nninit.seed(11)
    model = vgg_micro(num_classes=6, input_size=8)
    rng = np.random.default_rng(0)
    base_images = rng.random((BATCH, 3, 8, 8))

    rows = []
    records = []
    for window, tau in WINDOWS:
        snn = convert(model, CATConfig(window=window, tau=tau,
                                       method="I+II+III"))
        plans = compile_plans(snn, (3, 8, 8))
        for density in DENSITIES:
            images = base_images * (rng.random(base_images.shape) < density)
            dense_scheme = create_scheme(SCHEME, snn, backend="dense")
            event_scheme = create_scheme(SCHEME, snn, backend="event",
                                         plans=plans)
            scatter_scheme = create_scheme(SCHEME, snn, backend="event")
            dense_s = _best_seconds(dense_scheme, images)
            with mock.patch.object(executor, "integrate_events",
                                   executor.integrate_events_reference):
                scatter_s = _best_seconds(scatter_scheme, images)
            event_s = _best_seconds(event_scheme, images)
            dense_run = dense_scheme.run(images)
            event_run = event_scheme.run(images)
            # both backends must tell the same physical story
            assert dense_run.total_spikes == event_run.total_spikes
            assert dense_run.total_sops == event_run.total_sops
            assert np.array_equal(dense_run.predictions(),
                                  event_run.predictions())
            record = {
                "scheme": SCHEME,
                "window": window,
                "tau": tau,
                "input_density": density,
                "total_spikes": int(dense_run.total_spikes),
                "spike_sparsity": round(1.0 - dense_run.total_spikes / sum(
                    t.neurons for t in dense_run.traces), 4),
                "dense_ms": round(1e3 * dense_s, 2),
                "scatter_ms": round(1e3 * scatter_s, 2),
                "event_ms": round(1e3 * event_s, 2),
                "speedup": round(dense_s / event_s, 2),
                "scatter_speedup": round(scatter_s / event_s, 2),
            }
            records.append(record)
            rows.append([f"T={window}", density,
                         record["total_spikes"], record["dense_ms"],
                         record["scatter_ms"], record["event_ms"],
                         record["speedup"]])

    table = format_table(
        ["window", "input density", "spikes", "dense ms", "scatter ms",
         "event ms", "event speedup"],
        rows, title=f"dense vs event backend, {SCHEME}, "
                    f"{BATCH}-image micro-VGG batch")
    save_result("event_stream", table + (
        "\n\nThe dense walk pays O(T x neurons) per layer regardless of "
        "activity; the event scatter pays O(events x fan-out), so the "
        "gap widens with the window and with sparsity — the regime the "
        "paper's one-spike coding and sorted-spike hardware live in.  "
        "'scatter' is the historical np.add.at hot path; 'event' runs "
        "compiled plans + segment-sum kernels."))
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "event_stream.json").write_text(
        json.dumps({"schema_version": 2, "batch": BATCH,
                    "rounds": ROUNDS, "records": records}, indent=2) + "\n")

    by_key = {(r["window"], r["input_density"]): r for r in records}
    # Shape criteria: at the T2FSNN-scale window the event backend must
    # win outright on the sparse configuration (observed ~4x locally;
    # 1.5x holds on noisy shared CI runners) and must never lose badly
    # anywhere at T=80 (observed ~2x even fully dense).
    assert by_key[(80, 0.05)]["speedup"] >= 1.5, by_key[(80, 0.05)]
    assert by_key[(80, 1.0)]["speedup"] >= 1.0, by_key[(80, 1.0)]
    # The compiled-plan segment-sum path must beat the old np.add.at
    # scatter where the event backend earns its keep.
    assert by_key[(80, 0.05)]["scatter_speedup"] > 1.0, by_key[(80, 0.05)]
