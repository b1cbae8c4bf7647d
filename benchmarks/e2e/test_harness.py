"""Tests of the end-to-end benchmark harness itself.

Run by explicit path (the tier-1 suite collects ``tests/`` only)::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_harness.py -q
"""

from __future__ import annotations

import importlib.util
import json
import re
from pathlib import Path

import numpy as np
import pytest

from repro.hw import MEASURED_VGG_PROFILE
from repro.hw.geometry import geometry_from_converted
from repro.nn import vgg_micro

HERE = Path(__file__).resolve().parent


def _load(name):
    spec = importlib.util.spec_from_file_location(f"e2e_{name}",
                                                  HERE / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


run = _load("run")
compare = _load("compare")
netbuild = run.netbuild
workloads = run.workloads
SPEC = run.load_spec()
MICRO = netbuild.Arch(builder=vgg_micro, num_classes=4, image_size=8)


# ----------------------------------------------------------------------
# The network the benchmark builds
# ----------------------------------------------------------------------

def test_calibration_reaches_the_measured_profile():
    """Every hidden layer fires at its profile rate (+-0.01) on images
    the calibration never saw."""
    snn, pool = netbuild.build_network(seed=0)
    refs = netbuild.reference_chunks(snn, pool[:32])
    geometry = geometry_from_converted(snn, (1, 3, 32, 32))
    rates = [s / (32 * layer.out_neurons)
             for s, layer in zip(refs[0].spikes[1:], geometry.layers)]
    targets = MEASURED_VGG_PROFILE.layer_rates[:len(rates)]
    assert len(rates) == 15
    assert np.allclose(rates, targets, atol=0.01), list(zip(rates, targets))
    assert len(set(refs[0].predictions.tolist())) > 3   # readout centred


# ----------------------------------------------------------------------
# BENCHMARK.json
# ----------------------------------------------------------------------

def test_metric_names_and_counts():
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    e2e = [m["name"] for m in SPEC["end_to_end"]]
    per_layer = [m["name"] for m in SPEC["per_layer"]]
    assert 1 <= len(e2e) <= 16 and 1 <= len(per_layer) <= 128
    assert all(name.match(n) for n in e2e + per_layer)
    assert len(set(e2e + per_layer)) == len(e2e) + len(per_layer)
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


def test_per_layer_names_cover_every_vgg16_layer():
    """The ledger's hook labels for VGG-16 are exactly the spec's."""
    from repro.cat import convert
    from repro.nn import vgg16

    labels, weights, pools = ["input"], 0, 0
    for spec in convert(vgg16(), netbuild.coding_config()).layers:
        if spec.is_weight_layer:
            labels.append(f"{spec.kind}{weights}")
            weights += 1
        elif spec.kind == "flatten":
            labels.append("flatten")
        else:
            labels.append(f"pool{pools}")
            pools += 1
    names = {m["name"] for m in SPEC["per_layer"]}
    assert {f"engine.{label}.ms" for label in labels} == {
        n for n in names if n.startswith("engine.") and n.endswith(".ms")}


# ----------------------------------------------------------------------
# Statistics rules
# ----------------------------------------------------------------------

@pytest.mark.parametrize("n, rank", [(19, None), (20, 50), (40, 75),
                                     (100, 90), (199, 90), (200, 95),
                                     (1000, 99)])
def test_tail_rank_keeps_ten_samples_beyond(n, rank):
    assert run.tail_rank(n) == rank


def _pairs(parent, change):
    return compare.verdict(parent, change, "lower", 0.1)[0]


def test_compare_verdicts_on_synthetic_pairs():
    base = [100.0 + 0.2 * i for i in range(10)]          # IQR ~1%
    assert _pairs(base, [v - 5.0 for v in base]) == "gain"
    assert _pairs(base, [v + 15.0 for v in base]) == "regression"
    assert _pairs(base, [v + 0.1 for v in base]) == "same"
    # 9 wins of 10 but a difference inside the parent's spread: no gain
    assert _pairs(base, [v - 0.5 for v in base[:9]] + [200.0]) == "same"
    noisy = [80.0, 120.0] * 5                              # IQR 40%
    assert _pairs(noisy, noisy[::-1]) == "unresolved"
    assert _pairs(noisy, [50.0] * 10) == "better"
    assert compare.verdict(base, [v + 5 for v in base], "higher", 0.1)[0] \
        == "gain"


def test_compare_needs_ten_pairs(tmp_path):
    with pytest.raises(ValueError, match="at least 10"):
        compare.compare(SPEC, [tmp_path / "p"] * 9, [tmp_path / "c"] * 9)


def test_compare_reads_run_files(tmp_path):
    def write(i, scale):
        metrics = {m["name"]: {"value": scale * (1 + 0.001 * i),
                               "unit": m["unit"]}
                   for m in SPEC["end_to_end"]}
        path = tmp_path / f"{scale}-{i}.json"
        path.write_text(json.dumps({"runs": [
            {"workload": "vgg16-dense", "trace": 0, "metrics": metrics}]}))
        return path

    rows = compare.compare(SPEC, [write(i, 1.0) for i in range(10)],
                           [write(i, 2.0) for i in range(10)])
    verdicts = {r["metric"]: r["verdict"] for r in rows}
    assert verdicts["images_per_s"] == "gain"
    assert verdicts["latency_p50_ms"] == "regression"
    assert {r["workload"] for r in rows} == {"vgg16-dense"}


# ----------------------------------------------------------------------
# Smoke: every workload end to end on a micro VGG
# ----------------------------------------------------------------------

@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_micro_smoke(workload, trace, tmp_path):
    record = run.run_workload(workload, seed=3, seconds=1.5, trace=trace,
                              arch=MICRO, scratch=tmp_path)
    raw = dict(record["metrics"])
    record = run.finalize(record, SPEC)
    assert record["correct"], record["checks"]
    assert record["failed"] == 0 and record["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(record["metrics"]) == {m["name"] for m in wanted}
    if not trace:
        assert all(m["value"] > 0 for m in record["metrics"].values())
    else:
        assert raw["engine.conv0.ms"] > 0 and raw["engine.pool1.ms"] > 0
