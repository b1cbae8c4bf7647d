"""Sweep orchestration: grid enumeration, cache resume, report schema."""

import dataclasses
import json

import numpy as np
import pytest

from repro.engine import (
    ResultCache,
    SweepGrid,
    SweepPoint,
    create_scheme,
    point_options,
    run_sweep,
    variant_snn,
)
from repro.engine.registry import SCHEMES, register_scheme
from repro.engine.sweep import POINT_KEYS, REPORT_SCHEMA_VERSION


# ----------------------------------------------------------------------
# A counting stub scheme: every real execution is observable
# ----------------------------------------------------------------------

@dataclasses.dataclass
class StubResult:
    output: np.ndarray

    def predictions(self) -> np.ndarray:
        return self.output.argmax(axis=1)


class CountingScheme:
    """Predicts class 0 and counts how often ``run`` actually executes."""

    runs = 0  # class-level so per-point instances share the counter

    def __init__(self, snn, **options):
        self.snn = snn
        self.options = options

    def run(self, images):
        type(self).runs += 1
        out = np.zeros((len(images), 2))
        out[:, 0] = 1.0
        return StubResult(output=out)

    def merge(self, results):
        return StubResult(
            output=np.concatenate([r.output for r in results], axis=0))


@pytest.fixture()
def counting_scheme():
    register_scheme("count-stub", lambda snn, **kw: CountingScheme(snn, **kw))
    CountingScheme.runs = 0
    try:
        yield CountingScheme
    finally:
        SCHEMES.unregister("count-stub")


# ----------------------------------------------------------------------
# Grid enumeration
# ----------------------------------------------------------------------

class TestGrid:
    def test_points_are_the_cross_product_in_stable_order(self):
        grid = SweepGrid(schemes=("a", "b"), windows=(4, 8),
                         max_batches=(2, 16))
        points = grid.points()
        assert len(points) == 8
        assert points[0] == SweepPoint("a", 4, 2)
        assert points[:4] == [SweepPoint("a", 4, 2), SweepPoint("a", 4, 16),
                              SweepPoint("a", 8, 2), SweepPoint("a", 8, 16)]
        assert points == grid.points()  # deterministic

    def test_repeated_axis_values_keep_first_occurrence(self):
        grid = SweepGrid(schemes=("b", "a", "b"), windows=[8, 4, 8, 4],
                         max_batches=(16, 16))
        assert grid.schemes == ("b", "a")
        assert grid.windows == (8, 4)
        assert grid.max_batches == (16,)
        assert grid.points() == [SweepPoint(s, t, 16) for s in "ba"
                                 for t in (8, 4)]
        assert grid.describe() == {"schemes": ["b", "a"], "windows": [8, 4],
                                   "max_batches": [16]}

    def test_empty_or_invalid_axes_rejected(self):
        with pytest.raises(ValueError):
            SweepGrid(schemes=(), windows=(4,))
        with pytest.raises(ValueError):
            SweepGrid(schemes=("a",), windows=(0,))
        with pytest.raises(ValueError):
            SweepGrid(schemes=("a",), windows=(4,), max_batches=(0,))

    def test_variant_snn_recodes_window(self, converted_micro):
        same = variant_snn(converted_micro, converted_micro.config.window)
        assert same is converted_micro
        other = variant_snn(converted_micro, 6)
        assert other is not converted_micro
        assert other.config.window == 6
        assert other.layers is converted_micro.layers  # weights shared
        assert other.output_scale == converted_micro.output_scale

    def test_rate_maps_window_onto_timesteps(self, converted_micro):
        options = point_options(SweepPoint("rate", 6, 4))
        assert options == {"timesteps": 6}
        assert point_options(SweepPoint("ttfs-early", 6, 4)) == {}
        scheme = create_scheme("rate", converted_micro, **options)
        assert scheme.timesteps == 6


# ----------------------------------------------------------------------
# Execution + resume-from-cache
# ----------------------------------------------------------------------

class TestRunSweep:
    def test_executes_every_chunk_of_every_point(self, counting_scheme,
                                                 converted_micro,
                                                 tiny_dataset):
        x, y = tiny_dataset.test_x[:8], tiny_dataset.test_y[:8]
        grid = SweepGrid(schemes=("count-stub",), windows=(6, 12),
                         max_batches=(4,))
        report = run_sweep(converted_micro, grid, x, y, workers=1)
        assert counting_scheme.runs == 4  # 2 points x 2 chunks
        assert [p["window"] for p in report["points"]] == [6, 12]
        want_acc = float((tiny_dataset.test_y[:8] == 0).mean())
        assert all(p["accuracy"] == pytest.approx(want_acc)
                   for p in report["points"])

    def test_resume_from_cache_executes_nothing(self, counting_scheme,
                                                converted_micro,
                                                tiny_dataset, tmp_path):
        x, y = tiny_dataset.test_x[:8], tiny_dataset.test_y[:8]
        grid = SweepGrid(schemes=("count-stub",), windows=(6, 12),
                         max_batches=(4,))
        first = run_sweep(converted_micro, grid, x, y,
                          cache=ResultCache(tmp_path), workers=1)
        assert counting_scheme.runs == 4
        assert first["cache"] == {"hits": 0, "misses": 4}

        counting_scheme.runs = 0
        second = run_sweep(converted_micro, grid, x, y,
                           cache=ResultCache(tmp_path), workers=1)
        assert counting_scheme.runs == 0  # zero scheme executions
        assert second["cache"] == {"hits": 4, "misses": 0}
        for p1, p2 in zip(first["points"], second["points"]):
            assert p1["accuracy"] == p2["accuracy"]

    def test_weight_change_invalidates_the_cache(self, counting_scheme,
                                                 converted_micro,
                                                 tiny_dataset, tmp_path):
        x = tiny_dataset.test_x[:4]
        grid = SweepGrid(schemes=("count-stub",), windows=(12,),
                         max_batches=(4,))
        run_sweep(converted_micro, grid, x, cache=ResultCache(tmp_path),
                  workers=1)
        spec = converted_micro.weight_layers[0]
        original = spec.weight
        try:
            spec.weight = original + 1e-9
            counting_scheme.runs = 0
            report = run_sweep(converted_micro, grid, x,
                               cache=ResultCache(tmp_path), workers=1)
        finally:
            spec.weight = original
        assert counting_scheme.runs == 1  # recomputed, not replayed
        assert report["cache"] == {"hits": 0, "misses": 1}

    def test_progress_callback_sees_every_point(self, counting_scheme,
                                                converted_micro,
                                                tiny_dataset):
        x = tiny_dataset.test_x[:4]
        grid = SweepGrid(schemes=("count-stub",), windows=(6, 12),
                         max_batches=(2, 4))
        seen = []
        run_sweep(converted_micro, grid, x, workers=1,
                  progress=seen.append)
        assert [(p["window"], p["max_batch"]) for p in seen] == \
               [(6, 2), (6, 4), (12, 2), (12, 4)]


# ----------------------------------------------------------------------
# Report schema (golden)
# ----------------------------------------------------------------------

class TestReportSchema:
    @pytest.fixture()
    def report(self, counting_scheme, converted_micro, tiny_dataset):
        grid = SweepGrid(schemes=("count-stub",), windows=(6,),
                         max_batches=(4,))
        return run_sweep(converted_micro, grid, tiny_dataset.test_x[:8],
                         tiny_dataset.test_y[:8], workers=1)

    def test_top_level_keys(self, report):
        assert set(report) == {"schema_version", "grid", "num_images",
                               "workers", "cached", "cache", "points"}
        assert report["schema_version"] == REPORT_SCHEMA_VERSION == 1
        assert report["grid"] == {"schemes": ["count-stub"],
                                  "windows": [6], "max_batches": [4]}
        assert report["num_images"] == 8
        assert report["cached"] is False
        assert set(report["cache"]) == {"hits", "misses"}

    def test_point_record_keys(self, report):
        (point,) = report["points"]
        assert tuple(point) == POINT_KEYS
        assert point["scheme"] == "count-stub"
        assert point["num_images"] == 8
        assert point["elapsed_s"] >= 0.0
        assert point["total_spikes"] is None  # stub carries no stats

    def test_report_is_json_round_trippable(self, report):
        assert json.loads(json.dumps(report)) == report
