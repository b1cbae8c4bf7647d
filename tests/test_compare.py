"""benchmarks/compare.py gating behaviour (run in-process via runpy)."""

from __future__ import annotations

import json
import pathlib
import runpy

import pytest

COMPARE = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" \
    / "compare.py"


@pytest.fixture(scope="module")
def compare_main():
    return runpy.run_path(str(COMPARE))["main"]


def _write_suite(tmp_path, baseline_speedup, fresh_speedup,
                 dense_speedup=(1.0, 1.0)):
    """An event_stream baseline and fresh run whose ``scatter_speedup``
    (compared) and ``speedup`` (recorded only) are as given."""
    record = {"scheme": "ttfs-closed-form", "window": 8,
              "input_density": 0.5}
    base = tmp_path / "base.json"
    fresh = tmp_path / "fresh.json"
    base.write_text(json.dumps({
        "schema_version": 2,
        "records": [{**record, "speedup": dense_speedup[0],
                     "scatter_speedup": baseline_speedup}]}))
    fresh.write_text(json.dumps({
        "schema_version": 2,
        "records": [{**record, "speedup": dense_speedup[1],
                     "scatter_speedup": fresh_speedup}]}))
    return base, fresh


def _args(base, fresh, *extra):
    return ["--suite", "event_stream", "--baseline", str(base),
            "--fresh", str(fresh), *extra]


def test_within_tolerance_passes(tmp_path, compare_main, capsys):
    base, fresh = _write_suite(tmp_path, 10.0, 9.0)
    assert compare_main(_args(base, fresh)) == 0
    assert "within" in capsys.readouterr().out


def test_dense_speedup_is_recorded_not_compared(tmp_path, compare_main,
                                                capsys):
    # a faster dense closed form halves speedup; that is no regression
    base, fresh = _write_suite(tmp_path, 10.0, 10.0, dense_speedup=(0.2, 0.1))
    assert compare_main(_args(base, fresh)) == 0
    assert "regressed" not in capsys.readouterr().out


def test_regression_fails_strict(tmp_path, compare_main, capsys):
    base, fresh = _write_suite(tmp_path, 10.0, 5.0)
    assert compare_main(_args(base, fresh)) == 1
    assert "regressed" in capsys.readouterr().out


def test_warn_only_swallows_regressions(tmp_path, compare_main, capsys):
    base, fresh = _write_suite(tmp_path, 10.0, 5.0)
    assert compare_main(_args(base, fresh, "--warn-only")) == 0
    assert "regressed" in capsys.readouterr().out


def test_fail_on_regress_gates_through_warn_only(tmp_path, compare_main,
                                                 capsys):
    # 10x -> 2x is an 80% regression: past the 60% hard gate
    base, fresh = _write_suite(tmp_path, 10.0, 2.0)
    assert compare_main(_args(base, fresh, "--warn-only",
                              "--fail-on-regress", "60")) == 1
    out = capsys.readouterr().out
    assert "60% gate" in out


def test_fail_on_regress_spares_small_regressions(tmp_path, compare_main,
                                                  capsys):
    # 10x -> 6x is 40%: warned about, but under the 60% gate
    base, fresh = _write_suite(tmp_path, 10.0, 6.0)
    assert compare_main(_args(base, fresh, "--warn-only",
                              "--fail-on-regress", "60")) == 0
    assert "regressed" in capsys.readouterr().out


def test_fail_on_regress_rejects_nonpositive(tmp_path, compare_main):
    base, fresh = _write_suite(tmp_path, 10.0, 10.0)
    with pytest.raises(SystemExit):
        compare_main(_args(base, fresh, "--fail-on-regress", "0"))


def _write_train_suite(tmp_path, baseline_speedup, fresh_speedup):
    base = tmp_path / "train-base.json"
    fresh = tmp_path / "train-fresh.json"
    for path, speedup in ((base, baseline_speedup), (fresh, fresh_speedup)):
        path.write_text(json.dumps({
            "schema_version": 1,
            "records": [{"case": "epoch-aug", "speedup": speedup},
                        {"case": "train-rss", "speedup": 1.4}]}))
    return base, fresh


class TestTrainSuite:
    def test_within_tolerance_passes(self, tmp_path, compare_main, capsys):
        base, fresh = _write_train_suite(tmp_path, 6.0, 5.5)
        assert compare_main(["--suite", "train", "--baseline", str(base),
                             "--fresh", str(fresh)]) == 0
        assert "train ratio checks" in capsys.readouterr().out

    def test_speedup_regression_fails(self, tmp_path, compare_main, capsys):
        base, fresh = _write_train_suite(tmp_path, 6.0, 2.0)
        assert compare_main(["--suite", "train", "--baseline", str(base),
                             "--fresh", str(fresh)]) == 1
        assert "epoch-aug" in capsys.readouterr().out

    def test_committed_baseline_matches_schema(self, compare_main):
        baseline = COMPARE.parent.parent / "BENCH_train.json"
        data = json.loads(baseline.read_text())
        assert data["schema_version"] == 1
        cases = {r["case"] for r in data["records"]}
        assert cases == {"epoch-plain", "epoch-aug", "maxpool-backward",
                         "avgpool-backward", "train-rss"}
        assert all(r["speedup"] > 1.0 for r in data["records"])
