"""Analysis helpers: metrics, table rendering, paper constants."""

import numpy as np
import pytest

from repro.analysis import (
    ConversionResult,
    ascii_bars,
    format_series,
    format_table,
    latency_timesteps,
    paper,
    paper_vs_measured,
)


class TestConversionResult:
    def test_loss_in_percentage_points(self):
        res = ConversionResult("I", 24, 4.0, "cifar10",
                               ann_accuracy=0.90, snn_accuracy=0.85)
        assert res.conversion_loss == pytest.approx(-5.0)

    def test_as_row(self):
        res = ConversionResult("I+II", 48, 8.0, "cifar100", 0.7, 0.69)
        row = res.as_row()
        assert row[0] == "I+II" and row[1] == "48/8"


class TestLatency:
    def test_table2_values(self):
        assert latency_timesteps(16, 80) == 1360
        assert latency_timesteps(16, 80, early_firing=True) == 680
        assert latency_timesteps(16, 48) == 816
        assert latency_timesteps(16, 24) == 408


class TestReporting:
    def test_format_table_aligns(self):
        text = format_table(["name", "value"], [["a", 1.0], ["bb", 22.5]],
                            title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1] and "-" in lines[2]

    def test_format_table_none_as_dash(self):
        text = format_table(["x"], [[None]])
        assert "-" in text.splitlines()[-1]

    def test_format_series(self):
        text = format_series([1, 2], {"acc": [0.5, 0.6]}, x_label="epoch")
        assert "epoch" in text and "acc" in text

    def test_ascii_bars(self):
        text = ascii_bars({"Base": 1.0, "I": 0.88}, width=10)
        assert "#" in text and "Base" in text

    def test_paper_vs_measured(self):
        text = paper_vs_measured(
            [{"metric": "fps", "paper": 327, "measured": 250}],
            keys=("fps",))
        assert "fps" in text and "0.76" in text


class TestPaperConstants:
    def test_table1_complete(self):
        # 3 methods x 3 (T, tau) x 3 datasets
        assert len(paper.TABLE1) == 27

    def test_table1_loss_ordering_in_paper_data(self):
        """The paper's own numbers show monotone improvement I -> I+II ->
        I+II+III (sanity on transcription)."""
        for params in ((48, 8), (24, 4), (12, 2)):
            for ds in ("cifar10", "cifar100", "tiny-imagenet"):
                losses = [paper.TABLE1[(m, params, ds)][1]
                          for m in ("I", "I+II", "I+II+III")]
                assert losses[0] <= losses[1] <= losses[2]

    def test_table2_rows(self):
        assert len(paper.TABLE2) == 4
        assert paper.TABLE2[0]["system"] == "T2FSNN"

    def test_table4_keys(self):
        assert set(paper.TABLE4) == {"this_work", "tianjic", "tpu"}

    def test_fig3_selected_epoch_is_stable(self):
        assert paper.FIG3_SELECTED_EPOCH in paper.FIG3_STABLE_EPOCHS
