"""Tile-level simulation and fixed-point datapath inference."""

import numpy as np
import pytest

from repro.hw import FixedPointInference, HwConfig, TiledCycleModel
from repro.quant import LogQuantConfig, quantize_snn


class TestFixedPointInference:
    def test_agreement_with_float_reference(self, converted_micro,
                                            tiny_dataset):
        fp = FixedPointInference(converted_micro, precision_bits=18)
        rep = fp.run(tiny_dataset.test_x[:24])
        # 5-bit weights cost a little accuracy; most predictions agree.
        assert rep.agreement >= 0.8

    def test_datapath_exact_on_quantized_reference(self, converted_micro,
                                                   tiny_dataset):
        """Against a pre-quantised float reference, the only drift left is
        LUT truncation: predictions should agree almost everywhere."""
        wcfg = LogQuantConfig(bits=5, z_w=1, align_fsr=True)
        qsnn, _ = quantize_snn(converted_micro, wcfg)
        fp = FixedPointInference(qsnn, weight_config=wcfg,
                                 precision_bits=22)
        rep = fp.run(tiny_dataset.test_x[:24])
        assert rep.agreement >= 0.95
        assert rep.max_membrane_drift < 0.05

    def test_drift_shrinks_with_precision(self, converted_micro,
                                          tiny_dataset):
        drifts = []
        for precision in (10, 16, 22):
            fp = FixedPointInference(converted_micro,
                                     precision_bits=precision)
            drifts.append(fp.run(tiny_dataset.test_x[:8]).max_membrane_drift)
        assert drifts[2] <= drifts[0]

    def test_non_power_of_two_tau_rejected(self, converted_micro):
        import copy
        import dataclasses

        bad = copy.deepcopy(converted_micro)
        bad.config = dataclasses.replace(bad.config, tau=3.0)
        with pytest.raises(ValueError):
            FixedPointInference(bad)


class TestTiledCycleModel:
    @pytest.fixture(scope="class")
    def run(self, converted_micro, tiny_dataset):
        model = TiledCycleModel(converted_micro)
        return model.run_image(tiny_dataset.test_x[0]), converted_micro

    def test_output_matches_value_domain(self, run, tiny_dataset):
        report, snn = run
        want = snn.forward_value(tiny_dataset.test_x[:1])
        assert np.allclose(report.output, want, atol=1e-5)

    def test_tile_counts(self, run, tiny_dataset):
        report, snn = run
        # hidden layers: ceil(neurons/128) tiles each; output: 1 record
        names = {t.layer for t in report.tiles}
        assert len(names) == len(snn.weight_layers)
        hidden = snn.weight_layers[0]
        # conv0 output on 8x8 input: 8 channels * 64 positions = 512 -> 4 tiles
        conv0_tiles = [t for t in report.tiles if t.layer == "conv0"]
        assert len(conv0_tiles) == 4

    def test_sort_charged_once_per_layer(self, run):
        report, _ = run
        conv0 = [t for t in report.tiles if t.layer == "conv0"]
        assert conv0[0].sort_cycles > 0
        assert all(t.sort_cycles == 0 for t in conv0[1:])

    def test_encoder_cycles_cover_spikes(self, run):
        report, _ = run
        for t in report.tiles:
            if t.encode_cycles:
                assert t.encode_cycles >= t.output_spikes

    def test_total_cycles_positive(self, run):
        report, _ = run
        assert report.total_cycles > 0

    def test_batch_rejected(self, converted_micro, tiny_dataset):
        model = TiledCycleModel(converted_micro)
        with pytest.raises(ValueError):
            model.run_image(tiny_dataset.test_x[:2])

    def test_consistent_with_analytic_model(self, run, converted_micro,
                                            tiny_dataset):
        """The tile-level cycle count should land within ~4x of the
        analytic per-layer model (they share the same bounds but count
        different second-order effects)."""
        from repro.hw import (
            SNNProcessor,
            geometry_from_converted,
            profile_from_simulation,
        )
        from repro.snn import EventDrivenTTFSNetwork

        report, snn = run
        sim = EventDrivenTTFSNetwork(snn).run(tiny_dataset.test_x[:1])
        geo = geometry_from_converted(snn, tiny_dataset.test_x[:1].shape)
        analytic = SNNProcessor().run(geo, profile_from_simulation(sim))
        ratio = report.total_cycles / analytic.total_cycles
        assert 0.25 < ratio < 4.0, (report.total_cycles,
                                    analytic.total_cycles)
