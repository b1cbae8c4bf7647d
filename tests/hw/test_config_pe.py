"""HwConfig variants and PE/decoder cost models."""

import numpy as np
import pytest

from repro.hw import (
    HwConfig,
    baseline_config,
    cat_only_config,
    decoder_cost,
    linear_pe_cost,
    log_pe_cost,
    pe_cost,
    proposed_config,
)


class TestConfig:
    def test_defaults_match_paper(self):
        cfg = HwConfig()
        assert cfg.num_pes == 128
        assert cfg.pe_groups == 4
        assert cfg.weight_buffer_kb == 90.0
        assert cfg.input_buffer_kb == 48.0
        assert cfg.frequency_hz == 250e6
        assert cfg.weight_bits == 5
        assert cfg.window == 24 and cfg.tau == 4.0

    def test_peak_sops_is_32_gsops(self):
        """Table 4: 128 PEs x 250 MHz = 32 GSOP/s."""
        assert HwConfig().peak_sops_per_s == 32e9

    def test_pes_per_group(self):
        assert HwConfig().pes_per_group == 32

    def test_invalid_group_split(self):
        with pytest.raises(ValueError):
            HwConfig(num_pes=100, pe_groups=3)

    def test_design_point_factories(self):
        assert proposed_config().pe_style == "log"
        assert proposed_config().decoder_style == "lut"
        assert cat_only_config().pe_style == "linear"
        assert cat_only_config().decoder_style == "lut"
        base = baseline_config()
        assert base.pe_style == "linear" and base.decoder_style == "sram"
        assert base.window == 80  # T2FSNN operating point

    def test_with_override(self):
        cfg = HwConfig().with_(num_pes=256)
        assert cfg.num_pes == 256
        assert HwConfig().num_pes == 128


class TestFunctionalPEs:
    def test_log_pe_matches_reference(self):
        """The log PE's datapath (Eq. 17: log-domain add, LUT, shift) is
        :class:`repro.quant.LogDomainPE`; it reproduces the float
        product of the same operands."""
        from repro.quant import LogDomainPE

        pe = LogDomainPE(frac_bits=2, precision_bits=24)
        x_log2 = -np.arange(0, 25) / 4.0
        w_log2 = -np.arange(0, 15) / 2.0
        xs, ws = np.meshgrid(x_log2, w_log2)
        sign = np.ones_like(xs, dtype=np.int64)
        got = pe.to_float(pe.multiply(pe.encode_log2(xs), pe.encode_log2(ws),
                                      sign))
        want = 2.0 ** (xs + ws)
        assert np.allclose(got, want, rtol=2e-3)


class TestCostModels:
    def test_log_pe_smaller_than_linear(self):
        cfg = HwConfig()
        assert log_pe_cost(cfg).area_um2 < linear_pe_cost(cfg).area_um2

    def test_log_pe_lower_energy(self):
        cfg = HwConfig()
        assert (log_pe_cost(cfg).energy_pj_per_op
                < linear_pe_cost(cfg).energy_pj_per_op)

    def test_pe_cost_dispatch(self):
        assert pe_cost(proposed_config()).style == "log"
        assert pe_cost(cat_only_config()).style == "linear"

    def test_breakdown_positive(self):
        for cost in (linear_pe_cost(HwConfig()), log_pe_cost(HwConfig())):
            assert all(v > 0 for v in cost.area_breakdown.values())
            assert all(v > 0 for v in cost.energy_breakdown.values())

    def test_log_pe_has_no_multiplier(self):
        assert "multiplier" not in log_pe_cost(HwConfig()).area_breakdown
        assert "frac_lut" in log_pe_cost(HwConfig()).area_breakdown


class TestDecoderCost:
    def test_sram_much_larger_than_lut(self):
        sram = decoder_cost(baseline_config())
        lut = decoder_cost(proposed_config())
        assert sram.area_um2_per_group > 10 * lut.area_um2_per_group

    def test_sram_higher_access_energy(self):
        sram = decoder_cost(baseline_config())
        lut = decoder_cost(proposed_config())
        assert sram.energy_pj_per_access > 10 * lut.energy_pj_per_access

    def test_lut_scales_with_window(self):
        small = decoder_cost(proposed_config().with_(window=12))
        large = decoder_cost(proposed_config().with_(window=48))
        assert large.area_um2_per_group > small.area_um2_per_group
