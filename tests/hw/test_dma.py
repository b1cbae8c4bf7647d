"""DMA engine and DRAM traffic ledger."""

import numpy as np
import pytest

from repro.hw import DMAEngine, DramTraffic


class TestTraffic:
    def test_accumulates(self):
        t = DramTraffic()
        t.add_layer("conv0", weight_bits=1000, read_bits=200, write_bits=100)
        t.add_layer("conv1", weight_bits=500, read_bits=50, write_bits=25)
        assert t.weight_bits == 1500
        assert t.spike_read_bits == 250
        assert t.spike_write_bits == 125
        assert t.total_bits == 1875

    def test_per_layer_records(self):
        t = DramTraffic()
        t.add_layer("fc", 10, 20, 30)
        assert t.per_layer[0]["layer"] == "fc"
        assert t.per_layer[0]["spike_write_bits"] == 30

    def test_energy_at_4pj(self):
        t = DramTraffic()
        t.add_layer("x", 1_000_000, 0, 0)
        assert t.energy_uj(4.0) == pytest.approx(4.0)

    def test_empty_ledger(self):
        t = DramTraffic()
        assert t.total_bits == 0
        assert t.energy_uj(4.0) == 0.0


class TestDMAEngine:
    def test_energy(self):
        dma = DMAEngine(pj_per_bit=4.0)
        assert dma.energy_uj(250_000) == pytest.approx(1.0)

    def test_default_paper_interface(self):
        assert DMAEngine().pj_per_bit == 4.0


class TestWeightTrafficConsistency:
    def test_vgg16_weight_bits_match_geometry(self):
        """The processor's ledger must charge each synapse exactly once
        per image at the configured weight width."""
        from repro.hw import (
            MEASURED_VGG_PROFILE,
            SNNProcessor,
            vgg16_geometry,
        )

        proc = SNNProcessor()
        geo = vgg16_geometry(32, 10)
        report = proc.run(geo, MEASURED_VGG_PROFILE)
        assert report.traffic.weight_bits == geo.total_synapses * 5

    def test_spike_traffic_scales_with_rates(self):
        from repro.hw import SNNProcessor, uniform_profile, vgg16_geometry

        proc = SNNProcessor()
        geo = vgg16_geometry(32, 10)
        lo = proc.run(geo, uniform_profile(0.1, 16))
        hi = proc.run(geo, uniform_profile(0.8, 16))
        assert (hi.traffic.spike_read_bits + hi.traffic.spike_write_bits
                > lo.traffic.spike_read_bits + lo.traffic.spike_write_bits)
