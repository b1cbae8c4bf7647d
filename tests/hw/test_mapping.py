"""Weight-buffer mapping checks."""

from repro.hw import HwConfig, vgg16_geometry
from repro.hw.mapping import map_network


class TestVGG16Mapping:
    def test_all_vgg16_layers_fit(self):
        """Table 4's traffic model needs every layer resident: the largest
        VGG-16 layer (conv 512->512: 2.36M synapses at 5b = ~1.44 Mb)
        fits the 4x90KB = 2.88 Mb buffers."""
        report = map_network(vgg16_geometry(32, 10))
        assert report.all_fit
        assert report.total_refill_bits == 0

    def test_utilization_at_most_one(self):
        """Even Tiny-ImageNet's geometry peaks at exactly full buffers."""
        report = map_network(vgg16_geometry(64, 200))
        assert report.worst_utilization <= 1.0

    def test_buffer_exactly_sized_for_512_channel_layers(self):
        """The satisfying detail: 512*9*128*5b = 360KB = 4x90KB exactly."""
        report = map_network(vgg16_geometry(32, 10))
        worst = max(report.layers, key=lambda m: m.buffer_utilization)
        assert worst.tile_bits == 512 * 9 * 128 * 5
        assert worst.buffer_utilization == 1.0

    def test_summary_rows(self):
        report = map_network(vgg16_geometry(32, 10))
        rows = report.summary_rows()
        assert len(rows) == 16
        assert all(r[4] == "yes" for r in rows)


class TestOversizedLayers:
    def test_small_buffers_force_passes(self):
        cfg = HwConfig(weight_buffer_kb=10.0)  # 4x10KB only
        report = map_network(vgg16_geometry(32, 10), cfg)
        assert not report.all_fit
        assert report.total_refill_bits > 0

    def test_passes_scale_with_size(self):
        cfg = HwConfig(weight_buffer_kb=10.0)
        report = map_network(vgg16_geometry(32, 10), cfg)
        big = max(report.layers, key=lambda m: m.passes)
        assert big.passes >= 8
