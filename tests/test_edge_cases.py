"""Edge cases and less-travelled paths across the package."""

import numpy as np
import pytest

from repro.tensor import Tensor, stack, where


class TestTensorEdges:
    def test_stack_middle_axis(self):
        a = Tensor(np.zeros((2, 3)), requires_grad=True)
        b = Tensor(np.ones((2, 3)), requires_grad=True)
        out = stack([a, b], axis=1)
        assert out.shape == (2, 2, 3)
        out.sum().backward()
        assert a.grad.shape == (2, 3)

    def test_where_scalar_operands(self):
        cond = np.array([True, False])
        out = where(cond, Tensor([1.0, 1.0]), Tensor([2.0, 2.0]))
        assert np.allclose(out.data, [1.0, 2.0])

    def test_var_with_axis(self, rng):
        data = rng.standard_normal((3, 5)).astype(np.float32)
        got = Tensor(data).var(axis=0).data
        assert np.allclose(got, data.var(axis=0), atol=1e-5)

    def test_mean_keepdims(self):
        x = Tensor(np.ones((2, 4)))
        assert x.mean(axis=1, keepdims=True).shape == (2, 1)

    def test_argmax(self):
        x = Tensor(np.array([[1.0, 3.0], [5.0, 2.0]]))
        assert x.argmax(axis=1).tolist() == [1, 0]

    def test_numpy_view_shares_memory(self):
        x = Tensor(np.zeros(3))
        x.numpy()[0] = 7.0
        assert x.data[0] == 7.0


class TestBaselineEdges:
    def test_tianjic_scaling_path(self):
        """When given a workload it *can* hold, Tianjic's report scales
        from its published operating point."""
        from repro.hw import TianjicLikeProcessor
        from repro.hw.geometry import LayerGeometry, NetworkGeometry

        small = NetworkGeometry(name="small", input_neurons=100)
        small.layers.append(LayerGeometry(
            name="fc", kind="linear", in_neurons=100, out_neurons=10,
            synapses=1000, macs=1000, fanout=10))
        rep = TianjicLikeProcessor().run(small)
        assert rep.fits_on_chip
        assert rep.fps > 0
        assert rep.energy_per_image_uj > 0

    def test_tianjic_reference_only(self):
        from repro.hw import TianjicLikeProcessor

        rep = TianjicLikeProcessor().run(None)
        assert rep.fps == 46827.0

    def test_tpu_utilization_derating(self):
        from repro.hw import TPUConfig, TPULikeProcessor, vgg16_geometry

        full = TPULikeProcessor(TPUConfig(utilization=1.0))
        half = TPULikeProcessor(TPUConfig(utilization=0.5))
        geo = vgg16_geometry(32, 10)
        assert half.run(geo).fps < full.run(geo).fps


class TestDataEdges:
    def test_all_mini_factories(self):
        from repro.data import mini_cifar100, mini_tiny_imagenet

        c100 = mini_cifar100()
        tin = mini_tiny_imagenet()
        assert c100.num_classes == 20
        assert tin.image_shape == (3, 24, 24)

    def test_dataset_meta(self):
        from repro.data import make_dataset

        ds = make_dataset(3, 8, 4, 2, seed=5)
        assert ds.meta["seed"] == 5
        assert ds.meta["image_size"] == 8

    def test_single_mode_per_class(self):
        from repro.data import make_dataset

        ds = make_dataset(3, 8, 4, 2, modes_per_class=1)
        assert len(ds.train_y) == 12


class TestReportingEdges:
    def test_fmt_large_and_small(self):
        from repro.analysis.reporting import _fmt

        assert _fmt(12345.6) == "1.23e+04"
        assert _fmt(0.001) == "0.001"
        assert _fmt(0) == "0"
        assert _fmt("text") == "text"

    def test_paper_vs_measured_zero_paper(self):
        from repro.analysis import paper_vs_measured

        text = paper_vs_measured(
            [{"metric": "x", "paper": 0, "measured": 5}], keys=("x",))
        assert "-" in text  # no ratio for zero denominator


class TestKernelEdges:
    def test_exp_kernel_grid(self):
        from repro.cat import ExpKernel

        grid = ExpKernel(tau=10.0, t_d=3.0).grid(20)
        assert len(grid) == 21
        assert grid[0] > 1.0  # delayed kernel starts above theta0

    def test_base2_threshold_vector(self):
        from repro.cat import Base2Kernel

        k = Base2Kernel(tau=2.0)
        th = k.threshold(np.array([0, 2, 4]), theta0=2.0)
        assert np.allclose(th, [2.0, 1.0, 0.5])


class TestConfigEdges:
    def test_cat_config_stage_list_no_relu(self):
        from repro.cat import CATConfig

        cfg = CATConfig(relu_epochs=0, epochs=10, ttfs_epoch=8,
                        milestones=(4, 6, 8))
        assert cfg.stages()[0] == (0, "clip")

    def test_hw_config_frozen(self):
        from repro.hw import HwConfig

        cfg = HwConfig()
        with pytest.raises(Exception):
            cfg.num_pes = 256
