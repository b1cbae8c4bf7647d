"""Final coverage round: remaining branches across the stack."""

import numpy as np
import pytest

from repro.cat import CATConfig, train_cat
from repro.data import StreamingDataLoader, make_dataset
from repro.nn import init as nninit, vgg_micro
from repro.tensor import Tensor


class TestTrainingWithAugmentation:
    def test_augmented_run_completes_and_learns(self):
        ds = make_dataset(4, 8, 30, 15, seed=31, noise_std=0.35)
        nninit.seed(3)
        model = vgg_micro(num_classes=4, input_size=8)
        cfg = CATConfig(window=8, tau=2.0, method="I+II+III", epochs=4,
                        relu_epochs=1, ttfs_epoch=3, lr=0.05,
                        milestones=(2, 3), batch_size=32, augment=True)
        result = train_cat(model, ds, cfg)
        assert result.final_test_acc > 0.4
        assert all(np.isfinite(r.train_loss) for r in result.history)


class TestLoaderDeterminism:
    def test_same_seed_same_batches(self):
        ds = make_dataset(3, 8, 10, 3, seed=1)
        l1 = StreamingDataLoader(ds.train_x, ds.train_y, batch_size=8,
                                 seed=9, prefetch=0)
        l2 = StreamingDataLoader(ds.train_x, ds.train_y, batch_size=8,
                                 seed=9, prefetch=0)
        for (x1, y1), (x2, y2) in zip(l1, l2):
            assert np.array_equal(y1, y2)

    def test_loader_reshuffles_each_epoch(self):
        ds = make_dataset(3, 8, 20, 3, seed=1)
        loader = StreamingDataLoader(ds.train_x, ds.train_y, batch_size=60,
                                     seed=9, prefetch=0)
        _, first = next(iter(loader))
        _, second = next(iter(loader))
        assert not np.array_equal(first, second)


class TestMatmulProperties:
    def test_matmul_distributes_over_add(self, rng):
        a = rng.standard_normal((3, 4)).astype(np.float32)
        b = rng.standard_normal((3, 4)).astype(np.float32)
        c = rng.standard_normal((4, 2)).astype(np.float32)
        lhs = (Tensor(a) + Tensor(b)) @ Tensor(c)
        rhs = Tensor(a) @ Tensor(c) + Tensor(b) @ Tensor(c)
        assert np.allclose(lhs.data, rhs.data, atol=1e-5)

    def test_batched_matmul(self, rng):
        a = Tensor(rng.standard_normal((5, 3, 4)).astype(np.float32),
                   requires_grad=True)
        b = Tensor(rng.standard_normal((5, 4, 2)).astype(np.float32))
        out = a @ b
        assert out.shape == (5, 3, 2)
        out.sum().backward()
        assert a.grad.shape == (5, 3, 4)


class TestCLIVgg9:
    def test_train_with_vgg9(self, capsys):
        from repro.cli import main

        code = main(["train", "--dataset", "mini-cifar10", "--model",
                     "vgg9", "--epochs", "1", "--window", "8",
                     "--tau", "2"])
        assert code == 0
        assert "SNN" in capsys.readouterr().out


class TestVGGInputEncodingInteraction:
    def test_converted_snn_ignores_input_slot_state(self, tiny_dataset):
        """Conversion always applies input TTFS encoding; the model's
        input_slot state (method I vs I+II) must not double-encode."""
        from repro.cat import convert, CATConfig

        nninit.seed(8)
        model = vgg_micro(num_classes=4, input_size=8)
        cfg = CATConfig(window=8, tau=2.0, method="I+II", epochs=2,
                        relu_epochs=1, ttfs_epoch=2, milestones=(1,),
                        lr=0.05, batch_size=32, augment=False)
        train_cat(model, tiny_dataset, cfg)
        snn = convert(model, cfg)
        x = tiny_dataset.test_x[:4]
        once = snn.forward_value(x)
        # encoding an already-encoded input is idempotent on the grid
        twice = snn.forward_value(snn.encode_input(x))
        assert np.allclose(once, twice, atol=1e-5)


class TestQuantReportEdge:
    def test_zero_weight_layer_quantises(self):
        from repro.quant import LogQuantConfig, quantize_tensor

        qt = quantize_tensor(np.zeros((4, 4)), LogQuantConfig(bits=5))
        assert np.all(qt.values == 0.0)
        assert qt.codes.shape == (4, 4)


class TestProcessorReportExtras:
    def test_effective_gsops_below_peak(self):
        from repro.hw import (
            MEASURED_VGG_PROFILE,
            SNNProcessor,
            vgg16_geometry,
        )

        rep = SNNProcessor().run(vgg16_geometry(32, 10),
                                 MEASURED_VGG_PROFILE)
        assert 0 < rep.effective_gsops <= rep.peak_gsops

    def test_runtime_consistency(self):
        from repro.hw import (
            MEASURED_VGG_PROFILE,
            SNNProcessor,
            vgg16_geometry,
        )

        rep = SNNProcessor().run(vgg16_geometry(32, 10),
                                 MEASURED_VGG_PROFILE)
        assert np.isclose(rep.fps * rep.runtime_s, 1.0)
        assert rep.total_cycles == sum(l.cycles for l in rep.layers)
