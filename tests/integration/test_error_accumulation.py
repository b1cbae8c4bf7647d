"""Layer-wise conversion-error accumulation (the mechanism behind Table 1).

The paper's Sec. 3.1 argument: each layer's coding error compounds
through depth, which is why simulating the SNN representation *during
training* (method III) matters more for deeper networks and tighter
windows.  These tests observe the mechanism directly on matched
activation traces.
"""

import numpy as np
import pytest

from repro.cat import (
    CATConfig,
    ClipActivation,
    convert,
    train_cat,
)
from repro.data import make_dataset
from repro.nn import init as nninit, vgg_micro


@pytest.fixture(scope="module")
def clip_trained():
    """A clip-only (method I) model and its dataset."""
    ds = make_dataset(6, 8, 30, 20, seed=55, noise_std=0.6)
    nninit.seed(2)
    model = vgg_micro(num_classes=6, input_size=8)
    cfg = CATConfig(window=6, tau=1.0, method="I", epochs=8, relu_epochs=1,
                    ttfs_epoch=6, lr=0.05, milestones=(4, 5, 6),
                    batch_size=32, augment=False)
    train_cat(model, ds, cfg)
    return model, cfg, ds


def _ann_layer_activations(model, cfg, x):
    """Clip-ANN activations at each weight layer (matching the SNN trace)."""
    from repro.cat.convert import extract_layer_specs
    from repro.tensor import Tensor, conv2d, max_pool2d

    clip = ClipActivation(theta0=cfg.theta0)
    specs = extract_layer_specs(model)
    acts = [np.asarray(x, dtype=np.float64)]
    h = acts[0]
    for spec in specs:
        if spec.kind == "conv":
            h = conv2d(Tensor(h), Tensor(spec.weight), Tensor(spec.bias),
                       spec.stride, spec.padding).data
            h = clip.array(h)
            acts.append(h)
        elif spec.kind == "maxpool":
            h = max_pool2d(Tensor(h), spec.kernel_size, spec.stride).data
        elif spec.kind == "flatten":
            h = h.reshape(len(h), -1)
        elif spec.kind == "linear":
            h = h @ spec.weight.T + spec.bias
            if not spec.is_output:
                h = clip.array(h)
                acts.append(h)
            else:
                acts.append(h)
    return acts


class TestErrorAccumulation:
    def test_error_grows_with_depth_for_method_i(self, clip_trained):
        """For a clip-trained model, |ANN - SNN| activation error grows
        (weakly) through the hidden layers: the compounding the paper
        describes."""
        model, cfg, ds = clip_trained
        model.eval()
        x = ds.test_x[:16]
        snn = convert(model, cfg)
        snn_acts = snn.layer_activations(x)
        ann_acts = _ann_layer_activations(model, cfg, x)
        assert len(snn_acts) == len(ann_acts)
        errors = [float(np.mean(np.abs(a - s)))
                  for a, s in zip(ann_acts, snn_acts)]
        # input encoding introduces error immediately...
        assert errors[0] > 0
        # ...and hidden-layer errors never collapse back to zero
        assert min(errors[1:-1]) > 0
        # the readout error exceeds the first hidden layer's error
        assert errors[-1] > errors[1] * 0.5

    def test_full_method_kills_accumulation(self, clip_trained):
        """Train with I+II+III at the same window: layer errors vs the
        TTFS-ANN are ~zero everywhere (the conversion is the identity)."""
        _, _, ds = clip_trained
        nninit.seed(2)
        model = vgg_micro(num_classes=6, input_size=8)
        cfg = CATConfig(window=6, tau=1.0, method="I+II+III", epochs=8,
                        relu_epochs=1, ttfs_epoch=6, lr=0.05,
                        milestones=(4, 5, 6), batch_size=32, augment=False)
        train_cat(model, ds, cfg)
        model.eval()
        from repro.tensor import Tensor

        x = ds.test_x[:16]
        ann_logits = model(Tensor(x)).data
        snn_logits = convert(model, cfg).forward_value(x)
        assert np.allclose(ann_logits, snn_logits, atol=1e-3)
