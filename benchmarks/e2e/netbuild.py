"""The benchmark's network: a seeded VGG-16 at the paper's design point.

Everything here runs on the benchmark side and is never timed.  It
builds the converted network the program is handed, saves the bundle
the program loads, and computes the value-domain reference the
program's outputs are checked against.

Random weights fire at an unrealistic density, so each hidden layer's
bias is shifted until the share of calibration neurons that fire equals
the per-layer rate of ``hw.MEASURED_VGG_PROFILE``; the readout bias is
centred on its calibration mean so that predictions span every class.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from repro.analysis.paper import SELECTED_DESIGN
from repro.cat import Base2Kernel, CATConfig, apply_output_weight_norm, convert
from repro.data import make_dataset
from repro.engine.executor import (
    affine,
    bias_shaped,
    layer_sops,
    pool_values,
    run_value_pipeline,
)
from repro.hw import (
    MEASURED_VGG_PROFILE,
    FiringProfile,
    SNNProcessor,
    geometry_from_converted,
)
from repro.nn import init as nninit, vgg16
from repro.serve import ModelArtifact

CALIBRATION_IMAGES = 64
#: Distinct input images per seed; workloads that need more cycle them.
POOL_IMAGES = 400
MAX_BATCH = 32
SCHEME = "ttfs-closed-form"


@dataclasses.dataclass(frozen=True)
class Arch:
    """Network family and input geometry the benchmark builds."""

    builder: object = vgg16
    num_classes: int = 10
    image_size: int = 32

    @property
    def input_shape(self):
        return (3, self.image_size, self.image_size)


VGG16 = Arch()


def coding_config() -> CATConfig:
    """TTFS coding at the paper's selected design point (T=24, tau=4)."""
    return CATConfig(window=SELECTED_DESIGN["T"],
                     tau=float(SELECTED_DESIGN["tau"]))


def images(seed: int, arch: Arch = VGG16):
    """(calibration images, workload image pool), both from ``seed``."""
    per_class = math.ceil(CALIBRATION_IMAGES / arch.num_classes)
    data = make_dataset(arch.num_classes, arch.image_size, per_class,
                        math.ceil(POOL_IMAGES / arch.num_classes), seed=seed)
    return data.train_x[:CALIBRATION_IMAGES], data.test_x[:POOL_IMAGES]


def calibrate(snn, calibration: np.ndarray, rates) -> None:
    """Shift biases so each hidden layer fires at its profile rate.

    Layers are calibrated in forward order, each on the activations the
    already-calibrated layers below it produce.  A layer's shift moves
    the ``1 - rate`` quantile of its pre-activation onto the smallest
    value that still fires, theta0 * 2**(-T/tau).
    """
    cfg = snn.config
    fire_min = cfg.theta0 * float(
        Base2Kernel(tau=cfg.tau, base=cfg.base).value(cfg.window))
    weights = snn.weight_layers

    def hidden(index, z):
        shift = fire_min - float(np.quantile(z, 1.0 - rates[index]))
        spec = weights[index]
        spec.bias = (spec.bias + shift).astype(np.float32)
        return snn.activation.array(z + shift)

    def readout(z):
        spec = weights[-1]
        spec.bias = (spec.bias - z.mean(axis=0)).astype(np.float32)
        return z

    run_value_pipeline(snn.layers, snn.encode_input(calibration), hidden,
                       readout)


def build_network(seed: int, arch: Arch = VGG16,
                  profile: FiringProfile = MEASURED_VGG_PROFILE):
    """Seeded, converted and calibrated network plus the image pool."""
    nninit.seed(seed)
    model = arch.builder(num_classes=arch.num_classes,
                         input_size=arch.image_size)
    snn = convert(model, coding_config())
    calibration, pool = images(seed, arch)
    calibrate(snn, calibration, profile.layer_rates)
    apply_output_weight_norm(snn, calibration)
    return snn, pool


def save_bundle(snn, path, arch: Arch = VGG16) -> ModelArtifact:
    """The bundle every workload opens: closed-form TTFS, dense, plans."""
    return ModelArtifact.save(path, snn, name="vgg16-e2e", scheme=SCHEME,
                              backend="dense", max_batch=MAX_BATCH,
                              input_shape=arch.input_shape)


def reference(snn, batch: np.ndarray, activations=None):
    """Readout and spike counts of the value-domain walk over ``batch``.

    Pixels are encoded in float64 and each bias is added after
    integration, in float64, as the spiking schemes do.
    ``ConvertedSNN.forward_value`` encodes float32 pixels in float32,
    which puts a pixel near a grid boundary on the neighbouring level,
    and adds the conv bias inside the float32 convolution; either
    rounding flips about one neuron in a million across a threshold.
    Returns ``(readout, spikes, sops)``: ``spikes[0]`` counts input
    spikes and ``spikes[i]`` the output spikes of hidden weight layer
    ``i - 1``; ``sops`` is the fan-out of every spike a weight layer
    receives, after any pooling.  A list passed as ``activations``
    collects each hidden layer's decoded activation.
    """
    x = snn.encode_input(np.asarray(batch, dtype=np.float64))
    spikes, sops = [int(np.count_nonzero(x))], 0
    for spec in snn.layers:
        if spec.is_weight_layer:
            sops += layer_sops(spec, int(np.count_nonzero(x)))
            z = affine(spec, x, include_bias=False) + bias_shaped(spec)
            if spec.is_output:
                return z * snn.output_scale, spikes, sops
            x = snn.activation.array(z)
            spikes.append(int(np.count_nonzero(x)))
            if activations is not None:
                activations.append(x)
        elif spec.kind == "flatten":
            x = x.reshape(len(x), -1)
        else:
            x = pool_values(spec, x)
    raise ValueError("network has no readout layer")


@dataclasses.dataclass
class Reference:
    """:func:`reference` on one chunk of images."""

    predictions: np.ndarray
    spikes: list
    sops: int


def reference_chunks(snn, batch: np.ndarray, chunk: int = MAX_BATCH):
    """:func:`reference` over ``chunk``-image slices, as the program ran
    them: float32 convolution may round differently at another batch
    size."""
    out = []
    for start in range(0, len(batch), chunk):
        readout, spikes, sops = reference(snn, batch[start:start + chunk])
        out.append(Reference(readout.argmax(axis=1), spikes, sops))
    return out


def modelled_cost(snn, refs, input_shape):
    """Paper-unit cost per image of reference chunks: (uJ, spikes, SOPs).

    Energy is the Table 4 processor model run on the firing rates the
    spike counts imply, as ``hw.profile_from_simulation`` derives them.
    """
    n = sum(len(r.predictions) for r in refs)
    spikes = np.sum([r.spikes for r in refs], axis=0)
    geometry = geometry_from_converted(snn, (1, *input_shape))
    profile = FiringProfile(
        input_rate=spikes[0] / (n * geometry.input_neurons),
        layer_rates=[s / (n * layer.out_neurons)
                     for s, layer in zip(spikes[1:], geometry.layers)]
        + [0.0])
    energy = SNNProcessor().run(geometry, profile).energy_per_image_uj
    return energy, float(spikes.sum()) / n, sum(r.sops for r in refs) / n
