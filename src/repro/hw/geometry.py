"""Network geometry for the performance/energy models.

The Table 4 benchmarks evaluate the full-size VGG-16 workloads (CIFAR-10,
CIFAR-100, Tiny-ImageNet).  Training VGG-16 in numpy is out of CPU
budget, but the hardware model only needs per-layer *geometry* (neuron,
synapse and fan-out counts) plus a *firing-rate profile*; the geometry is
exact from the architecture, and firing rates are taken from the measured
per-layer rates of the CPU-scale CAT models (see EXPERIMENTS.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

import numpy as np

from ..nn.vgg import VGG16_FEATURES


@dataclass(frozen=True)
class LayerGeometry:
    """Static geometry of one weight layer."""

    name: str
    kind: str  # "conv" | "linear"
    in_neurons: int
    out_neurons: int
    synapses: int
    macs: int  # dense multiply-accumulates (ANN cost)
    fanout: int  # membrane updates triggered by one input spike

    @property
    def weight_bits(self) -> int:
        return self.synapses  # multiply by the format width at use site


@dataclass
class NetworkGeometry:
    """Geometry of a whole network plus its input."""

    name: str
    input_neurons: int
    layers: List[LayerGeometry] = field(default_factory=list)

    @property
    def total_synapses(self) -> int:
        return sum(l.synapses for l in self.layers)

    @property
    def total_macs(self) -> int:
        return sum(l.macs for l in self.layers)

    @property
    def num_weight_layers(self) -> int:
        return len(self.layers)


def vgg16_geometry(input_size: int = 32, num_classes: int = 10,
                   in_channels: int = 3,
                   classifier_dims: Sequence[int] = (512, 512),
                   name: str = "vgg16") -> NetworkGeometry:
    """Exact layer geometry of the paper's VGG-16 on a given input size."""
    geo = NetworkGeometry(name=name,
                          input_neurons=in_channels * input_size * input_size)
    channels = in_channels
    spatial = input_size
    conv_idx = 0
    for spec in VGG16_FEATURES:
        if spec == "M":
            spatial //= 2
            continue
        out_c = int(spec)
        out_neurons = out_c * spatial * spatial
        in_neurons = channels * spatial * spatial
        synapses = out_c * channels * 9
        macs = out_neurons * channels * 9
        geo.layers.append(
            LayerGeometry(
                name=f"conv{conv_idx}",
                kind="conv",
                in_neurons=in_neurons,
                out_neurons=out_neurons,
                synapses=synapses,
                macs=macs,
                fanout=9 * out_c,
            )
        )
        channels = out_c
        conv_idx += 1
    flat = channels * spatial * spatial
    in_dim = flat
    for i, width in enumerate(classifier_dims):
        geo.layers.append(
            LayerGeometry(
                name=f"fc{i}", kind="linear",
                in_neurons=in_dim, out_neurons=width,
                synapses=in_dim * width, macs=in_dim * width, fanout=width,
            )
        )
        in_dim = width
    geo.layers.append(
        LayerGeometry(
            name="fc_out", kind="linear",
            in_neurons=in_dim, out_neurons=num_classes,
            synapses=in_dim * num_classes, macs=in_dim * num_classes,
            fanout=num_classes,
        )
    )
    return geo


def geometry_from_converted(snn, input_shape) -> NetworkGeometry:
    """Extract geometry from a ConvertedSNN given its input NCHW shape."""
    geo = NetworkGeometry(name="converted",
                          input_neurons=int(np.prod(input_shape[1:])))
    c, h, w = input_shape[1], input_shape[2], input_shape[3]
    idx = 0
    for spec in snn.layers:
        if spec.kind == "conv":
            k, s, p = spec.kernel_size, spec.stride, spec.padding
            oc = spec.weight.shape[0]
            oh = (h + 2 * p - k) // s + 1
            ow = (w + 2 * p - k) // s + 1
            geo.layers.append(
                LayerGeometry(
                    name=f"conv{idx}", kind="conv",
                    in_neurons=c * h * w, out_neurons=oc * oh * ow,
                    synapses=int(spec.weight.size),
                    macs=oc * oh * ow * c * k * k,
                    fanout=k * k * oc,
                )
            )
            c, h, w = oc, oh, ow
            idx += 1
        elif spec.kind in ("maxpool", "avgpool"):
            h //= spec.kernel_size
            w //= spec.kernel_size
        elif spec.kind == "flatten":
            c, h, w = c * h * w, 1, 1
        elif spec.kind == "linear":
            out_f = spec.weight.shape[0]
            geo.layers.append(
                LayerGeometry(
                    name=f"fc{idx}", kind="linear",
                    in_neurons=c, out_neurons=out_f,
                    synapses=int(spec.weight.size), macs=c * out_f,
                    fanout=out_f,
                )
            )
            c = out_f
            idx += 1
    return geo


@dataclass(frozen=True)
class FiringProfile:
    """Per-layer firing rates (fraction of neurons spiking per window).

    ``input_rate`` is the fraction of input pixels producing a spike
    (non-black pixels under TTFS input coding); ``layer_rates`` align
    with the network's weight layers and give each layer's *output*
    firing rate.
    """

    input_rate: float
    layer_rates: Sequence[float]

    def rate_for(self, layer_index: int) -> float:
        if layer_index < len(self.layer_rates):
            return float(self.layer_rates[layer_index])
        return float(self.layer_rates[-1])


def uniform_profile(rate: float, num_layers: int,
                    input_rate: float = 0.98) -> FiringProfile:
    return FiringProfile(input_rate=input_rate,
                         layer_rates=[rate] * num_layers)


def profile_from_simulation(result) -> FiringProfile:
    """Extract a per-layer firing profile from an event-driven run.

    ``result`` is a :class:`repro.snn.SimulationResult`; the input
    encoder's rate becomes ``input_rate`` and every weight layer's
    output-spike rate becomes its entry in ``layer_rates`` (the readout
    trace, which never fires, is skipped).  This is how measured spike
    statistics from the simulator feed the processor performance model.
    """
    traces = result.traces
    if not traces:
        raise ValueError("simulation result has no traces")
    input_rate = traces[0].output_spikes / max(traces[0].neurons, 1)
    layer_rates = [t.output_spikes / max(t.neurons, 1)
                   for t in traces[1:-1]]
    # The readout layer integrates but never fires; the profile needs a
    # placeholder entry so lengths line up with the weight-layer count.
    layer_rates.append(0.0)
    return FiringProfile(input_rate=float(input_rate),
                         layer_rates=layer_rates)


#: Firing profile measured on the CPU-scale CAT VGG models (decreasing
#: with depth, as TTFS sparsity grows once thresholds bite) — see
#: EXPERIMENTS.md "firing-rate calibration".
MEASURED_VGG_PROFILE = FiringProfile(
    input_rate=0.98,
    layer_rates=[0.55, 0.48, 0.42, 0.38, 0.33, 0.30, 0.28, 0.26,
                 0.24, 0.22, 0.21, 0.20, 0.20, 0.35, 0.35, 0.90],
)
