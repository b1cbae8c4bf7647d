"""Served batch sizes reproduce the batch-32 spike times of a VGG-16.

An untrained VGG-16 at the paper's design point (T=24, tau=4) runs the
closed-form TTFS path on 32 images three ways: one batch-32 call, 16
batch-2 calls and 32 batch-1 calls, on two engine threads under a
one-thread BLAS.  At batch 32 the conv GEMMs are sliced and row-major;
at batch 1 and 2 conv4-conv12 have 64 rows or fewer and run
weight-major (``tensor.conv.conv_gemm``).  Every hidden conv layer's
spike times must be equal bitwise, layer by layer.

The readout is compared by argmax only: linear layers run whole, and
numpy and BLAS take other kernels for a 1-3 row GEMM than for a 32-row
one (see the ``repro.threads`` docstring), so their sums may differ in
the last bits.
"""

import numpy as np

from repro.cat import CATConfig, convert
from repro.engine import create_scheme
from repro.nn import init as nninit, vgg16

from ..hw.test_fixed_point_products import engine_threads

IMAGES = 32


def _conv_times(scheme, images, batch):
    """Per conv layer, the spike times of ``images`` run ``batch`` at a
    time, and the readout."""
    layers, outputs = {}, []
    weight_layer = scheme.weight_layer

    def record(spec, train, ctx):
        out = weight_layer(spec, train, ctx)
        if spec.kind == "conv":
            layers.setdefault(ctx.weight_index, []).append(out.times)
        return out

    scheme.weight_layer = record
    try:
        for start in range(0, len(images), batch):
            outputs.append(scheme.run(images[start:start + batch]).output)
    finally:
        scheme.weight_layer = weight_layer
    return ([np.concatenate(layers[i]) for i in sorted(layers)],
            np.concatenate(outputs))


def test_batch_1_and_2_spike_times_equal_batch_32():
    nninit.seed(0)
    snn = convert(vgg16(), CATConfig(window=24, tau=4))
    scheme = create_scheme("ttfs-closed-form", snn)
    images = np.random.default_rng(0).random((IMAGES, 3, 32, 32),
                                             dtype=np.float32)
    with engine_threads(2):
        want, readout = _conv_times(scheme, images, IMAGES)
        runs = {batch: _conv_times(scheme, images, batch)
                for batch in (1, 2)}
    assert len(want) == 13
    assert all((times >= 0).any() for times in want)   # every layer fires
    for batch, (got, out) in runs.items():
        for layer, (a, b) in enumerate(zip(got, want)):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert np.array_equal(a, b), f"batch {batch}, conv{layer}"
        np.testing.assert_array_equal(out.argmax(axis=1),
                                      readout.argmax(axis=1))
