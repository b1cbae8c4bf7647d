"""Every fixed-point accumulator of a full VGG-16 against the oracle.

An untrained VGG-16 at the paper's design point (T=24, tau=4) fires in
all 16 weight layers.  One image runs through the dense integer
datapath on two threads, with its spike-time GEMMs split into groups;
each layer's int64 accumulator must equal the per-output-channel PE
oracle bitwise.  The PE oracle reads the scheme's own quantised codes,
so each layer's codes, signs and FSR are held to the float64 quantiser
formula as well.
"""

import numpy as np

from repro.cat import CATConfig, convert
from repro.cat.kernels import NO_SPIKE
from repro.engine import executor
from repro.hw import FixedPointInference
from repro.nn import init as nninit, vgg16

from . import fixed_point_oracle as oracle
from .test_fixed_point_products import engine_threads


def test_vgg16_accumulators_equal_oracle():
    nninit.seed(0)
    snn = convert(vgg16(), CATConfig(window=24, tau=4))
    fp = FixedPointInference(snn)
    layers, accs = [], []
    weight_layer = fp.weight_layer

    def record_layer(spec, train, ctx):
        layers.append((spec, train.times))
        return weight_layer(spec, train, ctx)

    def record(kind, products):
        # a conv layer's sums pass through the linear kernel too; keep
        # the outer call's
        def wrapper(*args):
            acc = products(*args)
            if layers[-1][0].kind == kind:
                accs.append(acc)
            return acc
        return wrapper

    fp.weight_layer = record_layer
    fp._products_conv = record("conv", fp._products_conv)
    fp._products_linear = record("linear", fp._products_linear)
    image = np.random.default_rng(0).random((1, 3, 32, 32),
                                            dtype=np.float32)
    with engine_threads(2):
        executor.run_pipeline(fp, image)
    assert len(accs) == len(layers) == 16
    tau = snn.config.tau
    for (spec, times), acc in zip(layers, accs):
        assert (times != NO_SPIKE).any()         # the layer sees spikes
        qt = fp._quantized[id(spec)]
        codes, signs, fsr = oracle.log_quantize(spec.weight, fp.weight_config)
        assert qt.fsr == fsr
        np.testing.assert_array_equal(qt.codes, codes)
        np.testing.assert_array_equal(qt.signs, signs)
        if spec.kind == "conv":
            want = oracle.conv_products(fp.pe, tau, times, qt, spec.stride,
                                        spec.padding)
        else:
            want = oracle.linear_products(fp.pe, tau, times, qt)
        assert acc.dtype == np.int64
        np.testing.assert_array_equal(acc, want)
