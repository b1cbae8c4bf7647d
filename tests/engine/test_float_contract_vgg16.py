"""The float contract of the TTFS schemes at the paper's depth.

Float formulations agree bitwise only when they share one summation
order.  An untrained VGG-16 at the paper's design point (T=24, tau=4)
fires in every hidden layer; on it:

* the closed-form readout and per-layer spike counts equal the float64
  value-domain walk of :mod:`.closed_form_oracle` bitwise;
* for every weight layer, fed closed-form's input train, ``ttfs-early``
  ends its window on closed-form's membrane bitwise: its prefix walk
  applies the same affine map to the same decoded train at the last
  step that brings spikes.
"""

import numpy as np
import pytest

from repro.cat import CATConfig, convert
from repro.engine import create_scheme
from repro.engine.executor import ExecutionContext, run_pipeline
from repro.nn import init as nninit, vgg16

from . import closed_form_oracle as oracle


@pytest.fixture(scope="module")
def vgg16_snn():
    nninit.seed(0)
    return convert(vgg16(), CATConfig(window=24, tau=4))


@pytest.fixture(scope="module")
def images():
    return np.random.default_rng(0).random((2, 3, 32, 32),
                                           dtype=np.float32)


def test_closed_form_equals_value_walk(vgg16_snn, images):
    result = create_scheme("ttfs-closed-form", vgg16_snn).run(images)
    readout, spikes = oracle.value_walk(vgg16_snn, images)
    np.testing.assert_array_equal(result.output, readout)
    counted = [t.output_spikes for t in result.traces[:-1]]
    assert counted == spikes
    assert len(counted) == 16 and all(counted)   # every layer fires


def test_early_last_membrane_equals_closed_form(vgg16_snn, images):
    closed = create_scheme("ttfs-closed-form", vgg16_snn,
                           record_membranes=True)
    early = create_scheme("ttfs-early", vgg16_snn, record_membranes=True)
    inputs = []
    weight_layer = closed.weight_layer

    def record(spec, train, ctx):
        inputs.append((spec, train))
        return weight_layer(spec, train, ctx)

    closed.weight_layer = record
    result = run_pipeline(closed, images)
    assert len(inputs) == 16
    for index, ((spec, train), want) in enumerate(
            zip(inputs, result.traces[1:])):
        ctx = ExecutionContext(weight_index=index)
        early.weight_layer(spec, train, ctx)
        (got,) = ctx.traces
        assert got.name == want.name
        np.testing.assert_array_equal(got.membrane, want.membrane)
