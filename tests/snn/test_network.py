"""Event-driven network simulation: equivalence, latency, statistics."""

import numpy as np
import pytest

from repro.cat import NO_SPIKE
from repro.snn import EventDrivenTTFSNetwork


@pytest.fixture(scope="module")
def net(converted_micro):
    return EventDrivenTTFSNetwork(converted_micro)


class TestEquivalence:
    def test_closed_form_matches_value_domain(self, net, converted_micro,
                                              tiny_dataset):
        x = tiny_dataset.test_x[:8]
        res = net.run(x)
        want = converted_micro.forward_value(x)
        assert np.allclose(res.output, want, atol=1e-5)

    def test_accuracy_matches_value_domain(self, net, converted_micro,
                                           tiny_dataset):
        acc_ev = net.accuracy(tiny_dataset.test_x, tiny_dataset.test_y)
        acc_val = converted_micro.accuracy(tiny_dataset.test_x,
                                           tiny_dataset.test_y)
        assert acc_ev == acc_val


class TestLatency:
    def test_latency_matches_pipeline_formula(self, net, converted_micro,
                                              tiny_dataset):
        res = net.run(tiny_dataset.test_x[:2])
        assert res.latency_timesteps == converted_micro.latency_timesteps

    def test_stage_count(self, net, converted_micro, tiny_dataset):
        res = net.run(tiny_dataset.test_x[:2])
        assert res.num_stages == converted_micro.num_pipeline_stages


class TestStatistics:
    def test_traces_cover_all_weight_layers(self, net, converted_micro,
                                            tiny_dataset):
        res = net.run(tiny_dataset.test_x[:2])
        # input encoder + one trace per weight layer
        assert len(res.traces) == len(converted_micro.weight_layers) + 1

    def test_input_trace_has_no_sops(self, net, tiny_dataset):
        res = net.run(tiny_dataset.test_x[:2])
        assert res.traces[0].sops == 0
        assert res.traces[0].name == "input-encoder"

    def test_readout_emits_no_spikes(self, net, tiny_dataset):
        res = net.run(tiny_dataset.test_x[:2])
        assert res.traces[-1].output_spikes == 0

    def test_sops_are_spikes_times_fanout(self, net, converted_micro,
                                          tiny_dataset):
        res = net.run(tiny_dataset.test_x[:2])
        conv_trace = res.traces[1]
        spec = converted_micro.weight_layers[0]
        fanout = spec.kernel_size ** 2 * spec.weight.shape[0]
        assert conv_trace.sops == conv_trace.input_spikes * fanout

    def test_total_sops_positive(self, net, tiny_dataset):
        assert net.run(tiny_dataset.test_x[:2]).total_sops > 0

    def test_predictions_shape(self, net, tiny_dataset):
        res = net.run(tiny_dataset.test_x[:6])
        assert res.predictions().shape == (6,)


class TestMaxPoolTimeDomain:
    def test_pool_times_equals_value_pool(self, converted_micro):
        """Earliest-spike pooling == max-value pooling under TTFS."""
        from repro.cat import Base2Kernel
        from repro.snn import encode_values
        from repro.snn.network import EventDrivenTTFSNetwork
        from repro.cat.convert import LayerSpec
        from repro.tensor import Tensor, max_pool2d

        rng = np.random.default_rng(3)
        k = Base2Kernel(tau=2.0)
        values = rng.random((2, 3, 4, 4))
        train = encode_values(values, k, window=12)
        spec = LayerSpec(kind="maxpool", kernel_size=2, stride=2)
        pooled_train = EventDrivenTTFSNetwork._pool_times(spec, train)
        got = pooled_train.decode(k)
        want = max_pool2d(Tensor(train.decode(k)), 2).data
        assert np.allclose(got, want, atol=1e-7)

    def test_pool_all_silent_window(self):
        from repro.cat import Base2Kernel
        from repro.snn import SpikeTrain
        from repro.snn.network import EventDrivenTTFSNetwork
        from repro.cat.convert import LayerSpec

        times = np.full((1, 1, 2, 2), NO_SPIKE, dtype=np.int64)
        train = SpikeTrain(times, window=8)
        spec = LayerSpec(kind="maxpool", kernel_size=2, stride=2)
        pooled = EventDrivenTTFSNetwork._pool_times(spec, train)
        assert pooled.times[0, 0, 0, 0] == NO_SPIKE
