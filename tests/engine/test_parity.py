"""Cross-scheme parity: every stack walks the same engine, same answers."""

import numpy as np
import pytest

from repro.engine import available_schemes, create_scheme, get_scheme
from repro.snn import EventDrivenTTFSNetwork, RateCodedNetwork


class TestSchemeParity:
    """``ttfs-timestep`` is an alias of ``ttfs-closed-form``: stepping
    through the window and reading after it is Eq. 4's closed form, so
    the alias runs the same code and gives the same bits."""

    @pytest.fixture(scope="class")
    def runs(self, converted_micro, tiny_dataset):
        x = tiny_dataset.test_x[:8]
        closed = create_scheme("ttfs-closed-form", converted_micro).run(x)
        stepped = create_scheme("ttfs-timestep", converted_micro).run(x)
        return closed, stepped, converted_micro, x

    def test_outputs_agree(self, runs):
        closed, stepped, _, _ = runs
        assert np.array_equal(closed.output, stepped.output)

    def test_predictions_agree(self, runs):
        closed, stepped, _, _ = runs
        assert np.array_equal(closed.predictions(), stepped.predictions())

    def test_spike_counts_agree(self, runs):
        closed, stepped, _, _ = runs
        assert closed.total_spikes == stepped.total_spikes
        for tc, ts in zip(closed.traces, stepped.traces):
            assert (tc.name, tc.output_spikes, tc.sops) == \
                   (ts.name, ts.output_spikes, ts.sops)

    def test_value_domain_agrees(self, runs):
        closed, _, snn, x = runs
        assert np.allclose(closed.output, snn.forward_value(x), atol=1e-5)

    def test_registry_factories_match_classes(self, converted_micro):
        assert isinstance(get_scheme("ttfs-closed-form")(converted_micro),
                          EventDrivenTTFSNetwork)
        assert isinstance(get_scheme("rate")(converted_micro),
                          RateCodedNetwork)
        early = create_scheme("ttfs-early", converted_micro)
        assert early.early_firing


class TestRegistry:
    def test_builtins_listed(self):
        names = available_schemes()
        for name in ("ttfs-closed-form", "ttfs-early", "rate",
                     "fixed-point"):
            assert name in names
        assert "ttfs-timestep" not in names

    def test_unknown_scheme_raises(self, converted_micro):
        with pytest.raises(KeyError, match="unknown coding scheme"):
            create_scheme("morse-code", converted_micro)

    def test_unknown_scheme_suggests_closest_match(self, converted_micro):
        with pytest.raises(KeyError,
                           match="unknown coding scheme 'ttfs-close-form'.*"
                                 "did you mean 'ttfs-closed-form'"):
            create_scheme("ttfs-close-form", converted_micro)
        # nothing plausible -> no suggestion, but the list still shows
        with pytest.raises(KeyError, match="available: "):
            create_scheme("zzzzzz", converted_micro)

    def test_custom_scheme_registration(self, converted_micro):
        from repro.engine import register_scheme
        from repro.engine.registry import SCHEMES

        @register_scheme("test-dummy")
        def _make(snn, **kw):
            return ("dummy", snn)

        try:
            assert "test-dummy" in available_schemes()
            assert create_scheme("test-dummy", converted_micro)[0] == "dummy"
        finally:
            SCHEMES.unregister("test-dummy")


class TestBackendParity:
    """`dense` and `event` backends must agree for every registered
    scheme: same accuracies, same spike counts, same SOP totals, same
    predictions (the acceptance contract of the event backend)."""

    @pytest.fixture(scope="class")
    def images(self, tiny_dataset):
        return tiny_dataset.test_x[:8], tiny_dataset.test_y[:8]

    @pytest.mark.parametrize("name", ["ttfs-closed-form", "ttfs-timestep",
                                      "ttfs-early", "rate", "fixed-point"])
    def test_event_backend_matches_dense(self, name, converted_micro,
                                         images):
        x, y = images
        dense = create_scheme(name, converted_micro, backend="dense").run(x)
        event = create_scheme(name, converted_micro, backend="event").run(x)

        from repro.engine import result_predictions

        preds_d = result_predictions(dense)
        preds_e = result_predictions(event)
        assert np.array_equal(preds_d, preds_e)
        assert float((preds_d == y).mean()) == float((preds_e == y).mean())
        for attr in ("total_spikes", "total_sops", "max_membrane_drift"):
            if getattr(dense, attr, None) is not None:
                assert getattr(dense, attr) == getattr(event, attr), attr
        if hasattr(dense, "output"):
            assert np.allclose(dense.output, event.output, atol=1e-9)
        if hasattr(dense, "traces") and dense.traces:
            for td, te in zip(dense.traces, event.traces):
                assert (td.name, td.input_spikes, td.output_spikes,
                        td.sops) == (te.name, te.input_spikes,
                                     te.output_spikes, te.sops)
        if hasattr(dense, "spikes_per_layer"):
            assert dense.spikes_per_layer == event.spikes_per_layer

    def test_fixed_point_backends_bitwise_identical(self, converted_micro,
                                                    images):
        # integer datapath: the scatter and the per-output loop must not
        # merely be close, they must agree bit for bit
        x, _ = images
        dense = create_scheme("fixed-point", converted_micro).run(x)
        event = create_scheme("fixed-point", converted_micro,
                              backend="event").run(x)
        assert np.array_equal(dense.predictions, event.predictions)
        assert dense.max_membrane_drift == event.max_membrane_drift

    def test_runner_backend_override(self, converted_micro, images):
        from repro.engine import PipelineRunner

        x, _ = images
        scheme = create_scheme("ttfs-closed-form", converted_micro)
        dense = PipelineRunner(scheme, max_batch=4).run(x)
        event = PipelineRunner(scheme, max_batch=4, backend="event").run(x)
        # the override is scoped to the runner's execution: the shared
        # scheme instance must come back with its original backend
        assert scheme.backend == "dense"
        assert np.array_equal(dense.predictions(), event.predictions())
        assert dense.total_spikes == event.total_spikes

    def test_runner_backend_ignored_by_backend_less_schemes(self,
                                                            converted_micro):
        # a custom scheme built from the documented template (no backend
        # parameter, no backend attribute) must still run under an
        # explicit runner backend instead of crashing
        from repro.engine import PipelineRunner

        class Plain:
            def run(self, images):
                return len(images)

            def merge(self, results):
                return sum(results)

        runner = PipelineRunner(Plain(), max_batch=2, backend="event")
        assert runner.run(np.zeros((5, 1))) == 5

    def test_event_backend_pools_without_dense_trains(self, converted_micro,
                                                      images):
        # the inter-layer state of an event-backend TTFS run really is
        # an EventStream (regression guard for silent densification)
        from repro.engine.executor import ExecutionContext
        from repro.events import EventStream

        x, _ = images
        scheme = create_scheme("ttfs-closed-form", converted_micro,
                               backend="event")
        state = scheme.encode_input(x, ExecutionContext())
        assert isinstance(state, EventStream)

    def test_unknown_backend_suggests_closest_match(self, converted_micro):
        with pytest.raises(ValueError,
                           match="unknown backend 'evnt'.*did you mean "
                                 "'event'"):
            create_scheme("ttfs-closed-form", converted_micro,
                          backend="evnt")
        from repro.engine import available_backends

        assert available_backends() == ["dense", "event"]


@pytest.mark.parametrize("backend", ["dense", "event"])
@pytest.mark.parametrize("name", available_schemes())
def test_zero_image_batch(name, backend, converted_micro, tiny_dataset):
    """A 0-image batch runs through every scheme: a (0, classes)
    readout, or empty predictions where the result keeps no readout."""
    from repro.engine import result_predictions

    scheme = create_scheme(name, converted_micro, backend=backend)
    result = scheme.run(tiny_dataset.test_x[:0])
    classes = converted_micro.weight_layers[-1].weight.shape[0]
    if hasattr(result, "output"):
        assert result.output.shape == (0, classes)
    assert result_predictions(result).shape == (0,)


class TestFireSweepVectorisation:
    """The cumulative fire formulation equals the per-timestep loop."""

    def test_matches_explicit_loop(self, rng):
        from repro.cat import NO_SPIKE, Base2Kernel
        from repro.engine import FIRE_TOL

        from ..snn.neuron_oracle import fire_times_from_membrane

        kernel = Base2Kernel(tau=4.0)
        window = 24
        membrane = rng.normal(0.0, 1.0, size=(257,))
        # grid-exact values exercise the on-threshold tolerance branch
        membrane[:window + 1] = kernel.grid(window)
        got = fire_times_from_membrane(membrane, kernel, window)
        want = np.full(membrane.shape, NO_SPIKE, dtype=np.int64)
        for t in range(window + 1):
            thr = float(kernel.value(t))
            fire = (membrane >= thr - FIRE_TOL) & (want == NO_SPIKE)
            want[fire] = t
        assert np.array_equal(got, want)


class TestSchemeAliases:
    def test_aliases_resolve_to_canonical_schemes(self):
        from repro.engine import get_scheme, resolve_scheme_name

        assert resolve_scheme_name("ttfs") == "ttfs-closed-form"
        assert resolve_scheme_name("ttfs-timestep") == "ttfs-closed-form"
        assert resolve_scheme_name("fp") == "fixed-point"
        assert get_scheme("ttfs") is get_scheme("ttfs-closed-form")

    def test_registered_scheme_wins_over_alias(self):
        """A factory genuinely named like an alias is never shadowed."""
        from repro.engine import registry as reg

        marker = object()
        reg.register_scheme("ttfs", lambda snn, **kw: marker)
        try:
            assert reg.get_scheme("ttfs")(None) is marker
            assert reg.resolve_scheme_name("ttfs") == "ttfs"
        finally:
            reg.SCHEMES.unregister("ttfs")
        assert reg.resolve_scheme_name("ttfs") == "ttfs-closed-form"

    def test_register_alias_requires_known_target(self):
        from repro.engine import register_scheme_alias

        with pytest.raises(KeyError, match="unknown coding scheme"):
            register_scheme_alias("x", "no-such-scheme")
