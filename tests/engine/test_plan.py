"""Compiled plans and the segment-sum kernels.

The load-bearing property: :func:`integrate_events` — planless, with a
compiled plan, through the CSR gather, or under forced tiny scatter
chunks — is *bitwise* identical to the ``np.add.at`` reference across
random geometry (kernel / stride / padding / channels / sparsity).
Everything the event backend reports rests on that equivalence.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.events.stream as stream_mod
from repro.cat.convert import LayerSpec
from repro.cat.kernels import NO_SPIKE
from repro.engine import (
    ConvPlan,
    LinearPlan,
    PlanError,
    PlanSet,
    compile_plans,
    load_plans,
    save_plans,
    scatter_add_rows,
)
from repro.engine.executor import integrate_events, integrate_events_reference
from repro.events import EventStream

WINDOW = 12


def make_stream(rng, shape, density):
    """A sorted one-spike-per-neuron stream plus per-event values."""
    times = rng.integers(0, WINDOW, size=shape)
    times = np.where(rng.random(shape) < density, times, NO_SPIKE)
    stream = EventStream.from_dense(times, WINDOW)
    values = rng.standard_normal(stream.num_events)
    return stream, values


def linear_spec(rng, d_in, d_out, zero_fraction=0.0):
    weight = rng.standard_normal((d_out, d_in))
    weight[rng.random(weight.shape) < zero_fraction] = 0.0
    return LayerSpec(kind="linear", weight=weight, bias=np.zeros(d_out))


def conv_spec(rng, c_in, c_out, k, stride, padding):
    weight = rng.standard_normal((c_out, c_in, k, k)).astype(np.float32)
    return LayerSpec(kind="conv", weight=weight, bias=np.zeros(c_out),
                     kernel_size=k, stride=stride, padding=padding)


class TestScatterAddRows:
    def test_float_matches_add_at_bitwise(self, rng):
        out = np.zeros((7, 5))
        ref = out.copy()
        rows = rng.integers(0, 7, size=200)
        contrib = rng.standard_normal((200, 5))
        scatter_add_rows(out, rows, contrib)
        np.add.at(ref, rows, contrib)
        np.testing.assert_array_equal(out, ref)

    def test_int_accumulates_exactly(self, rng):
        out = np.zeros((6, 3), dtype=np.int64)
        ref = out.copy()
        rows = rng.integers(0, 6, size=100)
        contrib = rng.integers(-50, 50, size=(100, 3))
        scatter_add_rows(out, rows, contrib)
        np.add.at(ref, rows, contrib)
        np.testing.assert_array_equal(out, ref)

    def test_empty_is_a_noop(self):
        out = np.ones((3, 2))
        scatter_add_rows(out, np.zeros(0, dtype=np.int64),
                         np.zeros((0, 2)))
        np.testing.assert_array_equal(out, np.ones((3, 2)))


class TestLinearBitwise:
    @settings(max_examples=60, deadline=None)
    @given(d_in=st.integers(1, 12), d_out=st.integers(1, 8),
           batch=st.integers(1, 4),
           density=st.sampled_from([0.0, 0.1, 0.5, 1.0]),
           zero_fraction=st.sampled_from([0.0, 0.5, 0.9]),
           seed=st.integers(0, 2**32 - 1))
    def test_plan_paths_match_reference(self, d_in, d_out, batch, density,
                                        zero_fraction, seed):
        rng = np.random.default_rng(seed)
        spec = linear_spec(rng, d_in, d_out, zero_fraction)
        stream, values = make_stream(rng, (batch, d_in), density)
        ref = integrate_events_reference(spec, stream, values)
        np.testing.assert_array_equal(
            integrate_events(spec, stream, values), ref)
        # both linear execution strategies, regardless of what the
        # sparsity heuristic picked
        for use_csr in (False, True):
            plan = LinearPlan.compile(spec, 0)
            plan.use_csr = use_csr
            np.testing.assert_array_equal(
                integrate_events(spec, stream, values, plan=plan), ref)


class TestConvBitwise:
    @settings(max_examples=60, deadline=None)
    @given(h=st.integers(3, 8), w=st.integers(3, 8), k=st.integers(1, 3),
           stride=st.integers(1, 2), padding=st.integers(0, 2),
           c_in=st.integers(1, 3), c_out=st.integers(1, 4),
           batch=st.integers(1, 3),
           density=st.sampled_from([0.0, 0.2, 1.0]),
           seed=st.integers(0, 2**32 - 1))
    def test_plan_matches_reference(self, h, w, k, stride, padding, c_in,
                                    c_out, batch, density, seed):
        rng = np.random.default_rng(seed)
        spec = conv_spec(rng, c_in, c_out, k, stride, padding)
        stream, values = make_stream(rng, (batch, c_in, h, w), density)
        ref = integrate_events_reference(spec, stream, values)
        np.testing.assert_array_equal(
            integrate_events(spec, stream, values), ref)
        plan = ConvPlan.compile(spec, 0, (h, w))
        np.testing.assert_array_equal(
            integrate_events(spec, stream, values, plan=plan), ref)


class TestChunkForcing:
    """Tiny scatter blocks must not change a single bit (chunk order is
    part of the accumulation-order contract)."""

    def test_linear_and_conv_under_tiny_chunks(self, rng, monkeypatch):
        lin = linear_spec(rng, d_in=9, d_out=6)
        lin_stream, lin_vals = make_stream(rng, (3, 9), 0.8)
        conv = conv_spec(rng, c_in=2, c_out=3, k=3, stride=2, padding=1)
        conv_stream, conv_vals = make_stream(rng, (2, 2, 6, 7), 0.8)
        lin_ref = integrate_events_reference(lin, lin_stream, lin_vals)
        conv_ref = integrate_events_reference(conv, conv_stream, conv_vals)
        monkeypatch.setattr(stream_mod, "SCATTER_BLOCK_ELEMENTS", 7)
        for plan in (None, LinearPlan.compile(lin, 0)):
            np.testing.assert_array_equal(
                integrate_events(lin, lin_stream, lin_vals, plan=plan),
                lin_ref)
        for plan in (None, ConvPlan.compile(conv, 0, (6, 7))):
            np.testing.assert_array_equal(
                integrate_events(conv, conv_stream, conv_vals, plan=plan),
                conv_ref)


class TestPlanSet:
    def test_compile_on_miss_then_pinned(self, rng):
        spec = linear_spec(rng, 5, 4)
        plans = PlanSet()
        first = plans.plan_for(spec, 0, (2, 5))
        assert plans.plan_for(spec, 0, (2, 5)) is first

    def test_stale_weights_trigger_recompile(self, rng):
        spec = linear_spec(rng, 5, 4)
        plans = PlanSet()
        first = plans.plan_for(spec, 0, (2, 5))
        fresh = linear_spec(rng, 5, 4)          # same shape, new weights
        second = plans.plan_for(fresh, 0, (2, 5))
        assert second is not first
        assert second.checksum != first.checksum
        stream, values = make_stream(rng, (2, 5), 1.0)
        np.testing.assert_array_equal(
            integrate_events(fresh, stream, values, plan=second),
            integrate_events_reference(fresh, stream, values))

    def test_conv_geometry_change_triggers_recompile(self, rng):
        spec = conv_spec(rng, 2, 3, k=3, stride=1, padding=1)
        plans = PlanSet()
        first = plans.plan_for(spec, 0, (1, 2, 6, 6))
        second = plans.plan_for(spec, 0, (1, 2, 8, 8))
        assert second is not first
        assert second.in_hw == (8, 8)

    def test_csr_heuristic_follows_weight_sparsity(self, rng):
        dense = LinearPlan.compile(linear_spec(rng, 8, 8, 0.0), 0)
        sparse = LinearPlan.compile(linear_spec(rng, 40, 40, 0.95), 0)
        assert not dense.use_csr
        assert sparse.use_csr
        assert sparse.zero_fraction > dense.zero_fraction


class TestSerialisation:
    def test_roundtrip_executes_identically(self, tmp_path, rng,
                                            converted_micro):
        plans = compile_plans(converted_micro, (3, 8, 8))
        path = tmp_path / "plans.npz"
        save_plans(plans, path)
        loaded = load_plans(path)
        assert len(loaded) == len(plans)
        wi = 0
        shape = (2, 3, 8, 8)
        for spec in converted_micro.layers:
            if not spec.is_weight_layer:
                continue
            stream, values = make_stream(rng, shape
                                         if spec.kind == "conv"
                                         else (2, spec.weight.shape[1]),
                                         0.7)
            np.testing.assert_array_equal(
                loaded.get(wi).execute(spec, stream, values),
                plans.get(wi).execute(spec, stream, values))
            break   # first conv layer suffices; geometry equality below
        for wi, plan in plans.plans().items():
            got = loaded.get(wi)
            assert got.kind == plan.kind
            assert got.checksum == plan.checksum

    def test_missing_file(self, tmp_path):
        with pytest.raises(PlanError, match="not a readable plan file"):
            load_plans(tmp_path / "nope.npz")

    def test_npz_without_header(self, tmp_path):
        path = tmp_path / "raw.npz"
        np.savez(path, junk=np.arange(3))
        with pytest.raises(PlanError, match="no __header__"):
            load_plans(path)

    def _write_header_only(self, path, header):
        import json

        np.savez(path, __header__=np.frombuffer(
            json.dumps(header).encode(), dtype=np.uint8))

    def test_format_version_mismatch(self, tmp_path):
        path = tmp_path / "old.npz"
        self._write_header_only(path, {"format_version": 99,
                                       "manifest": [], "digest": "x"})
        with pytest.raises(PlanError, match="version mismatch.*found 99"):
            load_plans(path)

    def test_digest_mismatch(self, tmp_path):
        path = tmp_path / "bad.npz"
        self._write_header_only(path, {"format_version": 1,
                                       "manifest": [], "digest": "wrong"})
        with pytest.raises(PlanError, match="digest mismatch"):
            load_plans(path)

    def test_truncated_arrays(self, tmp_path):
        import json

        path = tmp_path / "trunc.npz"
        header = {"format_version": 1, "digest": "x",
                  "manifest": [{"weight_index": 0, "kind": "linear",
                                "checksum": 1.0, "in_features": 2,
                                "out_features": 2, "zero_fraction": 0.0,
                                "use_csr": False}]}
        np.savez(path, __header__=np.frombuffer(
            json.dumps(header).encode(), dtype=np.uint8))
        with pytest.raises(PlanError, match="missing entry"):
            load_plans(path)
