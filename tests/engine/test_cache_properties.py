"""Property tests for the content-addressed result cache.

The cache key must be a function of the *logical* content of (weights,
config, inputs): invariant under array memory layout (C/F order, views,
copies), sensitive to every value/dtype/shape perturbation, and the
store must round-trip results losslessly.  Hypothesis hunts the corner
cases; ``derandomize`` keeps the suite reproducible under any test
ordering (``-p no:randomly``-safe).
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.engine import ResultCache, digest, run_key, scheme_digest
from repro.engine.cache import decode_result, encode_result
from repro.engine.executor import LayerTrace
from repro.snn.network import SimulationResult

SETTINGS = settings(derandomize=True, max_examples=30, deadline=None,
                    suppress_health_check=[
                        HealthCheck.function_scoped_fixture])

_shapes = hnp.array_shapes(min_dims=1, max_dims=3, max_side=5)
arrays = st.one_of(
    hnp.arrays(dtype=st.sampled_from([np.float64, np.float32]),
               shape=_shapes,
               elements=st.floats(-100, 100, width=16).map(float)),
    hnp.arrays(dtype=np.int64, shape=_shapes,
               elements=st.integers(-1000, 1000)),
)


class TestDigestLayoutInvariance:
    @SETTINGS
    @given(arr=arrays)
    def test_c_and_f_contiguous_collide(self, arr):
        assert digest(arr) == digest(np.asfortranarray(arr))
        assert digest(arr) == digest(arr.copy(order="F"))
        assert digest(arr) == digest(np.ascontiguousarray(arr))

    @SETTINGS
    @given(arr=arrays)
    def test_views_collide_with_copies(self, arr):
        padded = np.zeros((arr.shape[0] + 2,) + arr.shape[1:],
                          dtype=arr.dtype)
        padded[1:-1] = arr
        view = padded[1:-1]
        assert not view.flags.owndata
        assert digest(view) == digest(arr)

    @SETTINGS
    @given(arr=arrays)
    def test_digest_is_deterministic(self, arr):
        assert digest(arr) == digest(arr)


class TestDigestSensitivity:
    @SETTINGS
    @given(arr=arrays, data=st.data())
    def test_any_single_value_perturbation_changes_key(self, arr, data):
        idx = tuple(data.draw(st.integers(0, dim - 1), label="idx")
                    for dim in arr.shape)
        perturbed = arr.copy()
        perturbed[idx] = perturbed[idx] + 1
        assert digest(perturbed) != digest(arr)

    @SETTINGS
    @given(arr=arrays)
    def test_dtype_and_shape_are_part_of_the_key(self, arr):
        if arr.dtype != np.float64:
            assert digest(arr) != digest(arr.astype(np.float64))
        assert digest(arr) != digest(arr.reshape(arr.shape + (1,)))

    def test_scalar_type_tags_do_not_collide(self):
        assert len({digest(1), digest(1.0), digest(True), digest("1"),
                    digest(np.int64(1))}) == 5
        assert digest(None) != digest(0) != digest("")

    def test_nested_config_perturbation_changes_key(self):
        base = {"window": 12, "tau": 2.0, "milestones": (3, 4)}
        assert digest(base) != digest({**base, "tau": 2.5})
        assert digest(base) != digest({**base, "milestones": (3, 5)})
        assert digest(base) != digest({**base, "extra": None})

    def test_dict_keys_are_type_tagged_too(self):
        assert digest({1: "a"}) != digest({"1": "a"})
        assert digest({True: "a"}) != digest({"True": "a"})
        # key order never matters, only content
        assert digest({"a": 1, "b": 2}) == digest({"b": 2, "a": 1})

    def test_scheme_digest_tracks_weights_options_and_scale(
            self, converted_micro):
        base = scheme_digest("ttfs-closed-form", converted_micro)
        assert base == scheme_digest("ttfs-closed-form", converted_micro)
        assert base != scheme_digest("ttfs-timestep", converted_micro)
        assert base != scheme_digest("ttfs-closed-form", converted_micro,
                                     {"record_membranes": True})
        spec = converted_micro.weight_layers[0]
        original = spec.weight
        try:
            spec.weight = original + 1e-6
            assert base != scheme_digest("ttfs-closed-form",
                                         converted_micro)
        finally:
            spec.weight = original
        scale = converted_micro.output_scale
        try:
            converted_micro.output_scale = scale * 1.001
            assert base != scheme_digest("ttfs-closed-form",
                                         converted_micro)
        finally:
            converted_micro.output_scale = scale

    @SETTINGS
    @given(arr=arrays)
    def test_run_key_tracks_the_input_chunk(self, arr):
        key = run_key("scheme", arr)
        assert key == run_key("scheme", np.asfortranarray(arr))
        assert key != run_key("other-scheme", arr)
        assert key != run_key("scheme", arr.reshape(arr.shape + (1,)))


# ----------------------------------------------------------------------
# Lossless round-trips through the on-disk store
# ----------------------------------------------------------------------

results = st.builds(
    SimulationResult,
    output=hnp.arrays(np.float64, (3, 4),
                      elements=st.floats(-10, 10, width=32).map(float)),
    traces=st.lists(st.builds(
        LayerTrace,
        name=st.sampled_from(["conv0", "conv1", "linear2(out)"]),
        input_spikes=st.integers(0, 1000),
        output_spikes=st.integers(0, 1000),
        neurons=st.integers(1, 1000),
        sops=st.integers(0, 10**9),
        membrane=st.one_of(st.none(), hnp.arrays(
            np.float64, (2, 3),
            elements=st.floats(-1, 1, width=32).map(float))),
    ), max_size=3),
    window=st.integers(1, 48),
    num_stages=st.integers(1, 10),
    early_firing=st.booleans(),
)


def assert_same_result(a, b):
    assert type(a) is type(b)
    assert np.array_equal(a.output, b.output)
    assert a.output.dtype == b.output.dtype
    assert (a.window, a.num_stages, a.early_firing) == \
           (b.window, b.num_stages, b.early_firing)
    assert len(a.traces) == len(b.traces)
    for ta, tb in zip(a.traces, b.traces):
        assert dataclasses.asdict(ta).keys() == dataclasses.asdict(tb).keys()
        assert (ta.name, ta.input_spikes, ta.output_spikes, ta.neurons,
                ta.sops) == (tb.name, tb.input_spikes, tb.output_spikes,
                             tb.neurons, tb.sops)
        if ta.membrane is None:
            assert tb.membrane is None
        else:
            assert np.array_equal(ta.membrane, tb.membrane)


class TestCacheRoundTrip:
    @SETTINGS
    @given(result=results)
    def test_encode_decode_is_lossless(self, result):
        payload, arrays_table = encode_result(result)
        assert_same_result(result, decode_result(payload, arrays_table))

    @SETTINGS
    @given(result=results)
    def test_store_round_trip(self, result, tmp_path):
        # tmp_path is shared across hypothesis examples; the store is
        # content-addressed, so same-key overwrites are fine by design.
        cache = ResultCache(tmp_path / "store")
        key = digest("entry", result.output, len(result.traces))
        cache.put(key, result)
        assert key in cache
        assert_same_result(result, cache.get(key))

    def test_special_floats_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        values = {"nan": float("nan"), "inf": float("inf"),
                  "tiny": 5e-324, "third": 1 / 3}
        cache.put("specials", values)
        back = cache.get("specials")
        assert np.isnan(back["nan"]) and back["inf"] == float("inf")
        assert back["tiny"] == 5e-324 and back["third"] == 1 / 3

    def test_undecodable_entry_degrades_to_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        (tmp_path / "torn.json").write_text("{not json")
        (tmp_path / "badclass.json").write_text(
            '{"__dataclass__": ["no.such.module", "Gone"], "fields": {}}')
        assert cache.get("torn") is None
        assert cache.get("badclass") is None
        assert (cache.hits, cache.misses) == (0, 2)
        cache.put("torn", {"x": 1})  # self-heals by overwrite
        assert cache.get("torn") == {"x": 1}

    def test_run_key_includes_package_version(self, monkeypatch):
        import repro

        key = run_key("scheme", np.zeros(2))
        monkeypatch.setattr(repro, "__version__",
                            repro.__version__ + ".post1")
        assert run_key("scheme", np.zeros(2)) != key

    def test_hit_miss_accounting_and_clear(self, tmp_path, rng):
        cache = ResultCache(tmp_path)
        arr = rng.normal(size=(2, 2))
        assert cache.get("absent") is None
        cache.put("present", {"x": arr})
        assert np.array_equal(cache.get("present")["x"], arr)
        assert (cache.hits, cache.misses) == (1, 1)
        assert len(cache) == 1 and bool(cache)
        assert cache.clear() == 1
        assert len(cache) == 0 and bool(cache)  # empty != disabled
        assert cache.get("present") is None


def _golden_snn():
    """A small fixed converted network: conv, flatten, F-ordered linear."""
    from repro.cat.convert import ConvertedSNN, LayerSpec
    from repro.cat.schedule import CATConfig

    w = (np.arange(54, dtype=np.float32).reshape(2, 3, 3, 3) - 20) / 16
    b = np.array([0.5, -0.25], dtype=np.float32)
    lw = (np.arange(8, dtype=np.float32).reshape(4, 2) - 3) / 8
    layers = [LayerSpec("conv", w, b, stride=1, padding=1, kernel_size=3),
              LayerSpec("flatten"),
              LayerSpec("linear", np.asfortranarray(lw),
                        np.zeros(4, dtype=np.float32), is_output=True)]
    snn = ConvertedSNN(layers=layers, config=CATConfig(window=8, tau=2.0))
    snn.output_scale = 1.5
    return snn


class TestGoldenDigests:
    """Hex digests recorded before arrays and bytes were hashed in place.

    Every manifest file digest, converted-SNN header digest, plan digest
    and result-cache key in existing bundles and stores depends on these
    values, so a change to how ``digest`` feeds SHA-256 must leave them
    bit for bit the same.
    """

    BASE = np.arange(24, dtype=np.float32).reshape(2, 3, 4) / 7

    @pytest.mark.parametrize("value, expected", [
        (b"time-to-first-spike",
         "d28949d8da56200f9dbf837bdc0aaeb739a37173edf7a95e828b7d5156e5fcce"),
        (b"",
         "f8e104c3cdd027543bd46fcc19e70e9a215db24349070be557c493c41b7cb4d9"),
        (np.array(2.5, dtype=np.float64),
         "15a251130b2c04ba4a84d80f0c18c52d1c8d565a68fef2edc6d2c17f4617ba9c"),
        (BASE,
         "c4fb49def043412e910fd72497c6e26a7d19dc1666b108db7d35ef7646e09b8a"),
        (np.asfortranarray(BASE),
         "c4fb49def043412e910fd72497c6e26a7d19dc1666b108db7d35ef7646e09b8a"),
        (np.arange(40, dtype=np.int64).reshape(5, 8)[::2, 1::3],
         "6f189765986d22e3dc27bc9a4e511327056bac49ff60e66442e3b333b011a7ca"),
        (np.array([[True, False, True], [False, False, True]]),
         "c534a67b9c84a291050fcec24efcea84f2e92eb00d6d2bc7fac7806039718f7f"),
        (np.linspace(-1, 1, 9, dtype=np.float16),
         "adc4e81b597db80f448b4b5caa88670d017a202c4bbc04a08f3373594c09758e"),
        (np.float32(0.25),
         "212161fd3d2e241e0614decc3bf82bc857eda7de04a1bccc8e0cbe812f713f4e"),
        (("tag", 3, 1.5, None, {"k": b"v"}, [BASE[0]]),
         "98496f1aefd63e8526b902d376f7559a4750b93ebb5cb8b8b1332e0b1a0d7cf7"),
    ], ids=["bytes", "empty-bytes", "0-d", "c-order", "f-order", "strided",
            "bool", "float16", "np-scalar", "nested"])
    def test_value_digest(self, value, expected):
        assert digest(value) == expected

    def test_bytes_like_digest_as_bytes(self):
        data = b"time-to-first-spike"
        expected = digest(data)
        assert digest(bytearray(data)) == expected
        assert digest(memoryview(data)) == expected
        assert digest(memoryview(np.frombuffer(data, np.uint8))) == expected

    def test_file_digest(self, tmp_path):
        from repro.serve.artifact import file_digest

        path = tmp_path / "f.bin"
        path.write_bytes(bytes(range(256)) * 3)
        assert file_digest(path) == (
            "7e7ee718166138a18891c32ece854b69871a2cc27e836043cf1384b264200b72")

    def test_converted_header_digest(self):
        from dataclasses import asdict

        from repro.nn.serialization import _converted_digest

        snn = _golden_snn()
        manifest = [{"kind": s.kind, "has_weight": s.weight is not None}
                    for s in snn.layers]
        weights = [a for s in snn.layers if s.weight is not None
                   for a in (s.weight, s.bias)]
        assert _converted_digest(manifest, asdict(snn.config),
                                 snn.output_scale, weights) == (
            "7405e398203a80f7ee0410784d925269be2a536e8bc2d2cdfc0e71822e1f9b2f")

    def test_plan_digest(self):
        from repro.engine.plan import _plans_digest

        arrays = {"idx/0": np.arange(6, dtype=np.int32).reshape(2, 3)[:, ::2]}
        assert _plans_digest([{"layer": 0, "rows": 3}], arrays) == (
            "c3955c616e981f2042e96e42fa2eb44548c4ae1d481f8f1fe89e5bcab73893a9")

    def test_scheme_and_run_keys(self, monkeypatch):
        import repro

        key = scheme_digest("ttfs-closed-form", _golden_snn(),
                            {"max_batch": 4})
        assert key == (
            "56017a53444a641198045cae1bc3d91b3c89d05b84ab458ef92390141ed0d6d6")
        monkeypatch.setattr(repro, "__version__", "0.0-golden")
        chunk = np.linspace(0, 1, 24, dtype=np.float32).reshape(2, 3, 2, 2)
        assert run_key(key, chunk) == (
            "836cb16310c8cc752eb46865b99031270c173c6b45ce1f86d65856f399f0dc54")
