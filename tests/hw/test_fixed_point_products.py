"""The fixed-point product kernels against the per-output PE oracle.

``FixedPointInference`` evaluates Eq. 17 once per (spike time, weight
level) and sums through exact GEMMs, float32 or float64 per spike time,
over operands gathered two output columns per index (dense), or integer
scatters (event).  Every accumulator must equal the per-output-channel
oracle in :mod:`tests.hw.fixed_point_oracle` bitwise, at weight widths
of 2-9 bits (8 fills the uint16 pair index, 9 gathers one column per
index) and odd output widths, also when the dense GEMMs run as groups
of spike times on two threads.
"""

import copy
import gc
import threading
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import threads
from repro.cat import CATConfig
from repro.cat.convert import ConvertedSNN, LayerSpec
from repro.cat.kernels import NO_SPIKE
from repro.engine import executor
from repro.events import EventStream
from repro.hw import FixedPointInference
from repro.hw import tilesim
from repro.hw.tilesim import LIMB_BITS, _exact_limbs, _gemm_dtype
from repro.quant import LogQuantConfig
from repro.targets.pynn import compile_netlist, execute_netlist

from . import fixed_point_oracle as oracle


def _scheme(spec: LayerSpec, window: int, tau: float, precision_bits: int,
            bits: int = 5) -> FixedPointInference:
    snn = ConvertedSNN(layers=[spec], config=CATConfig(window=window,
                                                       tau=tau))
    return FixedPointInference(
        snn, precision_bits=precision_bits,
        weight_config=LogQuantConfig(bits=bits, z_w=1, align_fsr=True))


@contextmanager
def engine_threads(n):
    """``n`` engine threads, under a BLAS that lets GEMMs split."""
    threads.set_threads(n)
    try:
        with mock.patch.object(threads, "blas_threads", lambda: 1):
            yield
    finally:
        threads.set_threads(None)


def _times(rng, shape, window: int, fired: str) -> np.ndarray:
    times = rng.integers(0, window, shape).astype(np.float64)
    if fired == "none":
        return np.full(shape, float(NO_SPIKE))
    if fired in ("some", "one"):
        times[rng.random(shape) < 0.5] = NO_SPIKE
    if fired == "one":          # a single spike time present
        times[times != NO_SPIKE] = times.max()
    return times


def _weight(rng, shape, scale: float) -> np.ndarray:
    """Random weights with FSR ~ ``scale`` (0: the all-zero tensor)."""
    w = rng.normal(0.0, 1.0, shape) * scale
    w[rng.random(shape) < 0.2] = 0.0
    return w.astype(np.float32)


design = dict(
    seed=st.integers(0, 2**31 - 1),
    n=st.integers(1, 4),
    window=st.sampled_from([4, 12, 24]),
    tau=st.sampled_from([1.0, 2.0, 4.0]),
    scale=st.sampled_from([0.0, 0.3, 4.0]),
    fired=st.sampled_from(["all", "none", "some", "one"]),
    # 56 bits makes the table too wide for one exact float64 limb
    precision_bits=st.sampled_from([12, 16, 56]),
    bits=st.integers(2, 9),
)

#: Designs around the operand dtype rule: the largest table entry near
#: 2**peak_bits at 12-28 precision bits (the weights' FSR sets the
#: rest).  From about 2**24 up the early spike times' GEMMs pass the
#: float32 bound while the late ones stay under it, and from about
#: 2**50 the group bound passes float64's, so those draws split into
#: limbs (every sum stays below 2**63).
dtype_design = dict(
    {k: v for k, v in design.items() if k != "scale"},
    window=st.sampled_from([12, 24]),
    peak_bits=st.integers(16, 54),
    fired=st.sampled_from(["all", "some"]),
    precision_bits=st.integers(12, 28),
)
DTYPE_PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)


def _check_index(fp, qt, bits):
    """Two output columns per index up to 8-bit weights (uint8 up to 4
    bits, uint16 from 5), one column per index past that."""
    index = fp._columns[id(qt)]
    d_out = qt.codes.shape[0]
    if bits <= 8:
        assert index.dtype == (np.uint8 if bits <= 4 else np.uint16)
        assert index.shape[-1] == (d_out + 1) // 2
    else:
        assert index.shape[-1] == d_out


def _check_linear(d_in, d_out, seed, n, window, tau, scale, fired,
                  precision_bits, bits):
    rng = np.random.default_rng(seed)
    spec = LayerSpec("linear", weight=_weight(rng, (d_out, d_in), scale),
                     bias=np.zeros(d_out, dtype=np.float32))
    fp = _scheme(spec, window, tau, precision_bits, bits)
    qt = fp._quantized[id(spec)]
    _check_index(fp, qt, bits)
    times = _times(rng, (n, d_in), window, fired)
    want = oracle.linear_products(fp.pe, tau, times, qt)
    for n_threads in (1, 2):    # two: spike times in two GEMM groups
        with engine_threads(n_threads):
            np.testing.assert_array_equal(fp._products_linear(times, qt),
                                          want)
    stream = EventStream.from_dense(times, window)
    np.testing.assert_array_equal(fp._products_linear_events(stream, qt),
                                  want)


def _check_conv(c_in, c_out, size, kernel, stride, padding, seed, n,
                window, tau, scale, fired, precision_bits, bits):
    rng = np.random.default_rng(seed)
    spec = LayerSpec("conv",
                     weight=_weight(rng, (c_out, c_in, kernel, kernel),
                                    scale),
                     bias=np.zeros(c_out, dtype=np.float32), stride=stride,
                     padding=padding, kernel_size=kernel)
    fp = _scheme(spec, window, tau, precision_bits, bits)
    qt = fp._quantized[id(spec)]
    _check_index(fp, qt, bits)
    times = _times(rng, (n, c_in, size, size), window, fired)
    want = oracle.conv_products(fp.pe, tau, times, qt, stride, padding)
    for n_threads in (1, 2):
        with engine_threads(n_threads):
            np.testing.assert_array_equal(
                fp._products_conv(times, qt, spec), want)
    stream = EventStream.from_dense(times, window)
    np.testing.assert_array_equal(
        fp._products_conv_events(stream, qt, spec), want)


@given(d_in=st.integers(1, 48), d_out=st.integers(1, 24), **design)
@example(d_in=40, d_out=7, seed=4, n=3, window=24, tau=4.0, scale=0.3,
         fired="all", precision_bits=16, bits=8)   # odd width, full uint16
@example(d_in=40, d_out=9, seed=5, n=3, window=24, tau=4.0, scale=0.3,
         fired="some", precision_bits=16, bits=2)
@settings(max_examples=60, deadline=None)
def test_linear_products_equal_oracle(d_in, d_out, seed, n, window, tau,
                                      scale, fired, precision_bits, bits):
    _check_linear(d_in, d_out, seed, n, window, tau, scale, fired,
                  precision_bits, bits)


@given(c_in=st.integers(1, 4), c_out=st.integers(1, 6),
       size=st.integers(3, 7), kernel=st.sampled_from([1, 3]),
       stride=st.sampled_from([1, 2]), padding=st.sampled_from([0, 1]),
       **design)
@example(c_in=3, c_out=5, size=6, kernel=3, stride=1, padding=1, seed=6,
         n=2, window=24, tau=4.0, scale=0.3, fired="all", precision_bits=16,
         bits=8)                                # odd width, full uint16
@settings(max_examples=60, deadline=None)
def test_conv_products_equal_oracle(c_in, c_out, size, kernel, stride,
                                    padding, seed, n, window, tau, scale,
                                    fired, precision_bits, bits):
    _check_conv(c_in, c_out, size, kernel, stride, padding, seed, n,
                window, tau, scale, fired, precision_bits, bits)


@given(d_in=st.integers(1, 48), d_out=st.integers(1, 24), **dtype_design)
@example(d_in=48, d_out=8, seed=1, n=4, window=24, tau=4.0, peak_bits=54,
         fired="all", precision_bits=28, bits=5)        # a limb split
@example(d_in=48, d_out=8, seed=2, n=4, window=24, tau=1.0, peak_bits=32,
         fired="some", precision_bits=20, bits=5)       # float32 and float64
@DTYPE_PROPERTY
def test_linear_dtype_rule_equals_oracle(d_in, d_out, seed, n, window, tau,
                                         peak_bits, fired, precision_bits,
                                         bits):
    _check_linear(d_in, d_out, seed, n, window, tau,
                  2.0 ** (peak_bits - precision_bits), fired, precision_bits,
                  bits)


@given(c_in=st.integers(1, 4), c_out=st.integers(1, 6),
       size=st.integers(3, 7), kernel=st.sampled_from([1, 3]),
       stride=st.sampled_from([1, 2]), padding=st.sampled_from([0, 1, 2]),
       **dtype_design)
@example(c_in=4, c_out=4, size=7, kernel=3, stride=1, padding=2, seed=1,
         n=2, window=24, tau=4.0, peak_bits=54, fired="all",
         precision_bits=28, bits=5)             # a limb split
@example(c_in=4, c_out=4, size=6, kernel=3, stride=2, padding=1, seed=2,
         n=2, window=24, tau=1.0, peak_bits=32, fired="some",
         precision_bits=20, bits=5)             # float32 and float64
@DTYPE_PROPERTY
def test_conv_dtype_rule_equals_oracle(c_in, c_out, size, kernel, stride,
                                       padding, seed, n, window, tau,
                                       peak_bits, fired, precision_bits,
                                       bits):
    _check_conv(c_in, c_out, size, kernel, stride, padding, seed, n,
                window, tau, 2.0 ** (peak_bits - precision_bits), fired,
                precision_bits, bits)


def test_gemm_dtype_boundary():
    """float32 while every partial sum stays below 2**24."""
    assert _gemm_dtype(3, ((1 << 24) - 1) // 3) == np.float32
    assert _gemm_dtype((1 << 24) - 1, 1) == np.float32
    assert _gemm_dtype(1 << 23, 2) == np.float64
    assert _gemm_dtype(1 << 24, 1) == np.float64
    assert _gemm_dtype(0, 1 << 40) == np.float32


def _spy(name):
    """Patch ``tilesim.<name>`` with a wrapper that records results."""
    fn = getattr(tilesim, name)
    seen = []

    def spy(*args):
        seen.append(fn(*args))
        return seen[-1]

    return mock.patch.object(tilesim, name, spy), seen


def test_one_layer_straddles_float32_and_float64():
    """At 20 precision bits and tau=1 the early spike times' GEMMs pass
    the float32 bound and the late ones do not; one call runs both."""
    rng = np.random.default_rng(5)
    spec = LayerSpec("linear", weight=_weight(rng, (16, 48), 4.0),
                     bias=np.zeros(16, dtype=np.float32))
    fp = _scheme(spec, 24, 1.0, 20)
    qt = fp._quantized[id(spec)]
    times = _times(rng, (4, 48), 24, "all")
    patch, dtypes = _spy("_gemm_dtype")
    with patch:
        got = fp._products_linear(times, qt)
    assert set(dtypes) == {np.dtype(np.float32), np.dtype(np.float64)}
    np.testing.assert_array_equal(
        got, oracle.linear_products(fp.pe, 1.0, times, qt))


def test_wide_table_splits_into_limbs():
    """At 56 precision bits a table entry nears 2**57: the GEMMs run on
    split limbs, here in two groups of spike times, and still match the
    oracle bitwise."""
    rng = np.random.default_rng(3)
    spec = LayerSpec("linear", weight=_weight(rng, (8, 64), 4.0),
                     bias=np.zeros(8, dtype=np.float32))
    fp = _scheme(spec, 24, 4.0, 56)
    qt = fp._quantized[id(spec)]
    times = _times(rng, (3, 64), 24, "all")
    table = fp._product_table(np.unique(times), qt)
    limbs = _exact_limbs(table, [64] * len(table))
    assert len(limbs) > 1
    np.testing.assert_array_equal(
        sum(limb.astype(np.int64) << (LIMB_BITS * k) for k, limb in
            enumerate(limbs)), table)
    groups = []
    map_groups = threads.map_groups

    def spy(fn, count):
        parts = map_groups(fn, count)
        groups.append(len(parts))
        return parts

    patch, used = _spy("_exact_limbs")
    with engine_threads(2), mock.patch.object(threads, "map_groups", spy), \
            patch:
        got = fp._products_linear(times, qt)
    assert groups == [2]
    assert len(used) == 1 and len(used[0]) > 1   # the GEMMs ran split
    np.testing.assert_array_equal(
        got, oracle.linear_products(fp.pe, 4.0, times, qt))


def test_narrow_table_is_one_limb():
    table = np.array([[(1 << 40) - 1, -(1 << 40)]], dtype=np.int64)
    assert len(_exact_limbs(table, [1 << 12])) == 1
    assert len(_exact_limbs(table, [1 << 13])) == 2


def test_conv_weight_layer_leaves_no_garbage(converted_micro, tiny_dataset):
    """A conv layer frees everything it allocates by reference count: no
    reference cycle keeps a weight-sized temporary alive until the next
    cyclic collection."""
    fp = FixedPointInference(converted_micro)
    spec = converted_micro.weight_layers[0]
    assert spec.kind == "conv"
    ctx = executor.ExecutionContext()
    train = fp.encode_input(tiny_dataset.test_x[:2], ctx)
    gc.collect()
    gc.disable()
    try:
        fp.weight_layer(spec, train, ctx)
    finally:
        gc.enable()
    assert gc.collect() == 0


@pytest.mark.parametrize("zeroed", [None, 1])
def test_readout_agrees_across_formulations(converted_micro, tiny_dataset,
                                            zeroed):
    """Dense, event and the pyNN interpreter's own per-output loop agree
    on the readout bitwise, also when a hidden weight layer is all zero
    (FSR 0: the layer contributes only its bias)."""
    snn = copy.deepcopy(converted_micro)
    if zeroed is not None:
        hidden = snn.weight_layers[zeroed]
        hidden.weight = np.zeros_like(hidden.weight)
    x = tiny_dataset.test_x[:6]
    dense = executor.run_pipeline(FixedPointInference(snn), x)
    event = executor.run_pipeline(FixedPointInference(snn, backend="event"),
                                  x)
    netlist = compile_netlist(snn, "fixed-point", x.shape[1:])
    np.testing.assert_array_equal(dense, event)
    np.testing.assert_array_equal(dense, execute_netlist(netlist, x))


def test_table_columns_are_built_once_per_layer(converted_micro,
                                                tiny_dataset):
    """Each layer's table columns are one uint16 index per pair of
    output columns, one byte per weight, built with the scheme."""
    fp = FixedPointInference(converted_micro)
    assert len(fp._columns) == len(converted_micro.weight_layers)
    for spec in converted_micro.weight_layers:
        index = fp._columns[id(fp._quantized[id(spec)])]
        d_out = spec.weight.shape[0]
        assert index.dtype == np.uint16
        assert index.shape[-1] == (d_out + 1) // 2
        assert index.nbytes == spec.weight.size + spec.weight[:1].size * (
            d_out % 2)
    with mock.patch.object(FixedPointInference, "_table_columns",
                           side_effect=AssertionError("rebuilt")):
        executor.run_pipeline(fp, tiny_dataset.test_x[:2])
        executor.run_pipeline(fp, tiny_dataset.test_x[2:3])


class TestMapGroups:
    def test_round_robin_groups_one_per_thread(self):
        with engine_threads(2):
            parts = threads.map_groups(list, 5)
        assert parts == [[0, 2, 4], [1, 3]]

    def test_runs_on_pool_threads(self):
        def where(indices):
            return threading.current_thread().name

        with engine_threads(2):
            names = threads.map_groups(where, 4)
        assert all(name.startswith("repro-images") for name in names)

    def test_inline_with_one_thread(self):
        with engine_threads(1):
            assert threads.map_groups(list, 5) == [[0, 1, 2, 3, 4]]

    def test_inline_with_fewer_than_two_groups(self):
        with engine_threads(2):
            assert threads.map_groups(list, 1) == [[0]]
            assert threads.map_groups(list, 0) == [[]]

    def test_inline_from_a_pool_thread(self):
        with engine_threads(2):
            nested = threads.map_groups(
                lambda outer: threads.map_groups(list, 4), 2)
        assert nested == [[[0, 1, 2, 3]]] * 2

    def test_inline_under_a_threaded_blas(self):
        with engine_threads(2), \
                mock.patch.object(threads, "blas_threads", lambda: 2):
            assert threads.map_groups(list, 4) == [[0, 1, 2, 3]]

    def test_group_errors_reach_the_caller(self):
        def fn(indices):
            if 1 in indices:
                raise ValueError("bad group")
            return list(indices)

        with engine_threads(2), pytest.raises(ValueError,
                                              match="bad group"):
            threads.map_groups(fn, 4)
