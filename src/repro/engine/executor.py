"""Shared pipeline-execution core for every simulator stack.

The paper's pipeline (Fig. 1) is one abstraction — a sequence of
:class:`~repro.cat.convert.LayerSpec` records integrated, fired and
pooled in the time domain.  This module implements that layer walk
*once*; the event-driven TTFS simulator, the rate-coded comparison, the
T2FSNN baseline evaluation and the hardware fixed-point/tile models are
thin :class:`CodingScheme` strategies over it.

The executor owns everything every stack used to reimplement privately:

* the per-layer affine map (conv / linear through the tensor
  primitives) and its output-shape inference, and the closed-form TTFS
  conv layer fused into one pass (:func:`integrate_fire_conv`);
* time-domain max pooling (earliest spike wins) and the documented
  decode/pool/re-encode lowering of average pooling;
* spike-statistics bookkeeping (:class:`LayerTrace`, SOP counting).

Intentionally *not* imported at module level: anything from
``repro.snn`` or ``repro.hw``.  Those packages import the engine, so the
engine reaches back for :class:`SpikeTrain` lazily, keeping the layering
acyclic (tensor / cat.kernels -> engine -> snn / hw).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from ..events import EventStream, conv_offset_coverage, scatter_chunks
from ..tensor import (
    Tensor,
    avg_pool2d,
    conv2d as conv2d_op,
    conv_gemm,
    im2col,
    max_pool2d,
)
from ..threads import map_images
from .plan import scatter_add_rows

#: Membranes exactly on-threshold fire (float guard of the fire phase).
FIRE_TOL = 1e-9

#: Execution backends every registered scheme understands: ``dense``
#: walks full ``(T, N, ...)``/dense activation volumes; ``event``
#: integrates only the spikes that actually occurred, as a scatter over
#: an :class:`~repro.events.EventStream` (cost O(events), not
#: O(timesteps x neurons)).
BACKENDS = ("dense", "event")


def available_backends():
    """The execution backends schemes/runners/CLI accept."""
    return list(BACKENDS)


def validate_backend(name: str) -> str:
    """Check a backend name; unknown names get a closest-match message."""
    if name not in BACKENDS:
        from ..util import unknown_name_message

        raise ValueError(unknown_name_message("backend", name, BACKENDS))
    return name


# ----------------------------------------------------------------------
# Per-layer primitives
# ----------------------------------------------------------------------

def affine(spec, x: np.ndarray, include_bias: bool = True) -> np.ndarray:
    """The layer's affine map ``W x (+ b)`` for conv and linear specs.

    Conv layers run over image slices on every allowed core when BLAS
    runs on one thread (:func:`~repro.threads.map_images`); linear
    layers run whole, since their GEMM rounds differently at 1-3 rows.
    """
    if spec.kind == "conv":
        weight = Tensor(spec.weight)
        bias = Tensor(spec.bias) if include_bias else None
        n, c_out, oh, ow = output_shape(spec, x.shape)

        def conv(images):
            out = conv2d_op(Tensor(images), weight, bias, spec.stride,
                            spec.padding).data
            return out.transpose(0, 2, 3, 1)  # the GEMM's (N, OH, OW, C)

        out = map_images(conv, x, (n, oh, ow, c_out), np.float64,
                         blas=True, unit=_gemm_unit(n, oh, ow))
        return out.transpose(0, 3, 1, 2).astype(np.float64, copy=False)
    out = x @ spec.weight.T
    if include_bias:
        out = out + spec.bias
    return out.astype(np.float64, copy=False)


def _gemm_unit(n: int, oh: int, ow: int) -> int:
    """Images a conv GEMM's slices start on a multiple of.

    Each image is ``oh * ow`` GEMM rows; slices start on a multiple of
    16 rows so BLAS tiles every row as in the whole batch, and one-row
    images (a GEMV each) never split.
    """
    rows = oh * ow
    return 16 // math.gcd(16, rows) if rows > 1 else max(n, 1)


def integrate_fire_conv(spec, train, kernel, theta0: float = 1.0,
                        record_membrane: bool = False):
    """One hidden conv layer of the closed-form TTFS path, fused.

    Per image slice, on every allowed core (the conv GEMM's slicing
    rules, as in :func:`affine`): the input times index a float32
    table of the T+1 kernel values plus a zero for ``NO_SPIKE`` (the
    processor's decode LUT, Eq. 17), written straight into a
    zero-padded channel-major ``(C, m, H+2p, W+2p)`` buffer; im2col into
    the GEMM's K-major layout and the float32 GEMM
    (:func:`~repro.tensor.conv.conv_gemm`, weight-major at few rows);
    the float64 bias, into an NHWC membrane; and the fire
    (:meth:`Base2Kernel.fire`), read from a table by the membrane's
    float bits.  Each step gives the bits the unfused decode ->
    :func:`affine` -> integrate -> ``spike_time`` chain gives, so the
    spike times are bitwise equal to it.

    Returns ``(times, membrane)``: NCHW int64 fire times (an NHWC
    array's transposed view), and the NCHW float64 membrane when
    ``record_membrane`` is set, else ``None``.
    """
    times, window = train.times, train.window
    n, c_in, h, w = times.shape
    _, c_out, oh, ow = output_shape(spec, times.shape)
    k, s, p = spec.kernel_size, spec.stride, spec.padding
    table = kernel.decode_table(window, theta0).astype(np.float32)
    w2d = spec.weight.astype(np.float32, copy=False).reshape(c_out, -1)
    bias = spec.bias.astype(np.float64)

    def integrate(part):
        m = len(part)
        padded = np.zeros((c_in, m, h + 2 * p, w + 2 * p), np.float32)
        padded[:, :, p:p + h, p:p + w] = table[part.transpose(1, 0, 2, 3)]
        cols, _ = im2col(padded.transpose(1, 0, 2, 3), k, s, 0)
        # the GEMM's rows are NHWC; the bias adds in float64, into a
        # C-ordered membrane whatever order the GEMM's result has
        membrane = np.empty((m, oh, ow, c_out))
        np.add(conv_gemm(cols, w2d), bias,
               out=membrane.reshape(-1, c_out))
        return membrane

    def integrate_and_fire(part):
        return kernel.fire(integrate(part), theta0, window)

    shape, unit = (n, oh, ow, c_out), _gemm_unit(n, oh, ow)
    if not record_membrane:
        fired = map_images(integrate_and_fire, times, shape, np.int64,
                           blas=True, unit=unit)
        return fired.transpose(0, 3, 1, 2), None
    membrane = map_images(integrate, times, shape, np.float64, blas=True,
                          unit=unit)
    fired = map_images(lambda m: kernel.fire(m, theta0, window),
                       membrane, shape, np.int64)
    return fired.transpose(0, 3, 1, 2), membrane.transpose(0, 3, 1, 2)


def output_shape(spec, in_shape: Sequence[int]) -> tuple:
    """Shape produced by a weight layer on an input of ``in_shape``."""
    if spec.kind == "conv":
        n, _, h, w = in_shape
        k, s, p = spec.kernel_size, spec.stride, spec.padding
        oh = (h + 2 * p - k) // s + 1
        ow = (w + 2 * p - k) // s + 1
        return (n, spec.weight.shape[0], oh, ow)
    return (in_shape[0], spec.weight.shape[0])


def bias_shaped(spec) -> np.ndarray:
    """The layer bias broadcast to its activation rank."""
    if spec.kind == "conv":
        return spec.bias[None, :, None, None]
    return spec.bias[None, :]


def pool_values(spec, x: np.ndarray) -> np.ndarray:
    """Value-domain max/avg pooling for ``maxpool``/``avgpool`` specs."""
    t = Tensor(x)
    if spec.kind == "maxpool":
        return max_pool2d(t, spec.kernel_size, spec.stride).data
    return avg_pool2d(t, spec.kernel_size, spec.stride).data


def conv_fanout(spec) -> int:
    """Average fan-out of one input spike in a conv layer.

    Each input event updates at most K*K*C_out membranes (SpinalFlow's
    dataflow); borders reduce the average slightly, which the hardware
    model folds in separately.
    """
    return spec.kernel_size ** 2 * spec.weight.shape[0]


def layer_sops(spec, input_spikes: int) -> int:
    """Synaptic operations a weight layer performs on ``input_spikes``."""
    fanout = spec.weight.shape[0] if spec.kind == "linear" else conv_fanout(spec)
    return input_spikes * fanout


# ----------------------------------------------------------------------
# Time-domain pooling on spike trains
# ----------------------------------------------------------------------

def pool_times(spec, train):
    """Max-pool in the time domain: the earliest spike wins.

    Under TTFS coding the maximum value corresponds to the minimum spike
    time, so spatial max-pooling is a windowed min over fire times.  It
    runs as pairwise ``np.minimum`` over the window's taps on the
    ``uint64`` view of the int64 times, where ``NO_SPIKE`` (-1) is the
    largest value and so loses to any spike, over image slices on every
    allowed core.  The taps are read channels-last, and the result is
    an NHWC array's NCHW view: the fused conv layers write NHWC.
    """
    from ..snn.spikes import SpikeTrain

    n, c, h, w = train.times.shape
    k, s = spec.kernel_size, spec.stride
    oh = (h - k) // s + 1
    ow = (w - k) // s + 1

    def earliest(times):
        times = times.view(np.uint64)
        taps = [times[:, y:y + s * oh:s, x:x + s * ow:s]
                for y in range(k) for x in range(k)]
        out = np.minimum(taps[0], taps[-1])
        for tap in taps[1:-1]:
            np.minimum(out, tap, out=out)
        return out.view(np.int64)

    pooled = map_images(earliest, train.times.transpose(0, 2, 3, 1),
                        (n, oh, ow, c), np.int64)
    return SpikeTrain(pooled.transpose(0, 3, 1, 2), train.window)


def avgpool_times(spec, train, kernel, theta0: float = 1.0):
    """Average pooling on a spike train.

    Average pooling has no exact single-spike representation; decode,
    pool in the value domain, re-encode (documented coding loss).
    """
    from ..snn.spikes import encode_values

    decoded = train.decode(kernel, theta0)
    pooled = avg_pool2d(Tensor(decoded), spec.kernel_size, spec.stride).data
    return encode_values(pooled, kernel, train.window, theta0)


def avgpool_events(spec, stream: EventStream, kernel, theta0: float = 1.0
                   ) -> EventStream:
    """Average pooling on an event stream.

    Same decode / value-pool / re-encode lowering as
    :func:`avgpool_times` (the documented coding loss), producing the
    identical spike times.
    """
    decoded = stream.decode(kernel, theta0)
    pooled = avg_pool2d(Tensor(decoded), spec.kernel_size, spec.stride).data
    times = kernel.spike_time(pooled, theta0=theta0, window=stream.window)
    return EventStream.from_dense(times, stream.window)


# ----------------------------------------------------------------------
# Event-driven integration (the `event` backend's hot path)
# ----------------------------------------------------------------------

def integrate_events(spec, stream: EventStream, values: np.ndarray,
                     plan=None) -> np.ndarray:
    """Membrane sums of a weight layer from spike events alone.

    The event-driven integrate-and-fire formulation: instead of decoding
    the stream into a dense activation volume and running the full
    affine map, each event ``(sample, neuron j, value v)`` scatters
    ``v * W[:, j]`` into the membranes it actually reaches, so the cost
    is O(events x fan-out) regardless of how many neurons stayed silent.
    ``values`` carries one amplitude per event (the kernel-decoded PSP
    for TTFS coding, the threshold for rate coding).  Biases are *not*
    added (callers add :func:`bias_shaped` once per window, mirroring
    the PPU).

    The scatter runs through the segment-sum kernels of
    :mod:`repro.engine.plan` (bit-identical to the historical
    ``np.add.at`` formulation, preserved as
    :func:`integrate_events_reference`).  Pass a compiled ``plan`` (from
    a :class:`~repro.engine.plan.PlanSet`) to skip the per-batch
    geometry derivation entirely; without one the geometry is derived in
    place, exactly as before.  Either way conv layers chunk *within*
    each kernel tap, so the transient ``(events x c_out)`` block is
    bounded by ``SCATTER_BLOCK_ELEMENTS`` even at full K*K fan-out.
    """
    values = np.asarray(values, dtype=np.float64)
    if len(values) != stream.num_events:
        raise ValueError(
            f"got {len(values)} values for {stream.num_events} events")
    if plan is not None:
        return plan.execute(spec, stream, values)
    out_shape = output_shape(spec, stream.shape)
    if spec.kind == "linear":
        sample, j = stream.unravel()
        membrane = np.zeros(out_shape, dtype=np.float64)
        wt64 = spec.weight.T.astype(np.float64)
        # chunk the (events x outputs) product block to bound memory
        # (a folded rate stream can carry T x batch worth of events)
        for sl in scatter_chunks(stream.num_events, out_shape[1]):
            scatter_add_rows(membrane, sample[sl],
                             values[sl][:, None] * wt64[j[sl]])
        return membrane
    # conv: decompose flat indices into (n, c, y, x) once, then scatter
    # each event through the K*K kernel offsets that cover it.
    n_out, c_out, oh, ow = out_shape
    n, c, y, x = stream.unravel()
    # the dense conv path runs through the tensor primitives at float32,
    # so round each product identically (float32 value x float32
    # weight = the exact terms dense sums), then accumulate them in
    # float64 — the sum is at least as accurate as dense's own float32
    # reduction
    values32 = values.astype(np.float32)
    # scatter into (N, OH, OW, C_out) rows so one fancy index covers the
    # whole fan-out of an event at a given offset
    mem = np.zeros((n_out * oh * ow, c_out), dtype=np.float64)
    for ky, kx, ok, oy, ox in conv_offset_coverage(
            y, x, spec.kernel_size, spec.stride, spec.padding, oh, ow):
        rows = (n[ok] * oh + oy) * ow + ox
        cs = c[ok]
        vals32 = values32[ok]
        w_t = spec.weight[:, :, ky, kx].T
        for sl in scatter_chunks(len(rows), c_out):
            contrib = vals32[sl][:, None] * w_t[cs[sl]]
            scatter_add_rows(mem, rows[sl], contrib.astype(np.float64))
    return mem.reshape(n_out, oh, ow, c_out).transpose(0, 3, 1, 2)


def integrate_events_reference(spec, stream: EventStream,
                               values: np.ndarray, plan=None) -> np.ndarray:
    """The PR-4 ``np.add.at`` scatter, kept verbatim as the semantic
    reference: :func:`integrate_events` (with or without a plan) must
    match it *bitwise* — the property suite and the ``scatter`` variant
    of ``benchmarks/bench_event_stream.py`` both hold it to that.
    ``plan`` is accepted and ignored so the two are drop-in
    interchangeable."""
    values = np.asarray(values, dtype=np.float64)
    if len(values) != stream.num_events:
        raise ValueError(
            f"got {len(values)} values for {stream.num_events} events")
    out_shape = output_shape(spec, stream.shape)
    if spec.kind == "linear":
        sample, j = stream.unravel()
        membrane = np.zeros(out_shape, dtype=np.float64)
        for sl in scatter_chunks(stream.num_events, out_shape[1]):
            np.add.at(membrane, sample[sl],
                      values[sl][:, None]
                      * spec.weight.T[j[sl]].astype(np.float64))
        return membrane
    n_out, c_out, oh, ow = out_shape
    n, c, y, x = stream.unravel()
    values32 = values.astype(np.float32)
    mem = np.zeros((n_out * oh * ow, c_out), dtype=np.float64)
    for ky, kx, ok, oy, ox in conv_offset_coverage(
            y, x, spec.kernel_size, spec.stride, spec.padding, oh, ow):
        rows = (n[ok] * oh + oy) * ow + ox
        contrib = values32[ok][:, None] * spec.weight[:, c[ok], ky, kx].T
        np.add.at(mem, rows, contrib.astype(np.float64))
    return mem.reshape(n_out, oh, ow, c_out).transpose(0, 3, 1, 2)


# ----------------------------------------------------------------------
# Execution context and statistics
# ----------------------------------------------------------------------

@dataclass
class LayerTrace:
    """Per-layer record of one simulation run."""

    name: str
    input_spikes: int
    output_spikes: int
    neurons: int
    sops: int  # synaptic operations = sum over input spikes of fan-out
    membrane: Optional[np.ndarray] = None
    #: How many per-chunk traces were folded into this record (1 for a
    #: fresh single-chunk trace).  Without it, averaged statistics —
    #: spikes/image, SOPs/image — were uncomputable from a merged trace
    #: whose counts had been summed over an unrecorded number of chunks.
    chunks: int = 1


@dataclass
class ExecutionContext:
    """Mutable per-run bookkeeping shared by the walk and the scheme.

    ``weight_index`` is the index of the weight layer currently being
    executed (the walk increments it); ``extra`` is scheme-private
    scratch space (e.g. the tile model parks its cycle report there).
    """

    traces: List[LayerTrace] = field(default_factory=list)
    weight_index: int = 0
    extra: Dict[str, Any] = field(default_factory=dict)

    def record(self, trace: LayerTrace) -> None:
        self.traces.append(trace)


# ----------------------------------------------------------------------
# The layer walk
# ----------------------------------------------------------------------

class CodingScheme:
    """Strategy interface over the shared layer walk.

    A scheme decides how values are represented between layers (spike
    trains, per-timestep signals, plain arrays) and what a weight layer
    does to that state; :func:`run_pipeline` owns the walk itself.
    Implementations set :attr:`scheme_name` and are registered in
    :mod:`repro.engine.registry` so new coding schemes plug in without
    another copy of the walk.

    :attr:`backend` selects the execution formulation (``dense`` |
    ``event``, see :data:`BACKENDS`); the parity suite asserts both give
    the same results on ``vgg_micro`` for every registered scheme.
    Schemes that have no event formulation simply ignore the attribute.
    """

    scheme_name: str = ""
    backend: str = "dense"

    @property
    def layers(self):
        return self.snn.layers  # subclasses hold the converted network

    # -- hooks ----------------------------------------------------------
    def encode_input(self, images: np.ndarray, ctx: ExecutionContext):
        raise NotImplementedError

    def weight_layer(self, spec, state, ctx: ExecutionContext):
        raise NotImplementedError

    def pool(self, spec, state, ctx: ExecutionContext):
        raise NotImplementedError

    def flatten(self, state, ctx: ExecutionContext):
        raise NotImplementedError

    def finalize(self, state, ctx: ExecutionContext):
        return state

    # -- driving --------------------------------------------------------
    def run(self, images: np.ndarray):
        """Execute the full pipeline on a batch of images."""
        return run_pipeline(self, images)

    def merge(self, results: List[Any]):
        """Aggregate per-chunk results (see :class:`PipelineRunner`)."""
        raise NotImplementedError


class SpikeTrainScheme(CodingScheme):
    """Default pool/flatten hooks for schemes whose inter-layer state is
    a :class:`~repro.snn.spikes.SpikeTrain` or an
    :class:`~repro.events.EventStream` (requires ``self.snn`` and
    ``self.kernel``).  Both representations pool to identical spike
    times; the event path never materialises a dense volume."""

    @property
    def theta0(self) -> float:
        return self.snn.config.theta0

    def pool(self, spec, train, ctx: ExecutionContext):
        if isinstance(train, EventStream):
            if spec.kind == "maxpool":
                return train.max_pool2d(spec.kernel_size, spec.stride)
            return avgpool_events(spec, train, self.kernel, self.theta0)
        if spec.kind == "maxpool":
            return pool_times(spec, train)
        return avgpool_times(spec, train, self.kernel, self.theta0)

    def flatten(self, train, ctx: ExecutionContext):
        # explicit feature count: -1 cannot be inferred from 0 images
        return train.reshape((train.shape[0], math.prod(train.shape[1:])))


def run_pipeline(scheme: CodingScheme, images: np.ndarray):
    """The single layer walk every simulator stack executes.

    Encodes the input, dispatches each :class:`LayerSpec` to the
    scheme's hook, stops at the readout layer and hands the final state
    to the scheme for packaging.
    """
    ctx = ExecutionContext()
    state = scheme.encode_input(images, ctx)
    for spec in scheme.layers:
        if spec.is_weight_layer:
            state = scheme.weight_layer(spec, state, ctx)
            if spec.is_output:
                break
            ctx.weight_index += 1
        elif spec.kind in ("maxpool", "avgpool"):
            state = scheme.pool(spec, state, ctx)
        elif spec.kind == "flatten":
            state = scheme.flatten(state, ctx)
        else:
            raise ValueError(f"unknown layer kind {spec.kind!r}")
    return scheme.finalize(state, ctx)


# ----------------------------------------------------------------------
# Value-domain walk (shared by ConvertedSNN / T2FSNN evaluation)
# ----------------------------------------------------------------------

def run_value_pipeline(layers, x: np.ndarray, hidden, output=None) -> np.ndarray:
    """Value-domain layer walk with pluggable per-layer activations.

    ``hidden(index, pre_activation)`` maps each hidden weight layer's
    pre-activation to its coded activation (TTFS quantisation, per-layer
    kernel quantisation, plain ReLU...); ``output(pre_activation)``
    transforms the readout potentials (scaling, recording).  The affine
    maps and pooling come from the shared executor primitives, so the
    evaluation stacks carry no private copies of the walk.
    """
    wi = 0
    for spec in layers:
        if spec.is_weight_layer:
            z = affine(spec, x)
            if spec.is_output:
                return output(z) if output is not None else z
            x = hidden(wi, z)
            wi += 1
        elif spec.kind in ("maxpool", "avgpool"):
            x = pool_values(spec, x)
        elif spec.kind == "flatten":
            x = x.reshape(len(x), -1)
        else:
            raise ValueError(f"unknown layer kind {spec.kind!r}")
    return x
