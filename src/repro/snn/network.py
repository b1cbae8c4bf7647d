"""Event-driven simulation of a converted TTFS spiking network.

The network consumes the :class:`~repro.cat.convert.LayerSpec` list that
:func:`repro.cat.convert.convert` produces and simulates the pipeline of
Fig. 1: every layer integrates its predecessor's spikes through the
dendrite kernel, then encodes its own membrane potentials into output
spikes with the threshold sweep.

The layer walk itself lives in :mod:`repro.engine`;
:class:`EventDrivenTTFSNetwork` is the TTFS coding *strategy* over that
walk.  Every float formulation computes one membrane,
``affine(decoded) + bias``: each neuron fires once and, without early
firing, is read only after the whole window, so integrating the train
step by step is the same quantity (Eq. 4) and ``ttfs-timestep`` is an
alias of ``ttfs-closed-form``.  The closed form decodes the whole spike
train at once and fires at the closed-form spike time (Eq. 14); each
hidden conv layer is one fused executor call
(:func:`~repro.engine.executor.integrate_fire_conv`).  Early firing
(``ttfs-early``) re-applies the same affine map to the decoded prefix of
the train at every step that brings new spikes, so its last membrane is
the closed form's, bit for bit.

The simulation also records the statistics the hardware model consumes:
spike counts, synaptic operations (SOPs) and per-layer occupancy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..cat.convert import ConvertedSNN, LayerSpec
from ..cat.kernels import NO_SPIKE, Base2Kernel
from ..engine import executor
from ..engine.executor import (
    FIRE_TOL,
    ExecutionContext,
    LayerTrace,
    SpikeTrainScheme,
    validate_backend,
)
from ..engine.plan import PlanSet
from ..engine.registry import register_scheme, register_scheme_alias
from ..engine.runner import PipelineRunner, merge_traces
from ..events import EventStream
from .spikes import SpikeTrain, encode_values


@dataclass
class SimulationResult:
    """Output of an event-driven run."""

    output: np.ndarray  # readout membrane potentials
    traces: List[LayerTrace] = field(default_factory=list)
    window: int = 0
    num_stages: int = 0
    early_firing: bool = False

    @property
    def latency_timesteps(self) -> int:
        """End-to-end latency: one window per pipeline stage; early
        firing overlaps integrate/fire phases and halves it (Table 2)."""
        total = self.num_stages * self.window
        return total // 2 if self.early_firing else total

    @property
    def total_spikes(self) -> int:
        return sum(t.output_spikes for t in self.traces)

    @property
    def total_sops(self) -> int:
        return sum(t.sops for t in self.traces)

    def predictions(self) -> np.ndarray:
        return self.output.argmax(axis=1)


class EventDrivenTTFSNetwork(SpikeTrainScheme):
    """Simulate a :class:`ConvertedSNN` spike-by-spike.

    ``early_firing`` enables the T2FSNN latency optimisation [4]: a
    neuron may fire *during* its integration window based on its partial
    membrane sum, halving end-to-end latency.  The paper's design keeps
    the phases separate (exactness over latency); this flag exists so the
    trade-off can be measured (see ``bench_early_firing``).
    """

    def __init__(self, snn: ConvertedSNN,
                 record_membranes: bool = False,
                 early_firing: bool = False,
                 backend: str = "dense",
                 plans: Optional[PlanSet] = None):
        self.snn = snn
        self.config = snn.config
        self.kernel = Base2Kernel(tau=snn.config.tau, base=snn.config.base)
        self.record_membranes = record_membranes
        self.early_firing = early_firing
        self.backend = validate_backend(backend)
        # compiled event-execution plans; an empty PlanSet fills itself
        # lazily (compile-on-first-use), a prebuilt one — e.g. loaded
        # from a ModelArtifact bundle — skips even that
        self.plans = plans if plans is not None else PlanSet()
        self.scheme_name = "ttfs-early" if early_firing else "ttfs-closed-form"

    # ------------------------------------------------------------------
    def _decode_integrate(self, spec: LayerSpec,
                          train: SpikeTrain) -> np.ndarray:
        """Closed-form integration phase: the whole window decoded at
        once, plus the once-per-window bias (Eq. 4)."""
        decoded = train.decode(self.kernel, self.config.theta0)
        return (executor.affine(spec, decoded, include_bias=False)
                + executor.bias_shaped(spec))

    def _integrate_and_fire_early(self, spec: LayerSpec, train: SpikeTrain,
                                  out_shape):
        """Overlapped integration + fire (T2FSNN 'early firing').

        At every step the spikes arriving at that step write their
        decoded values into a prefix of the train, the layer's membrane
        becomes ``affine(prefix) + bias``, and neurons that have not
        fired yet compare it against the decaying threshold.  Neurons
        therefore fire on partial sums: latency halves, at the cost of
        coding error when later inputs would have changed the membrane.
        Each input fires once, so after the last step the prefix is the
        decoded train and the membrane is the closed form's, bitwise.
        Returns ``(fire train, membrane)``.
        """
        theta0, window = self.config.theta0, train.window
        decoded = train.decode(self.kernel, theta0)
        bias = executor.bias_shaped(spec)
        prefix = np.zeros_like(decoded)
        membrane = np.zeros(out_shape) + bias
        fire_times = np.full(out_shape, NO_SPIKE, dtype=np.int64)
        for t in range(window + 1):
            arrived = train.times == t
            if arrived.any():
                prefix[arrived] = decoded[arrived]
                membrane = (executor.affine(spec, prefix, include_bias=False)
                            + bias)
            threshold = theta0 * float(self.kernel.value(t))
            fire_times[(membrane >= threshold - FIRE_TOL)
                       & (fire_times == NO_SPIKE)] = t
        return SpikeTrain(times=fire_times, window=window), membrane

    # ------------------------------------------------------------------
    # Event-backend formulation
    # ------------------------------------------------------------------
    def _event_values(self, stream: EventStream) -> np.ndarray:
        """Per-event PSP amplitudes (the kernel-decoded spike values)."""
        return self.config.theta0 * self.kernel.value(stream.times)

    def _integrate_events(self, spec: LayerSpec, stream: EventStream,
                          plan=None) -> np.ndarray:
        """Integration phase as a scatter over only the events that
        occurred, plus the once-per-window bias (Eq. 4)."""
        membrane = executor.integrate_events(spec, stream,
                                             self._event_values(stream),
                                             plan)
        membrane += executor.bias_shaped(spec)
        return membrane

    @staticmethod
    def _fire_span(membrane: np.ndarray, fire_times: np.ndarray,
                   ascending: np.ndarray, a: int, b: int) -> None:
        """Fire checks for ``t = a..b`` on a constant membrane segment.

        Between event arrivals the membrane does not change, so the
        per-timestep comparison loop over the span collapses to one
        ``searchsorted`` against the (monotone) threshold slice.  Fired
        membranes reset to zero (encoder feedback path).
        """
        flat_m = membrane.reshape(-1)
        flat_f = fire_times.reshape(-1)
        active = np.flatnonzero(flat_f == NO_SPIKE)
        if not active.size:
            return
        t = np.searchsorted(ascending[a:b + 1], -flat_m[active], side="left")
        hit = active[t <= b - a]
        flat_f[hit] = a + t[t <= b - a]
        flat_m[hit] = 0.0

    def _integrate_and_fire_early_events(self, spec: LayerSpec,
                                         stream: EventStream, out_shape,
                                         plan=None):
        """Event-driven early firing: walk only the *occupied* timesteps.

        The spikes of :meth:`_integrate_and_fire_early` in exact
        arithmetic: at each arrival time the new events scatter in, then
        the partial membranes race the decaying threshold until the next
        arrival (a :meth:`_fire_span` per gap instead of a per-``t``
        Python loop).  Fired membranes reset here and not in the dense
        walk; a neuron fires once, so only recorded membranes differ.
        Returns ``(fire_times, membrane)``.
        """
        theta0, window = self.config.theta0, stream.window
        thresholds = theta0 * self.kernel.value(np.arange(window + 1))
        ascending = -(thresholds - FIRE_TOL)
        membrane = np.zeros(out_shape, dtype=np.float64)
        membrane += executor.bias_shaped(spec)
        fire_times = np.full(out_shape, NO_SPIKE, dtype=np.int64)
        next_t = 0
        for t, a, b in stream.time_groups():
            if t > next_t:
                self._fire_span(membrane, fire_times, ascending, next_t,
                                t - 1)
            group = stream.slice_events(a, b)
            membrane += executor.integrate_events(spec, group,
                                                  self._event_values(group),
                                                  plan)
            self._fire_span(membrane, fire_times, ascending, t, t)
            next_t = t + 1
        if next_t <= window:
            self._fire_span(membrane, fire_times, ascending, next_t, window)
        return fire_times, membrane

    # ------------------------------------------------------------------
    @staticmethod
    def _pool_times(spec: LayerSpec, train: SpikeTrain) -> SpikeTrain:
        """Earliest-spike max pooling (kept as an alias of the engine's)."""
        return executor.pool_times(spec, train)

    # ------------------------------------------------------------------
    # CodingScheme hooks
    # ------------------------------------------------------------------
    def encode_input(self, images: np.ndarray, ctx: ExecutionContext):
        cfg = self.config
        if self.backend == "event":
            train = self.snn.input_events(images)
        else:
            train = encode_values(np.asarray(images, dtype=np.float64),
                                  self.kernel, cfg.window, cfg.theta0)
        ctx.record(LayerTrace(name="input-encoder", input_spikes=0,
                              output_spikes=train.num_spikes,
                              neurons=train.num_neurons, sops=0))
        return train

    def _weight_layer_events(self, spec: LayerSpec, stream: EventStream,
                             ctx: ExecutionContext):
        """Event-backend weight layer: scatter-integrate, then fire."""
        cfg = self.config
        out_shape = executor.output_shape(spec, stream.shape)
        in_spikes = stream.num_spikes
        sops = executor.layer_sops(spec, in_spikes)
        name = f"{spec.kind}{ctx.weight_index}"
        plan = self.plans.plan_for(spec, ctx.weight_index, stream.shape)

        if spec.is_output:
            membrane = self._integrate_events(spec, stream, plan)
            output = membrane * self.snn.output_scale
            ctx.record(LayerTrace(
                name=name + "(out)", input_spikes=in_spikes, output_spikes=0,
                neurons=int(np.prod(out_shape)), sops=sops,
                membrane=output if self.record_membranes else None))
            return output

        if self.early_firing:
            out_times, membrane = self._integrate_and_fire_early_events(
                spec, stream, out_shape, plan)
        else:
            membrane = self._integrate_events(spec, stream, plan)
            out_times = self.kernel.spike_time(
                np.maximum(membrane, 0.0), theta0=cfg.theta0,
                window=cfg.window)
        out_stream = EventStream.from_dense(out_times, cfg.window)
        ctx.record(LayerTrace(
            name=name, input_spikes=in_spikes,
            output_spikes=out_stream.num_spikes,
            neurons=int(np.prod(out_shape)), sops=sops,
            membrane=membrane.copy() if self.record_membranes else None))
        return out_stream

    def weight_layer(self, spec: LayerSpec, train, ctx: ExecutionContext):
        if self.backend == "event":
            return self._weight_layer_events(spec, train, ctx)
        cfg = self.config
        out_shape = executor.output_shape(spec, train.shape)
        in_spikes = train.num_spikes
        sops = executor.layer_sops(spec, in_spikes)
        name = f"{spec.kind}{ctx.weight_index}"

        if spec.is_output:
            membrane = self._decode_integrate(spec, train)
            output = membrane * self.snn.output_scale
            ctx.record(LayerTrace(
                name=name + "(out)", input_spikes=in_spikes, output_spikes=0,
                neurons=int(np.prod(out_shape)), sops=sops,
                membrane=output if self.record_membranes else None))
            return output

        if self.early_firing:
            out_train, membrane = self._integrate_and_fire_early(
                spec, train, out_shape)
        elif spec.kind == "conv":
            times, membrane = executor.integrate_fire_conv(
                spec, train, self.kernel, cfg.theta0, self.record_membranes)
            out_train = SpikeTrain(times, cfg.window)
        else:
            membrane = self._decode_integrate(spec, train)
            out_train = encode_values(membrane, self.kernel, cfg.window,
                                      cfg.theta0)
        ctx.record(LayerTrace(
            name=name, input_spikes=in_spikes,
            output_spikes=out_train.num_spikes,
            neurons=int(np.prod(out_shape)), sops=sops,
            membrane=membrane.copy() if self.record_membranes else None))
        return out_train

    def finalize(self, output: np.ndarray,
                 ctx: ExecutionContext) -> SimulationResult:
        return SimulationResult(output=output, traces=ctx.traces,
                                window=self.config.window,
                                num_stages=self.snn.num_pipeline_stages,
                                early_firing=self.early_firing)

    def merge(self, results: List[SimulationResult]) -> SimulationResult:
        return SimulationResult(
            output=np.concatenate([r.output for r in results], axis=0),
            traces=merge_traces([r.traces for r in results]),
            window=results[0].window, num_stages=results[0].num_stages,
            early_firing=results[0].early_firing)

    # ------------------------------------------------------------------
    def run(self, images: np.ndarray) -> SimulationResult:
        """Simulate the full pipeline on a batch of images."""
        return executor.run_pipeline(self, images)

    def accuracy(self, images: np.ndarray, labels: np.ndarray,
                 batch_size: int = 64) -> float:
        return PipelineRunner(self, max_batch=batch_size).accuracy(
            images, labels)


@register_scheme("ttfs-closed-form")
def _make_closed_form(snn: ConvertedSNN, **options) -> EventDrivenTTFSNetwork:
    return EventDrivenTTFSNetwork(snn, **options)


@register_scheme("ttfs-early")
def _make_early(snn: ConvertedSNN, **options) -> EventDrivenTTFSNetwork:
    return EventDrivenTTFSNetwork(snn, early_firing=True, **options)


register_scheme_alias("ttfs", "ttfs-closed-form")
# integrating step by step and reading after the window is Eq. 4's
# closed form; configs and bundles that name the stepped walk load as it
register_scheme_alias("ttfs-timestep", "ttfs-closed-form")
