"""Rate-coded SNN execution — the comparison TTFS coding is built against.

The paper's efficiency argument (Sec. 1-2) rests on TTFS emitting *at
most one spike per neuron* where classic rate-coded conversions [5] need
spike counts proportional to activation x window.  This module runs the
same converted network under rate coding so the spike-count and
accuracy-vs-latency trade-offs can be measured side by side
(``bench_rate_vs_ttfs``).

Semantics (standard IF rate conversion, reset-by-subtraction [5]):

* the input feature map is presented as a constant current every
  timestep (equivalently, Poisson spikes in expectation);
* each IF neuron integrates ``W x + b`` per step and emits a spike
  whenever its membrane crosses ``theta0``, subtracting the threshold;
* a neuron's spike *count* over T steps approximates its ReLU activation
  scaled by T; the readout layer accumulates membrane without firing.

Execution routes through the shared :mod:`repro.engine` walk.  The state
carried between layers is the whole per-timestep signal (time axis
leading), so each layer's affine map runs *once* over all T steps folded
into the batch dimension — the timestep-by-timestep threshold dynamics,
which are genuinely sequential, are the only remaining per-step loop.
The layer-by-layer ordering is equivalent to the step-by-step one
because a step's signal flows through the whole network within that
step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..cat.convert import ConvertedSNN, LayerSpec
from ..engine import executor
from ..engine.executor import (
    CodingScheme,
    ExecutionContext,
    LayerTrace,
    validate_backend,
)
from ..engine.plan import PlanSet
from ..engine.registry import register_scheme
from ..engine.runner import PipelineRunner
from ..events import EventStream


@dataclass
class RateSimulationResult:
    """Spike statistics and readout of a rate-coded run."""

    output: np.ndarray
    timesteps: int
    spikes_per_layer: List[int] = field(default_factory=list)
    neurons_per_layer: List[int] = field(default_factory=list)

    @property
    def total_spikes(self) -> int:
        return sum(self.spikes_per_layer)

    @property
    def mean_spikes_per_neuron(self) -> float:
        neurons = sum(self.neurons_per_layer)
        return self.total_spikes / max(neurons, 1)

    def predictions(self) -> np.ndarray:
        return self.output.argmax(axis=1)


@dataclass
class _RateSignal:
    """Inter-layer state: the layer input signal for every timestep.

    ``per_step`` is False while the signal is identical at every step
    (true until the first firing layer — the input current is constant),
    letting the affine map and pooling run once instead of T times.
    When True, ``data`` has the time axis leading: ``(T, N, ...)``.
    """

    data: np.ndarray
    per_step: bool = False


class RateCodedNetwork(CodingScheme):
    """Run a :class:`ConvertedSNN`'s layers under rate coding.

    Reuses the converted (BN-fused) weights; the TTFS coding config is
    ignored except for ``theta0``.  ``timesteps`` plays the role TTFS's
    window plays: more steps = finer rate resolution = higher accuracy,
    but spike counts scale with it.
    """

    scheme_name = "rate"

    def __init__(self, snn: ConvertedSNN, timesteps: int = 32,
                 backend: str = "dense", plans: Optional[PlanSet] = None):
        if timesteps < 1:
            raise ValueError("need at least one timestep")
        self.snn = snn
        self.timesteps = timesteps
        self.theta0 = snn.config.theta0
        self.backend = validate_backend(backend)
        self.plans = plans if plans is not None else PlanSet()

    # ------------------------------------------------------------------
    @staticmethod
    def _map_steps(op, data: np.ndarray) -> np.ndarray:
        """Apply a batch op to per-step data by folding T into the batch."""
        t, n = data.shape[:2]
        out = op(data.reshape((t * n,) + data.shape[2:]))
        return out.reshape((t, n) + out.shape[1:])

    def _fold(self, spec: LayerSpec, signal: _RateSignal,
              ctx: ExecutionContext) -> np.ndarray:
        """Per-step pre-activations ``z`` with the time axis leading."""
        if not signal.per_step:
            z = executor.affine(spec, signal.data)
            return np.broadcast_to(z, (self.timesteps,) + z.shape)
        if self.backend == "event":
            return self._fold_events(spec, signal, ctx)
        return self._map_steps(lambda x: executor.affine(spec, x),
                               signal.data)

    def _fold_events(self, spec: LayerSpec, signal: _RateSignal,
                     ctx: ExecutionContext) -> np.ndarray:
        """Event-backend fold: scatter only the spikes that occurred.

        A per-step firing signal holds ``theta0`` at spiking neurons and
        zero everywhere else, so the dense per-step affine map reduces
        to one batched scatter over the spike events — the time axis
        folds into the batch exactly as in :meth:`_map_steps`, but the
        cost scales with the spike count, not ``T x neurons``.
        """
        data = signal.data
        stream = EventStream.from_masks(data != 0).fold_time()
        plan = self.plans.plan_for(spec, ctx.weight_index, stream.shape)
        z = executor.integrate_events(spec, stream,
                                      data.reshape(-1)[stream.indices],
                                      plan)
        z += executor.bias_shaped(spec)
        return z.reshape(data.shape[:2] + z.shape[1:])

    # ------------------------------------------------------------------
    # CodingScheme hooks
    # ------------------------------------------------------------------
    def encode_input(self, images: np.ndarray,
                     ctx: ExecutionContext) -> _RateSignal:
        # constant input current each step (rate ~ pixel value)
        return _RateSignal(np.asarray(images, dtype=np.float64),
                           per_step=False)

    def weight_layer(self, spec: LayerSpec, signal: _RateSignal,
                     ctx: ExecutionContext):
        theta = self.theta0
        z = self._fold(spec, signal, ctx)
        if spec.is_output:
            # readout accumulates membrane without firing
            return z.sum(axis=0)

        membrane = np.zeros(z.shape[1:], dtype=np.float64)
        fires = np.empty(z.shape, dtype=np.float64)
        spikes = 0
        for t in range(self.timesteps):
            membrane += z[t]
            fire = membrane >= theta
            membrane -= theta * fire  # reset by subtraction
            spikes += int(fire.sum())
            fires[t] = fire
        ctx.record(LayerTrace(
            name=f"{spec.kind}{ctx.weight_index}", input_spikes=0,
            output_spikes=spikes, neurons=int(membrane.size), sops=0))
        return _RateSignal(fires * theta, per_step=True)

    def pool(self, spec: LayerSpec, signal: _RateSignal,
             ctx: ExecutionContext) -> _RateSignal:
        if not signal.per_step:
            return _RateSignal(executor.pool_values(spec, signal.data),
                               per_step=False)
        pooled = self._map_steps(lambda x: executor.pool_values(spec, x),
                                 signal.data)
        return _RateSignal(pooled, per_step=True)

    def flatten(self, signal: _RateSignal,
                ctx: ExecutionContext) -> _RateSignal:
        lead = 2 if signal.per_step else 1
        shape = signal.data.shape[:lead] + (-1,)
        return _RateSignal(signal.data.reshape(shape), signal.per_step)

    def finalize(self, readout: np.ndarray,
                 ctx: ExecutionContext) -> RateSimulationResult:
        output = (readout / self.timesteps) * self.snn.output_scale
        return RateSimulationResult(
            output=output,
            timesteps=self.timesteps,
            spikes_per_layer=[t.output_spikes for t in ctx.traces],
            neurons_per_layer=[t.neurons for t in ctx.traces],
        )

    def merge(self, results: List[RateSimulationResult]
              ) -> RateSimulationResult:
        return RateSimulationResult(
            output=np.concatenate([r.output for r in results], axis=0),
            timesteps=results[0].timesteps,
            spikes_per_layer=[sum(col) for col in
                              zip(*(r.spikes_per_layer for r in results))],
            neurons_per_layer=[sum(col) for col in
                               zip(*(r.neurons_per_layer for r in results))],
        )

    # ------------------------------------------------------------------
    def run(self, images: np.ndarray) -> RateSimulationResult:
        """Simulate T timesteps of the whole network."""
        return executor.run_pipeline(self, images)

    def accuracy(self, images: np.ndarray, labels: np.ndarray,
                 batch_size: int = 64) -> float:
        return PipelineRunner(self, max_batch=batch_size).accuracy(
            images, labels)


@register_scheme("rate")
def _make_rate(snn: ConvertedSNN, **options) -> RateCodedNetwork:
    return RateCodedNetwork(snn, **options)
