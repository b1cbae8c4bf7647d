"""Integrate-and-fire neuron pool: the per-timestep fire-phase oracle.

The engine fires at the closed-form spike time (Eq. 14,
:meth:`Base2Kernel.spike_time`).  This pool is the hardware's threshold
sweep it replaced, kept as the reference the tests hold Eq. 14 to.  It
implements the two phases of a T2FSNN/CAT neuron (paper Sec. 2.2, Fig. 1):

* **integration (decoding) phase** — incoming spikes are decoded through
  the dendrite kernel and accumulated into the membrane potential
  (Eqs. 3, 4, 7);
* **fire (encoding) phase** — the membrane is compared against the
  exponentially decaying threshold ``theta(t) = theta0 * kernel(t)``
  (Eq. 6) and the neuron emits its single spike at the first crossing
  (Eq. 2), then resets so it cannot fire again.

The pool is vectorised over an arbitrary tensor of neurons.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

from repro.cat.kernels import NO_SPIKE
from repro.engine.executor import FIRE_TOL
from repro.snn.spikes import SpikeTrain


def fire_times_from_membrane(membrane: np.ndarray, kernel, window: int,
                             theta0: float = 1.0) -> np.ndarray:
    """First threshold crossing per neuron, without a per-``t`` loop.

    Bit-identical to sweeping ``t = 0..window`` and firing where
    ``membrane >= theta0 * kernel(t) - FIRE_TOL``: the threshold decays
    monotonically, so the crossing predicate is monotone in ``t`` and the
    first crossing is a binary search over the threshold grid.
    """
    thresholds = theta0 * kernel.value(np.arange(window + 1))
    # a[t] = -(theta(t) - tol) is ascending; the first t with
    # a[t] >= -membrane is exactly the first t with membrane >= theta(t) - tol.
    ascending = -(thresholds - FIRE_TOL)
    t = np.searchsorted(ascending, -np.asarray(membrane, dtype=np.float64),
                        side="left")
    return np.where(t > window, NO_SPIKE, t).astype(np.int64)


@dataclass
class IFNeuronPool:
    """A tensor of IF neurons sharing one threshold kernel."""

    shape: Tuple[int, ...]
    kernel: object  # Base2Kernel or ExpKernel
    theta0: float = 1.0
    membrane: np.ndarray = field(init=False)
    fire_times: np.ndarray = field(init=False)

    def __post_init__(self):
        self.membrane = np.zeros(self.shape, dtype=np.float64)
        self.fire_times = np.full(self.shape, NO_SPIKE, dtype=np.int64)

    # ------------------------------------------------------------------
    # Integration phase
    # ------------------------------------------------------------------
    def integrate(self, psp: np.ndarray) -> None:
        """Accumulate a post-synaptic-potential increment (Eq. 3)."""
        self.membrane += psp

    def add_bias(self, bias: np.ndarray) -> None:
        """Biases integrate once per window (the +b term of Eq. 4)."""
        self.membrane += bias

    # ------------------------------------------------------------------
    # Fire phase
    # ------------------------------------------------------------------
    def fire_step(self, t: int) -> np.ndarray:
        """One timestep of the fire phase; returns the new-spike mask.

        A neuron fires when its membrane reaches the current threshold and
        it has not fired before; fired membranes are reset to zero exactly
        like the Vmem buffer of the hardware spike encoder (Sec. 4.1).
        """
        threshold = self.theta0 * float(self.kernel.value(t))
        fire = ((self.membrane >= threshold - FIRE_TOL)
                & (self.fire_times == NO_SPIKE))
        self.fire_times[fire] = t
        self.membrane[fire] = 0.0
        return fire

    def run_fire_phase(self, window: int) -> SpikeTrain:
        """Sweep the threshold over the whole window (Eq. 2 + Eq. 6).

        Vectorised through the engine's cumulative formulation: the
        threshold decays monotonically, so the first crossing needs no
        per-timestep Python loop.  Equivalent, spike for spike, to
        calling :meth:`fire_step` for ``t = 0..window``.
        """
        fresh = self.fire_times == NO_SPIKE
        swept = fire_times_from_membrane(self.membrane, self.kernel, window,
                                         self.theta0)
        fired = fresh & (swept != NO_SPIKE)
        self.fire_times[fired] = swept[fired]
        self.membrane[fired] = 0.0
        return SpikeTrain(times=self.fire_times.copy(), window=window)

    def fire_closed_form(self, window: int) -> SpikeTrain:
        """Closed-form spike times (Eq. 8 / Eq. 14): must match the sweep."""
        times = self.kernel.spike_time(
            np.maximum(self.membrane, 0.0), theta0=self.theta0, window=window
        )
        return SpikeTrain(times=times, window=window)

    def reset(self) -> None:
        self.membrane[:] = 0.0
        self.fire_times[:] = NO_SPIKE
