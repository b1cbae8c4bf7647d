"""TTFS coding kernels (paper Eqs. 5 and 9).

Two kernel families are implemented:

* :class:`ExpKernel` — the T2FSNN baseline kernel (Eq. 5),
  ``eps(t) = exp(-(t - t_d) / tau)`` with *per-layer* delay ``t_d`` and
  time constant ``tau``.  The post-conversion optimisation of [4] tunes
  these per layer, which is what forces reconfigurable encode/decode
  hardware.
* :class:`Base2Kernel` — the paper's kernel (Eq. 9),
  ``kappa(t) = 2**(-t / tau)`` with no delay and a *single global* tau.
  With ``log2(tau)`` an integer power of two (Eq. 18) spike times live on
  a grid that satisfies the shift-compatibility condition (Eq. 16), which
  is what enables the LUT+shift PE.

Both kernels share one interface: ``value(dt)`` evaluates the kernel at a
relative time, ``spike_time(x, theta0, window)`` returns the integer fire
step of a membrane value under the decaying threshold
``theta(t) = theta0 * kernel(t)``, and ``decode(dt, theta0)`` inverts a
spike time back to the represented value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# The no-fire sentinel lives with the event-stream representation (the
# package's bottom layer); re-exported here for every kernel consumer.
from ..events import NO_SPIKE
from ..threads import map_images

#: Log-domain snap tolerance: values within 2**(TOL/tau) of a grid point
#: count as on-grid.  Sized for float32 inputs (eps ~1.2e-7 perturbs the
#: log2 position by ~tau * 2e-7); distortion for true off-grid values is
#: negligible (<1e-5 relative).
GRID_SNAP_TOL = 1e-5


@dataclass(frozen=True)
class Base2Kernel:
    """Paper kernel (Eq. 9): ``kappa(dt) = base**(-dt / tau)``.

    The paper's kernel uses ``base=2`` (the default) so spike times live
    in the log2 domain; ``base=e`` reproduces the "This work, base e"
    column of Table 2, which trains CAT with the T2FSNN-shaped kernel.
    One kernel instance is shared by *all* layers (no per-layer t_d/tau).
    """

    tau: float = 4.0
    base: float = 2.0

    def value(self, dt) -> np.ndarray:
        return np.power(self.base, -np.asarray(dt, dtype=np.float64) / self.tau)

    def threshold(self, dt, theta0: float = 1.0) -> np.ndarray:
        """Dynamic threshold theta(dt) = theta0 * kappa(dt) (Eq. 6)."""
        return theta0 * self.value(dt)

    def spike_time(self, x, theta0: float = 1.0, window: int | None = None):
        """First integer step ``dt >= 0`` with ``x >= theta0 * kappa(dt)``.

        Vectorised, over image slices on every allowed core; returns
        ``NO_SPIKE`` where the value never crosses the threshold inside
        ``window`` steps (i.e. x < theta0 * kappa(window)).
        """
        x = np.asarray(x)

        def fire(values):
            return self.fire(np.array(values, dtype=np.float64), theta0,
                             window)

        return map_images(fire, x, x.shape, np.int64)

    def fire(self, membrane: np.ndarray, theta0: float = 1.0,
             window: int | None = None) -> np.ndarray:
        """:meth:`spike_time` of a float64 array, computed in place.

        ``membrane`` is scratch space (overwritten when contiguous).  A
        positive value takes the closed form
        ``max(ceil(tau * log(theta0 / x) / log(base) - tol), 0)`` one
        float operation at a time, in that order, so its time is bitwise
        the out-of-place formula's.  The rest never fire:
        clamped to 0 first, each becomes +inf or NaN, and with a
        ``window`` one final lookup maps those and every later time to
        ``NO_SPIKE``.  That path takes no boolean mask: a masked copy's
        random branches cost more than all of the arithmetic.
        """
        buf = membrane.reshape(-1)   # 1-d: a 0-d input still takes out=
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            np.maximum(buf, 0.0, out=buf)
            np.divide(theta0, buf, out=buf)
            np.log(buf, out=buf)
            np.multiply(self.tau, buf, out=buf)
            np.divide(buf, math.log(self.base), out=buf)
            # on-grid values (incl. float32-rounded) fire on time
            np.subtract(buf, GRID_SNAP_TOL, out=buf)
            np.ceil(buf, out=buf)
            np.maximum(buf, 0.0, out=buf)
        if window is None:
            np.copyto(buf, NO_SPIKE, where=~np.isfinite(buf))
            return buf.astype(np.int64).reshape(membrane.shape)
        # NaN and +inf clip to window + 1 too, which reads NO_SPIKE
        late = max(window + 1, 0)
        np.fmin(buf, late, out=buf)
        lookup = np.append(np.arange(late), NO_SPIKE)
        return lookup.take(buf.astype(np.int64)).reshape(membrane.shape)

    def decode(self, dt, theta0: float = 1.0) -> np.ndarray:
        """Value represented by a spike at relative time ``dt`` (Eq. 7
        integrand), over image slices on every allowed core.

        Integer times gather from :meth:`decode_table`, the processor's
        LUT; its entries are the same float operations on the same
        times, so the gather is bitwise the formula.
        """
        dt = np.asarray(dt)
        if dt.dtype.kind in "iu" and (not dt.size or dt.min() >= NO_SPIKE):
            table = self.decode_table(int(dt.max()) if dt.size else 0,
                                      theta0)
            return map_images(table.take, dt, dt.shape, np.float64)

        def value(times):
            vals = theta0 * self.value(np.maximum(times, 0))
            return np.where(times == NO_SPIKE, 0.0, vals)

        return map_images(value, dt, dt.shape, np.float64)

    def decode_table(self, top: int, theta0: float = 1.0) -> np.ndarray:
        """Decoded values of the spike times ``0..top``, then ``0.0``:
        indexed by a spike time, ``NO_SPIKE`` (-1) reads the zero."""
        values = theta0 * self.value(np.arange(max(top, -1) + 1))
        return np.append(values, 0.0)

    def grid(self, window: int, theta0: float = 1.0) -> np.ndarray:
        """All representable values within a window, descending (dt = 0..window)."""
        return theta0 * self.value(np.arange(window + 1))

    @property
    def is_shift_compatible(self) -> bool:
        """True for base 2 with log2(tau) integer (Eq. 18): LUT+shift PEs."""
        if self.tau <= 0 or self.base != 2.0:
            return False
        log_tau = math.log2(self.tau)
        return abs(log_tau - round(log_tau)) < 1e-9


@dataclass(frozen=True)
class ExpKernel:
    """T2FSNN baseline kernel (Eq. 5): ``eps(dt) = exp(-(dt - t_d) / tau)``.

    ``t_d`` delays the decay so early-arriving spikes in the next layer's
    integration window decode to values above 1; the baseline tunes
    ``(t_d, tau)`` per layer post-conversion.
    """

    tau: float = 20.0
    t_d: float = 0.0

    def value(self, dt) -> np.ndarray:
        return np.exp(-(np.asarray(dt, dtype=np.float64) - self.t_d) / self.tau)

    def threshold(self, dt, theta0: float = 1.0) -> np.ndarray:
        return theta0 * self.value(dt)

    def spike_time(self, x, theta0: float = 1.0, window: int | None = None):
        """First integer step with ``x >= theta0 * eps(dt)`` (cf. Eq. 8)."""
        x = np.asarray(x, dtype=np.float64)
        positive = x > 0
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            raw = self.tau * np.log(theta0 / np.where(positive, x, 1.0)) + self.t_d
        dt = np.ceil(raw - GRID_SNAP_TOL)
        dt = np.maximum(dt, 0.0)
        finite = np.isfinite(dt)
        out = np.where(finite, dt, 0).astype(np.int64)
        no_fire = ~positive | ~finite
        if window is not None:
            no_fire |= out > window
        return np.where(no_fire, NO_SPIKE, out)

    def decode(self, dt, theta0: float = 1.0) -> np.ndarray:
        dt = np.asarray(dt)
        vals = theta0 * self.value(np.maximum(dt, 0))
        return np.where(dt == NO_SPIKE, 0.0, vals)

    def grid(self, window: int, theta0: float = 1.0) -> np.ndarray:
        return theta0 * self.value(np.arange(window + 1))

    @property
    def is_shift_compatible(self) -> bool:
        return False  # base-e spike times never satisfy Eq. 16


def equivalent_base2_tau(exp_tau: float) -> float:
    """tau' such that 2**(-t/tau') == exp(-t/tau) (exponential identity).

    The paper notes kappa is "almost identical" to eps when the base is
    converted: exp(-t/tau) = 2**(-t * log2(e) / tau), so tau' = tau / log2(e).
    """
    return exp_tau / math.log2(math.e)
