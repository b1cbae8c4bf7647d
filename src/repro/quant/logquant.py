"""Logarithmic weight quantization with arbitrary log base (Eqs. 15-16).

Follows Vogel et al. [14], as adopted by the paper: weights are quantised
to ``w_q = sign(w) * a_w**w_hat`` where the log-base ``a_w`` satisfies the
shift-compatibility condition (Eq. 16)::

    log2(a_w) = -2**(-z_w),  z_w an integer >= 0

i.e. ``a_w in {2, 2**(-1/2), 2**(-1/4), ...}`` (the sign of the exponent
is a representation choice; what matters is that |log2 a_w| is a
reciprocal power of two, so every quantised weight's log2-magnitude lives
on a grid of step ``2**(-z_w)`` and the product with a TTFS-coded input
splits into integer + fractional parts for the LUT+shift PE of Eq. 17).

Encoding with ``bits`` total: 1 sign bit and ``bits-1`` magnitude bits.
One magnitude code is reserved for exact zero, leaving
``L = 2**(bits-1) - 1`` geometric levels below the per-tensor full-scale
range ``FSR = max|w|`` (Eq. 15).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .. import threads


@dataclass(frozen=True)
class LogQuantConfig:
    """Configuration of the logarithmic weight quantiser.

    Parameters
    ----------
    bits:
        Total bit width (sign + magnitude).  The paper selects 5.
    z_w:
        Log-base exponent: the log2-domain step is ``2**(-z_w)``.
        z_w=0 -> a_w = 2 (plain power-of-two), z_w=1 -> a_w = 2**(-1/2)
        (the paper's choice), z_w=2 -> a_w = 2**(-1/4).
    """

    bits: int = 5
    z_w: int = 1
    align_fsr: bool = False

    def __post_init__(self):
        if self.bits < 2:
            raise ValueError("need at least a sign and one magnitude bit")
        if self.z_w < 0:
            raise ValueError("z_w must be a non-negative integer (Eq. 16)")

    @property
    def step(self) -> float:
        """Quantisation step in the log2 domain: |log2 a_w| = 2**-z_w."""
        return 2.0 ** (-self.z_w)

    @property
    def log_base(self) -> float:
        """The magnitude ratio between adjacent levels, a_w' = 2**-step."""
        return 2.0 ** (-self.step)

    @property
    def num_levels(self) -> int:
        """Non-zero magnitude levels (one code reserved for zero)."""
        return 2 ** (self.bits - 1) - 1

    @property
    def dynamic_range_log2(self) -> float:
        """log2 span covered by the levels: step * (L - 1)."""
        return self.step * (self.num_levels - 1)

    def describe(self) -> str:
        if self.z_w == 0:
            base = "2"
        else:
            base = f"2^-1/{2 ** self.z_w}"
        return f"a_w={base}, {self.bits}b"


@dataclass
class QuantizedTensor:
    """A logarithmically quantised weight tensor.

    ``codes`` holds the integer level index ``k`` (0 = FSR level,
    larger = smaller magnitude, -1 = exact zero); the represented value
    is ``sign * fsr * 2**(-step * k)``.
    """

    codes: np.ndarray  # int level indices, -1 for zero
    signs: np.ndarray  # +-1
    fsr: float  # full-scale range, max |w| of the tensor
    config: LogQuantConfig

    @property
    def values(self) -> np.ndarray:
        """Dequantised float weights."""
        mags = np.where(
            self.codes < 0,
            0.0,
            self.fsr * np.power(2.0, -self.config.step * np.maximum(self.codes, 0)),
        )
        return (self.signs * mags).astype(np.float32)

    @property
    def log2_magnitudes(self) -> np.ndarray:
        """log2|w_q| for non-zero codes (the PE operates on these)."""
        return math.log2(self.fsr) - self.config.step * np.maximum(self.codes, 0)


def quantize_tensor(w: np.ndarray, config: LogQuantConfig) -> QuantizedTensor:
    """Quantise a weight tensor per Eq. 15 (per-tensor FSR = max|w|).

    The FSR is one reduction over the whole tensor.  Given it, every
    code is elementwise, so the codes are computed in float64 over
    slices of the leading (C_out) axis on every allowed core
    (:func:`repro.threads.map_images`), bitwise equal to one pass over
    the whole tensor.
    """
    w = np.asarray(w)
    if w.dtype not in (np.float32, np.float64):
        w = w.astype(np.float64)
    fsr = float(np.abs(w).max())
    if config.align_fsr and fsr > 0.0:
        # Snap the full-scale range onto the log2 grid (rounding up so no
        # weight exceeds it).  With an aligned FSR every quantised
        # magnitude's log2 lands exactly on the 2**-z_w grid, making the
        # LUT+shift PE datapath exact up to LUT precision [14].
        fsr = 2.0 ** (math.ceil(math.log2(fsr) / config.step) * config.step)
    if fsr == 0.0:
        return QuantizedTensor(
            codes=np.full(w.shape, -1, dtype=np.int32),
            signs=np.ones(w.shape, dtype=np.int8),
            fsr=0.0,
            config=config,
        )

    def level_codes(part: np.ndarray) -> np.ndarray:
        mags = np.abs(np.asarray(part, dtype=np.float64))
        with np.errstate(divide="ignore"):
            # continuous level position in the log2 grid relative to FSR (>= 0)
            raw = (math.log2(fsr) - np.log2(np.where(mags > 0, mags, fsr))) / config.step
        k = np.round(raw).astype(np.int64)
        # Values more than half a step below the last level flush to zero.
        zero = (mags == 0) | (raw > config.num_levels - 0.5)
        k = np.clip(k, 0, config.num_levels - 1)
        return np.where(zero, -1, k).astype(np.int32)

    codes = threads.map_images(level_codes, w, w.shape, np.int32)
    signs = np.where(w < 0, np.int8(-1), np.int8(1))
    return QuantizedTensor(codes=codes, signs=signs, fsr=fsr, config=config)


def quantize_dequantize(w: np.ndarray, config: LogQuantConfig) -> np.ndarray:
    """Round-trip helper: the float weights the quantised PE represents."""
    return quantize_tensor(w, config).values


def quantization_error(w: np.ndarray, config: LogQuantConfig) -> float:
    """Mean squared dequantisation error (used by the Fig. 4 sweep)."""
    return float(np.mean((quantize_dequantize(w, config) - np.asarray(w)) ** 2))
