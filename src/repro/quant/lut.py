"""Bit-exact model of the log-domain PE datapath (Eq. 17).

With a TTFS-coded input (log2-magnitude ``-t/tau``) and a log-quantised
weight (log2-magnitude on a ``2**-z_w`` grid), the product's log2 value::

    p_hat = log2|x| + log2|w|

lives on a fractional grid of step ``2**-f`` with
``f = max(log2(tau), z_w)`` fractional bits.  Eq. 17 evaluates::

    p = sign(w) * ( LUT[Frac(p_hat)] << Int(p_hat) )

where the LUT holds ``2**Frac`` for each of the ``2**f`` fractional
codes, in fixed point.  This module implements that datapath with integer
arithmetic only (shift + LUT + add), mirroring the hardware PE, and is
validated against float multiplication in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass
class FracLUT:
    """The fractional-power lookup table of the log PE.

    ``frac_bits`` fractional log2 bits -> ``2**frac_bits`` entries;
    entry k holds ``round(2**(k / 2**frac_bits) * 2**precision_bits)``.
    The paper's hardware point (tau=4 -> 2 bits, z_w=1 -> 1 bit) needs a
    4-entry LUT.
    """

    frac_bits: int = 2
    precision_bits: int = 12
    table: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.frac_bits < 0:
            raise ValueError("frac_bits must be >= 0")
        n = 1 << self.frac_bits
        exps = np.arange(n) / n
        self.table = np.round(np.power(2.0, exps) * (1 << self.precision_bits)
                              ).astype(np.int64)

    @property
    def num_entries(self) -> int:
        return len(self.table)

    def lookup(self, frac_code: np.ndarray) -> np.ndarray:
        """LUT(k): fixed-point 2**(k/2**f), vectorised."""
        return self.table[np.asarray(frac_code, dtype=np.int64)]


@dataclass
class LogDomainPE:
    """Integer-only multiply of a TTFS input by a log-quantised weight.

    Both operands are given as log2 values scaled by ``2**frac_bits``
    (i.e. integers on the fractional grid).  The product's fixed-point
    value is reconstructed by the LUT + shift of Eq. 17, relative to a
    ``precision_bits`` accumulator scale.
    """

    frac_bits: int = 2
    precision_bits: int = 12
    lut: FracLUT = field(init=False)

    def __post_init__(self):
        self.lut = FracLUT(frac_bits=self.frac_bits,
                           precision_bits=self.precision_bits)

    # ------------------------------------------------------------------
    def encode_log2(self, log2_value: np.ndarray) -> np.ndarray:
        """Quantise a log2 magnitude onto the fractional integer grid."""
        return np.round(np.asarray(log2_value) * (1 << self.frac_bits)
                        ).astype(np.int64)

    def multiply(self, x_log_code: np.ndarray, w_log_code: np.ndarray,
                 w_sign: np.ndarray) -> np.ndarray:
        """Eq. 17: p = sign * (LUT(Frac(p_hat)) << Int(p_hat)).

        ``x_log_code`` / ``w_log_code`` are log2 values pre-scaled by
        ``2**frac_bits`` (integers).  Returns fixed-point products at
        scale ``2**precision_bits``.  Negative integer parts become right
        shifts (the hardware keeps an accumulator wide enough that the
        common case is a left shift of the LUT word).
        """
        p_hat = np.asarray(x_log_code, dtype=np.int64) + np.asarray(
            w_log_code, dtype=np.int64
        )
        int_part = p_hat >> self.frac_bits  # floor division (two's complement)
        frac_code = p_hat & ((1 << self.frac_bits) - 1)
        mantissa = self.lut.lookup(frac_code)
        shifted = np.where(
            int_part >= 0,
            mantissa << np.minimum(int_part, 62 - self.precision_bits),
            mantissa >> np.minimum(-int_part, 63),
        )
        return np.asarray(w_sign, dtype=np.int64) * shifted

    def to_float(self, fixed: np.ndarray) -> np.ndarray:
        """Convert accumulator fixed-point back to float."""
        return np.asarray(fixed, dtype=np.float64) / (1 << self.precision_bits)


def required_frac_bits(tau: float, z_w: int) -> int:
    """Fractional log2 bits needed for (tau, z_w) per Eqs. 16+18.

    Spike times contribute ``log2(tau)`` fractional bits (t/tau with tau a
    power of two); weights contribute ``z_w``.  The PE needs the max.
    """
    log_tau = math.log2(tau)
    if abs(log_tau - round(log_tau)) > 1e-9:
        raise ValueError(
            f"tau={tau} violates Eq. 18 (log2 tau must be an integer)"
        )
    return max(int(round(log_tau)), int(z_w))
