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


#: Leading bits of a magnitude that pick its bucket in the code table:
#: the exponent and the top mantissa bits, 8 + 8 for float32 and
#: 11 + 5 for float64, so 2**16 buckets either way.
KEY_BITS = 16

#: Relative distance a bucket keeps from every level boundary and from
#: the zero cut before it takes its code from the table.  The float64
#: formula misplaces a magnitude by a few ulps of its log2 (below
#: 2**-40 relative), far inside it.
BOUNDARY_MARGIN = 2.0 ** -30

_FALLBACK = -2  # table entry: the bucket's magnitudes take the formula


def level_codes(mags: np.ndarray, fsr: float,
                config: LogQuantConfig) -> np.ndarray:
    """Eq. 15's level codes of magnitudes ``mags`` in float64: the level
    ``k`` nearest ``log2 mags`` on the grid below ``fsr``, clipped to
    ``[0, L-1]``, and -1 for zero and for anything more than half a step
    below the last level.  :func:`quantize_tensor` reads most codes from
    a bucket table (:func:`_code_table`) and sends the rest here."""
    mags = np.asarray(mags, dtype=np.float64)
    with np.errstate(divide="ignore"):
        # continuous level position in the log2 grid relative to FSR (>= 0)
        raw = (math.log2(fsr) - np.log2(np.where(mags > 0, mags, fsr))) / config.step
    k = np.round(raw).astype(np.int64)
    # Values more than half a step below the last level flush to zero.
    zero = (mags == 0) | (raw > config.num_levels - 0.5)
    k = np.clip(k, 0, config.num_levels - 1)
    return np.where(zero, -1, k).astype(np.int32)


def _bucket_keys(x: np.ndarray) -> np.ndarray:
    """The bucket of each |x|: its top :data:`KEY_BITS` bits after the
    sign (float32 or float64 ``x``, C-contiguous)."""
    uint = np.dtype(f"u{x.dtype.itemsize}")
    keys = x.view(uint) << uint.type(1)
    keys >>= uint.type(8 * uint.itemsize - KEY_BITS)
    return keys


def _code_table(dtype, fsr: float, config: LogQuantConfig) -> np.ndarray:
    """The code of every magnitude bucket of ``dtype``, or ``_FALLBACK``.

    Bucket ``b`` holds the magnitudes whose bits after the sign start
    with ``b`` (:func:`_bucket_keys`), ``[lo_b, lo_{b+1})``; the buckets
    ascend with ``b``.  The code changes only where the magnitude
    crosses a level boundary ``fsr * 2**(-(k + 1/2) * step)``, ``k < L -
    1``, or the zero cut (``k = L - 1``): a magnitude with ``n`` of
    them below it has code ``L - n``, or -1 when ``n`` is 0.  A bucket
    more than :data:`BOUNDARY_MARGIN` away from all of them, relative,
    has that one code, and the float64 formula, whose error is far
    inside the margin, gives it too.  The other buckets fall back to
    :func:`level_codes` per element: those within the margin of a
    boundary or the cut, zero and the subnormals, and inf/nan.
    """
    dtype = np.dtype(dtype)
    uint = np.dtype(f"u{dtype.itemsize}")
    nexp = np.finfo(dtype).nexp
    size = 1 << KEY_BITS
    # the first bucket of the inf/nan exponent; every edge from it on
    # reads as +inf
    top = ((1 << nexp) - 1) << (KEY_BITS - nexp)
    keys = np.minimum(np.arange(size + 1, dtype=uint), uint.type(top))
    edges = (keys << uint.type(8 * uint.itemsize - 1 - KEY_BITS)).view(dtype)
    edges = edges.astype(np.float64)
    lo, hi = edges[:-1], edges[1:]
    # the boundaries ascending, the zero cut first, placed in the log2
    # domain as the formula places magnitudes: within 2**-40 relative
    # down to the subnormals, whose buckets all fall back
    levels = config.num_levels
    bounds = np.exp2(math.log2(fsr) - config.step
                     * (np.arange(levels)[::-1] + 0.5))
    # a bucket past n boundaries has code L - n, -1 past none
    codes = np.arange(levels, -1, -1, dtype=np.int32)
    codes[0] = -1
    passed = np.searchsorted(lo, bounds, "right")
    table = np.repeat(codes, np.diff(passed, prepend=0, append=size))
    # the buckets each boundary reaches within the margin, [first, end)
    first = np.searchsorted(hi, bounds / (1 + BOUNDARY_MARGIN), "left")
    end = np.searchsorted(lo, bounds / (1 - BOUNDARY_MARGIN), "right")
    for a, b in zip(first.tolist(), end.tolist()):
        table[a:b] = _FALLBACK
    table[:1 << (KEY_BITS - nexp)] = _FALLBACK  # zero and the subnormals
    table[top:] = _FALLBACK
    return table


def quantize_tensor(w: np.ndarray, config: LogQuantConfig) -> QuantizedTensor:
    """Quantise a weight tensor per Eq. 15 (per-tensor FSR = max|w|).

    The FSR is one reduction over the whole tensor.  Given it, every
    code is elementwise: a weight's code is read from :func:`_code_table`
    by the bucket of its magnitude, and the few weights whose bucket the
    table cannot settle take :func:`level_codes`.  The codes equal the
    formula's over the whole tensor bitwise, for float32 and float64.
    They are computed over slices of the leading (C_out) axis on every
    allowed core (:func:`repro.threads.map_images`).

    Raises ``ValueError`` when a weight is inf or nan: such a tensor has
    no FSR to quantise against.
    """
    w = np.asarray(w)
    if w.dtype not in (np.float32, np.float64):
        w = w.astype(np.float64)
    w = np.asarray(w, order="C")
    top, bottom = float(w.max()), float(w.min())
    if not (math.isfinite(top) and math.isfinite(bottom)):
        bad = int(np.count_nonzero(~np.isfinite(w)))
        raise ValueError(f"cannot log-quantise {bad} non-finite weight(s) "
                         f"of {w.size}")
    fsr = max(top, -bottom)         # max|w|
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
    table = _code_table(w.dtype, fsr, config)

    def part_codes(part: np.ndarray) -> np.ndarray:
        codes = table.take(_bucket_keys(part).reshape(-1))
        rest = np.flatnonzero(codes == _FALLBACK)
        if rest.size:
            codes[rest] = level_codes(np.abs(part.reshape(-1)[rest]), fsr,
                                      config)
        return codes.reshape(part.shape)

    codes = threads.map_images(part_codes, w, w.shape, np.int32)
    # -1 below zero, else 1 (-0.0 included)
    signs = np.less(w, 0, out=np.empty(w.shape, dtype=np.int8))
    signs *= np.int8(-2)
    signs += np.int8(1)
    return QuantizedTensor(codes=codes, signs=signs, fsr=fsr, config=config)


def quantize_dequantize(w: np.ndarray, config: LogQuantConfig) -> np.ndarray:
    """Round-trip helper: the float weights the quantised PE represents."""
    return quantize_tensor(w, config).values


def quantization_error(w: np.ndarray, config: LogQuantConfig) -> float:
    """Mean squared dequantisation error (used by the Fig. 4 sweep)."""
    return float(np.mean((quantize_dequantize(w, config) - np.asarray(w)) ** 2))
