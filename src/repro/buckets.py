"""Step functions of a float, read from a table indexed by its top bits.

A positive float's bits ascend with its value, so the floats whose bits
after the sign start with the same ``key_bits`` bits form a *bucket*,
``[lo_b, lo_{b+1})``, and the buckets ascend with their key.  A
function of the magnitude that changes only at a few ascending
``bounds`` (a quantiser's level boundaries, a neuron's fire thresholds)
has one value on every bucket that no bound comes near.  Such a bucket
reads its value from :func:`step_table`; the others hold
:data:`FALLBACK`, and their elements take the float formula the table
stands in for.  Both users, weight log-quantisation
(:mod:`repro.quant.logquant`) and closed-form spike times
(:meth:`repro.cat.kernels.Base2Kernel.fire`), make the same argument:
their float64 formula places a value within far less than
:data:`BOUNDARY_MARGIN` (relative) of where exact arithmetic puts it,
so a bucket that keeps that margin from every bound gets the exact
value from both the formula and the table.
"""

from __future__ import annotations

import numpy as np

#: Relative distance a bucket keeps from every bound before it takes
#: its value from the table.  The float64 formulas this stands in for
#: misplace a value by a few ulps of their logarithm (below 2**-40
#: relative), far inside it.
BOUNDARY_MARGIN = 2.0 ** -30

#: Table entry: the bucket's elements take the formula.
FALLBACK = -2


def magnitude_keys(x: np.ndarray, key_bits: int) -> np.ndarray:
    """The bucket of each ``|x|``: its top ``key_bits`` bits after the
    sign, as an index array (float32 or float64 ``x``, C-contiguous)."""
    uint = np.dtype(f"u{x.dtype.itemsize}")
    keys = x.view(uint) << uint.type(1)
    keys >>= uint.type(8 * uint.itemsize - key_bits)
    return keys


def signed_keys(x: np.ndarray, key_bits: int) -> np.ndarray:
    """The bucket of each float64 ``x`` with its sign: the top
    ``key_bits`` bits, sign first, as int64 (``x`` C-contiguous).  The
    positive floats read the first half of a :func:`step_table` of
    ``key_bits - 1`` bits, the negative ones the second."""
    keys = np.right_shift(x.view(np.uint64), np.uint64(64 - key_bits))
    return keys.view(np.int64)


def step_table(dtype, key_bits: int, bounds, values) -> np.ndarray:
    """A step function of the magnitude over every bucket of ``dtype``.

    ``bounds`` ascend (finite and positive); ``values`` has one more
    entry: ``values[0]`` below ``bounds[0]``, ``values[i]`` from
    ``bounds[i - 1]`` to ``bounds[i]``, ``values[-1]`` above the last.
    Entry ``b`` of the ``2**key_bits`` (dtype of ``values``) is the
    value of bucket ``b`` (:func:`magnitude_keys`), or :data:`FALLBACK`
    for the buckets a bound reaches within :data:`BOUNDARY_MARGIN`,
    zero and the subnormals, and inf and nan.  The value exactly at a
    bound is left to the formula.
    """
    dtype = np.dtype(dtype)
    values = np.asarray(values)
    uint = np.dtype(f"u{dtype.itemsize}")
    nexp = np.finfo(dtype).nexp
    size = 1 << key_bits
    # the first bucket of the inf/nan exponent; every edge from it on
    # reads as +inf
    top = ((1 << nexp) - 1) << (key_bits - nexp)
    keys = np.minimum(np.arange(size + 1, dtype=uint), uint.type(top))
    edges = (keys << uint.type(8 * uint.itemsize - 1 - key_bits)).view(dtype)
    edges = edges.astype(np.float64)
    lo, hi = edges[:-1], edges[1:]
    bounds = np.asarray(bounds, dtype=np.float64)
    passed = np.searchsorted(lo, bounds, "right")
    table = np.repeat(values, np.diff(passed, prepend=0, append=size))
    # the buckets each bound reaches within the margin, [first, end)
    first = np.searchsorted(hi, bounds / (1 + BOUNDARY_MARGIN), "left")
    end = np.searchsorted(lo, bounds / (1 - BOUNDARY_MARGIN), "right")
    for a, b in zip(first.tolist(), end.tolist()):
        table[a:b] = FALLBACK
    table[:1 << (key_bits - nexp)] = FALLBACK  # zero and the subnormals
    table[top:] = FALLBACK
    return table
