"""Tile-level execution of a converted network on the processor.

Two levels of fidelity beyond the analytic model of
:mod:`repro.hw.processor`, both expressed as strategies over the shared
:mod:`repro.engine` layer walk:

* :class:`FixedPointInference` — runs every synaptic product through the
  log PE's integer datapath (Eq. 17: log-domain add + frac LUT + shift)
  with a fixed-point membrane accumulator, exactly as the PE array would.
  Comparing its predictions against the float value-domain evaluation
  validates the datapath precision choices (frac LUT width, accumulator
  bits).  Registered as the ``fixed-point`` coding scheme.
* :class:`TiledCycleModel` — executes a layer the way the chip does:
  output neurons in 128-wide tiles, input spikes sorted by the min-find
  unit and streamed once per tile, membranes drained through the PPU and
  the spike-encoder FSM per tile.  Cycle counts come from the *actual*
  encoder FSM run, not an estimate; the spike trains it propagates are
  the engine-produced ones (affine map, pooling and spike encoding all
  come from the shared executor primitives).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

from .. import threads
from ..cat.convert import ConvertedSNN, LayerSpec
from ..cat.kernels import NO_SPIKE, Base2Kernel
from ..engine import executor
from ..engine.executor import (
    ExecutionContext,
    SpikeTrainScheme,
    validate_backend,
)
from ..engine.plan import PlanSet, scatter_add_rows
from ..engine.registry import register_scheme, register_scheme_alias
from ..events import EventStream, conv_offset_coverage, scatter_chunks
from ..quant.logquant import LogQuantConfig, quantize_tensor
from ..quant.lut import LogDomainPE, required_frac_bits
from ..snn.spikes import SpikeTrain
from ..tensor import im2col
from .config import HwConfig
from .input_generator import InputGenerator
from .spike_encoder import SpikeEncoder


# ----------------------------------------------------------------------
# Fixed-point datapath inference
# ----------------------------------------------------------------------

#: Bits per limb when a GEMM group's sums could leave float64's exact
#: integer range.
LIMB_BITS = 26


def _peaks(table: np.ndarray) -> List[int]:
    """``max|table[u]|`` per row ``u``, as Python ints (no overflow in
    the bounds they enter)."""
    return np.abs(table).max(axis=1).tolist()


def _gemm_dtype(peak: int, count: int) -> np.dtype:
    """The operand dtype of one spike time's GEMM.

    Each output of the GEMM sums at most ``count`` table entries of
    magnitude at most ``peak``, so every partial sum, in any order, is
    an integer of magnitude at most ``peak * count``.  float32 holds
    every integer below 2**24, float64 every one below 2**53.
    """
    return np.dtype(np.float32 if peak * count < 1 << 24 else np.float64)


def _exact_limbs(table: np.ndarray, counts) -> List[np.ndarray]:
    """``table`` as int64 limbs whose GEMM group sums are exact in float64.

    Row ``u`` of ``table`` holds the products at one spike time, and an
    output row of that time's GEMM sums at most ``counts[u]`` of them.
    A group adds its GEMMs into one float64 sum, so every partial sum
    is an integer of magnitude at most ``sum_u max|table[u]| *
    counts[u]``, exact while that bound is below 2**53 (tighter than
    ``max|table| * fan_in``).  A wider table splits into base
    2**LIMB_BITS limbs (``table == sum(limb_k << LIMB_BITS * k)``, the
    top limb signed) that are summed separately and recombined in
    int64; a lower limb is below 2**LIMB_BITS, exact while the counts
    sum below 2**27.  Every layer the repo builds fits in one limb.
    """
    limbs = []
    rest = table
    while sum(p * c for p, c in zip(_peaks(rest), counts)) >= 1 << 53:
        limbs.append(rest & ((1 << LIMB_BITS) - 1))
        rest = rest >> LIMB_BITS
    limbs.append(rest)
    return limbs


def _columns_per_index(levels: int) -> int:
    """Output columns one weight index covers at ``levels`` log levels:
    2 while a pair of table columns (``(2L+2)**2`` entries) fits a
    uint16 index, so up to 8-bit weights, else 1 (the pair table would
    grow as 4**bits)."""
    width = 2 * levels + 2
    return 2 if width * width <= 1 << 16 else 1


def _grouped_table(row: np.ndarray, group: int) -> np.ndarray:
    """``row`` (one spike time's table entries) as a table of ``group``
    entries per item: for a pair, item ``a * len(row) + b`` holds
    ``(row[a], row[b])`` as one opaque item that ``take`` copies whole
    and ``view(row.dtype)`` splits again."""
    if group == 1:
        return row
    width = len(row)
    pairs = np.empty((width, width, 2), dtype=row.dtype)
    pairs[..., 0] = row[:, None]
    pairs[..., 1] = row
    return pairs.view(np.dtype((np.void, 2 * row.itemsize))).reshape(-1)


@dataclass
class FixedPointReport:
    """Outcome of a fixed-point run against the float reference.

    The reference fields cost a float forward pass over the run's
    images that serving never reads, so a run leaves them to
    :meth:`deferred`: the first read of ``reference_predictions``,
    ``max_membrane_drift`` or ``agreement`` computes both, chunk by
    chunk as the run saw the images, to the values an eager run gives.
    Pickling and the result cache read every field, so the reports they
    carry hold the values.
    """

    predictions: np.ndarray
    reference_predictions: np.ndarray
    max_membrane_drift: float

    @classmethod
    def deferred(cls, predictions: np.ndarray,
                 reference: Callable[[], Tuple[np.ndarray, float]]
                 ) -> "FixedPointReport":
        """A report whose reference fields ``reference()`` returns, as
        ``(reference_predictions, max_membrane_drift)``, on first read."""
        report = cls.__new__(cls)
        report.predictions = predictions
        report._reference = reference
        return report

    def __getattr__(self, name):
        # reached only for attributes not set yet: the deferred fields
        reference = self.__dict__.get("_reference")
        if reference is None or name not in ("reference_predictions",
                                             "max_membrane_drift"):
            raise AttributeError(name)
        self.reference_predictions, self.max_membrane_drift = reference()
        self.__dict__.pop("_reference", None)
        return getattr(self, name)

    def __getstate__(self):
        # the pending thunk holds the network and the images: resolve
        self.max_membrane_drift
        return self.__dict__

    @property
    def agreement(self) -> float:
        return float((self.predictions == self.reference_predictions).mean())


class FixedPointInference(SpikeTrainScheme):
    """Run a ConvertedSNN through the integer log-PE datapath.

    Weights are log-quantised (grid-aligned FSR so the PE operands are
    exact), activations arrive as spike times (log2 grid by
    construction), and every product is LUT+shift fixed point.  Biases
    are added in fixed point at the accumulator scale, mirroring the PPU.
    """

    scheme_name = "fixed-point"

    def __init__(self, snn: ConvertedSNN, cfg: Optional[HwConfig] = None,
                 weight_config: Optional[LogQuantConfig] = None,
                 precision_bits: int = 16, backend: str = "dense",
                 plans: Optional[PlanSet] = None):
        self.snn = snn
        self.backend = validate_backend(backend)
        # compiled event plans: the integer datapath reuses their conv
        # coverage tables (the weights themselves stay quantised)
        self.plans = plans if plans is not None else PlanSet()
        self.cfg = cfg or HwConfig(window=snn.config.window,
                                   tau=snn.config.tau)
        if not math.log2(snn.config.tau).is_integer():
            raise ValueError(
                f"tau={snn.config.tau} violates Eq. 18; the log PE needs "
                "a power-of-two tau")
        self.weight_config = weight_config or LogQuantConfig(
            bits=self.cfg.weight_bits, z_w=1, align_fsr=True)
        frac = max(required_frac_bits(snn.config.tau, self.weight_config.z_w),
                   1)
        self.pe = LogDomainPE(frac_bits=frac, precision_bits=precision_bits)
        self.kernel = Base2Kernel(tau=snn.config.tau)
        self._quantized = {
            id(spec): quantize_tensor(spec.weight, self.weight_config)
            for spec in snn.layers if spec.is_weight_layer
        }
        # every call reads each weight's table column: build the index
        # once, keyed by the quantised tensor (which lives as long as self)
        self._columns = {id(qt): self._table_columns(qt)
                         for qt in self._quantized.values()}

    # ------------------------------------------------------------------
    def _product_table(self, times: np.ndarray, qt) -> np.ndarray:
        """Eq. 17 evaluated once per (spike time, signed weight level).

        ``times``: the distinct spike times a layer's input carries.
        Returns a (len(times), 2L+2) int64 table: column ``1+k`` holds
        the product with level ``k``, column ``L+2+k`` its negation, and
        columns 0 and ``L+1`` the zero weight (code -1, which is also
        every weight of an all-zero tensor, whose FSR has no log2).  A
        product depends only on the spike time and the weight level, so
        at T=24 with 5-bit weights the whole layer needs 24 x 15 PE
        evaluations.
        """
        levels = qt.config.num_levels
        table = np.zeros((len(times), 2, levels + 1), dtype=np.int64)
        if qt.fsr > 0:
            xc = self.pe.encode_log2(-times / self.snn.config.tau)
            wc = self.pe.encode_log2(math.log2(qt.fsr) - qt.config.step
                                     * np.arange(levels))
            mags = self.pe.multiply(xc[:, None], wc[None, :], 1)
            table[:, 0, 1:] = mags
            table[:, 1, 1:] = -mags
        return table.reshape(len(times), -1)

    @staticmethod
    def _table_columns(qt) -> np.ndarray:
        """Each weight's column in :meth:`_product_table`, as one index
        per pair of adjacent output columns, ``a * (2L+2) + b``, output
        axis last: ``(in, ceil(out/2))`` for a linear layer, ``(C_in, K,
        K, ceil(C_out/2))`` for a conv layer.  An odd output width pads
        with a zero-weight column.  The index is uint16 at 5-8 bits, one
        byte per weight (uint8 below); past 8 bits each index holds one
        column (:func:`_columns_per_index`)."""
        levels = qt.config.num_levels
        width = 2 * levels + 2
        group = _columns_per_index(levels)
        dtype = np.min_scalar_type(width ** group - 1)
        signed = np.min_scalar_type(-(width - 1))
        columns = np.add(qt.codes, 1, dtype=signed)
        columns += (qt.signs < 0) * signed.type(levels + 1)
        if len(columns) % group:
            columns = np.concatenate(
                [columns, np.zeros_like(columns[:1])])
        index = columns[0::group].astype(dtype)
        if group == 2:
            index *= dtype.type(width)
            index += columns[1::2].astype(dtype)
        return np.ascontiguousarray(np.moveaxis(index, 0, -1))

    def _event_columns(self, qt) -> np.ndarray:
        """Each weight's own table column, output axis last, unpacked
        from the layer's index: what the event formulation reads."""
        index = self._columns[id(qt)]
        levels = qt.config.num_levels
        if _columns_per_index(levels) == 2:
            index = np.stack(np.divmod(index, index.dtype.type(
                2 * levels + 2)), axis=-1).reshape(*index.shape[:-1], -1)
        return index[..., :qt.codes.shape[0]]

    def _spike_codes(self, times: np.ndarray) -> np.ndarray:
        """Spike times as unsigned codes ``time + 1`` (uint8 up to
        T=254): ``NO_SPIKE`` becomes 0, which is also what the zero
        padding of an unfolding reads."""
        dtype = np.min_scalar_type(self.snn.config.window - NO_SPIKE)
        return (times - NO_SPIKE).astype(dtype)

    def _products_linear(self, times: np.ndarray, qt) -> np.ndarray:
        """Fixed-point PSP sums for a linear layer: ``times`` (N, in)
        spike times through ``qt`` (out, in).  Returns (N, out)
        accumulator values (int64 at the PE scale); see
        :meth:`_products_codes`."""
        return self._products_codes(self._spike_codes(times), qt)

    def _products_codes(self, codes: np.ndarray, qt) -> np.ndarray:
        """Fixed-point PSP sums of (N, in) spike codes (``time + 1``, 0
        for no spike) through weights that flatten to (out, in); a conv
        layer passes its im2col unfolding.

        For each spike time ``u``, the inputs firing at ``u`` form a 0/1
        matrix and their weights' table entries at ``u`` a matrix of
        integers, and one GEMM sums them per output.  A row of the 0/1
        matrix holds only the inputs that fire at ``u``, so every
        partial sum of GEMM ``u`` is an integer of magnitude at most
        ``peak_u * count_u``: ``peak_u = max|table[u]|``, and
        ``count_u`` the most inputs of any one output row that fire at
        ``u``.  GEMM ``u`` runs in float32 while that bound is below
        2**24, else in float64 (:func:`_gemm_dtype`), and either way
        equals the PE's integer accumulation bitwise.  The GEMMs add
        into float64 sums, exact while ``sum_u peak_u * count_u`` is
        below 2**53; a wider table splits into limbs
        (:func:`_exact_limbs`).

        The operand of GEMM ``u`` is gathered two output columns at a
        time: the layer's index holds one entry per pair of adjacent
        columns (:meth:`_table_columns`), and table row ``u`` becomes a
        table of its ``(2L+2)**2`` value pairs (:func:`_grouped_table`),
        so one ``take`` of half as many indices fills the operand.  An
        odd output width's zero pad column is cut from the sums.

        One ``bincount`` over ``row * (T+2) + code`` counts every row's
        inputs per spike time; the spike times present and every
        ``count_u`` come from it.  Every partial sum of the terms is
        exact too, so the spike times split into groups
        (:func:`repro.threads.map_groups`), one per thread, that each
        sum their own GEMMs; the groups' sums add up in int64 to the
        same accumulator in any grouping.
        """
        n, d_in = codes.shape
        columns = self._columns[id(qt)].reshape(d_in, -1)
        span = _columns_per_index(qt.config.num_levels)
        acc = np.zeros((n, span * columns.shape[1]), dtype=np.int64)
        d_out = qt.codes.shape[0]
        width = self.snn.config.window + 2
        rows = np.arange(0, n * width, width)[:, None] + codes
        count = np.bincount(rows.ravel(), minlength=n * width).reshape(
            n, width).max(axis=0, initial=0)
        count[0] = 0                            # code 0: no spike
        present = np.flatnonzero(count)         # codes: time + 1
        if not len(present):
            return acc[:, :d_out]
        count = count[present].tolist()
        limbs = _exact_limbs(self._product_table(present - 1, qt), count)

        def operand(row, peak, c):
            dtype = _gemm_dtype(peak, c)
            return _grouped_table(row.astype(dtype), span), dtype

        operands = [[operand(*entry) for entry in zip(limb, _peaks(limb),
                                                      count)]
                    for limb in limbs]

        def group(indices) -> List[np.ndarray]:
            sums = [np.zeros(acc.shape) for _ in limbs]
            for i in indices:
                at_u = codes == int(present[i])   # a uint8 compare
                inputs = np.flatnonzero(at_u.any(axis=0))
                at_u = at_u[:, inputs]
                cols = columns[inputs]
                for limb, total in zip(operands, sums):
                    table, dtype = limb[i]
                    total += at_u.astype(dtype) @ table.take(cols).view(dtype)
            return sums

        for sums in threads.map_groups(group, len(present)):
            for k, total in enumerate(sums):
                acc += total.astype(np.int64) << (LIMB_BITS * k)
        return acc[:, :d_out]

    def _products_linear_events(self, stream: EventStream,
                                qt) -> np.ndarray:
        """Event-driven fixed-point PSP sums for a linear layer.

        Same integer products as :meth:`_products_linear`, read from the
        same table, but scattered over only the spikes that occurred —
        and since the accumulator arithmetic is integer, the two paths
        are *bitwise* identical, not merely close.
        """
        n, d_in = stream.shape
        columns = self._event_columns(qt)
        acc = np.zeros((n, columns.shape[1]), dtype=np.int64)
        if not stream.num_events:
            return acc
        sample, j = stream.unravel()
        present, u = np.unique(stream.times, return_inverse=True)
        table = self._product_table(present, qt)
        # chunk the (events x outputs) product block to bound memory;
        # the scatter itself is the engine's shared segment-sum kernel
        for sl in scatter_chunks(stream.num_events, columns.shape[1]):
            scatter_add_rows(acc, sample[sl],
                             table[u[sl][:, None], columns[j[sl]]])
        return acc

    def _products_conv_events(self, stream: EventStream, qt,
                              spec: LayerSpec,
                              plan=None) -> np.ndarray:
        """Event-driven fixed-point PSP sums for a conv layer.

        Each spike event scatters its integer products (read from the
        layer's product table) through the K*K kernel offsets that cover
        it (the integer twin of
        :func:`~repro.engine.executor.integrate_events`) — no dense
        unfolding, so the cost tracks the event count.  Integer
        accumulation makes it bitwise-identical to the im2col path.
        The scatter is the engine's shared segment-sum kernel, chunked
        within each kernel tap to bound the transient product block,
        and a compiled plan's coverage tables replace the per-batch
        offset derivation when one is supplied.
        """
        n_out, c_out, oh, ow = executor.output_shape(spec, stream.shape)
        acc = np.zeros((n_out * oh * ow, c_out), dtype=np.int64)
        if not stream.num_events:
            return (acc.reshape(n_out, oh, ow, c_out)
                    .transpose(0, 3, 1, 2))
        n, c, y, x = stream.unravel()
        present, u = np.unique(stream.times, return_inverse=True)
        table = self._product_table(present, qt)
        columns = self._event_columns(qt)
        if plan is not None:
            coverage = ((ky, kx, ok, n[ok] * (oh * ow) + cells)
                        for ky, kx, ok, cells
                        in plan.coverage(y * stream.shape[3] + x))
        else:
            coverage = ((ky, kx, ok, (n[ok] * oh + oy) * ow + ox)
                        for ky, kx, ok, oy, ox in conv_offset_coverage(
                            y, x, spec.kernel_size, spec.stride,
                            spec.padding, oh, ow))
        for ky, kx, ok, rows in coverage:
            cs = c[ok]
            us = u[ok]
            for sl in scatter_chunks(len(rows), c_out):
                scatter_add_rows(acc, rows[sl],
                                 table[us[sl][:, None],
                                       columns[cs[sl], ky, kx]])
        return acc.reshape(n_out, oh, ow, c_out).transpose(0, 3, 1, 2)

    def _products_conv(self, times: np.ndarray, qt,
                       spec: LayerSpec) -> np.ndarray:
        """Fixed-point PSP sums for a conv layer via im2col unfolding of
        its spike codes, whose zero padding is "no spike"."""
        n = times.shape[0]
        cols, (oh, ow) = im2col(self._spike_codes(times), spec.kernel_size,
                                spec.stride, spec.padding)
        acc = self._products_codes(cols, qt)
        c_out = qt.codes.shape[0]
        return acc.reshape(n, oh, ow, c_out).transpose(0, 3, 1, 2)

    # ------------------------------------------------------------------
    # CodingScheme hooks
    # ------------------------------------------------------------------
    def _encode(self, values: np.ndarray):
        """Spike-encode values into the backend's representation."""
        cfg = self.snn.config
        times = self.kernel.spike_time(values, theta0=cfg.theta0,
                                       window=cfg.window)
        if self.backend == "event":
            return EventStream.from_dense(times, cfg.window)
        return SpikeTrain(times=times, window=cfg.window)

    def encode_input(self, images: np.ndarray, ctx: ExecutionContext):
        return self._encode(np.asarray(images, dtype=np.float64))

    def weight_layer(self, spec: LayerSpec, train, ctx: ExecutionContext):
        scale = 1 << self.pe.precision_bits
        qt = self._quantized[id(spec)]
        if self.backend == "event":
            if spec.kind == "conv":
                plan = self.plans.plan_for(spec, ctx.weight_index,
                                           train.shape)
                acc = self._products_conv_events(train, qt, spec, plan)
            else:
                acc = self._products_linear_events(train, qt)
        else:
            if spec.kind == "conv":
                acc = self._products_conv(train.times, qt, spec)
            else:
                acc = self._products_linear(train.times, qt)
        # PPU: bias added once per window, in fixed point.
        bias = executor.bias_shaped(spec)
        acc = acc + np.round(bias * scale).astype(np.int64)
        membranes = acc.astype(np.float64) / scale
        if spec.is_output:
            return membranes * self.snn.output_scale
        return self._encode(np.maximum(membranes, 0.0))

    # ------------------------------------------------------------------
    def run(self, images: np.ndarray) -> FixedPointReport:
        output = executor.run_pipeline(self, images)

        def reference():
            value = self.snn.forward_value(images)
            drift = (float(np.max(np.abs(output - value))) if output.size
                     else 0.0)
            return value.argmax(axis=1), drift

        return FixedPointReport.deferred(output.argmax(axis=1), reference)

    def merge(self, results: List[FixedPointReport]) -> FixedPointReport:
        def reference():
            return (np.concatenate([r.reference_predictions
                                    for r in results]),
                    max(r.max_membrane_drift for r in results))

        return FixedPointReport.deferred(
            np.concatenate([r.predictions for r in results]), reference)


@register_scheme("fixed-point")
def _make_fixed_point(snn: ConvertedSNN, **options) -> FixedPointInference:
    return FixedPointInference(snn, **options)


register_scheme_alias("fp", "fixed-point")


# ----------------------------------------------------------------------
# Tile-level cycle accounting
# ----------------------------------------------------------------------

@dataclass
class TileRecord:
    """Execution of one 128-neuron output tile."""

    layer: str
    tile: int
    sort_cycles: int
    integrate_cycles: int
    encode_cycles: int
    input_spikes: int
    output_spikes: int

    @property
    def cycles(self) -> int:
        return self.sort_cycles + self.integrate_cycles + self.encode_cycles


@dataclass
class TiledRunReport:
    """Whole-image tile-level execution report."""

    tiles: List[TileRecord] = field(default_factory=list)
    output: np.ndarray = field(default_factory=lambda: np.empty(0))

    @property
    def total_cycles(self) -> int:
        return sum(t.cycles for t in self.tiles)

    def cycles_by_layer(self) -> dict:
        out: dict = {}
        for t in self.tiles:
            out[t.layer] = out.get(t.layer, 0) + t.cycles
        return out


class TiledCycleModel(SpikeTrainScheme):
    """Execute a converted network tile-by-tile with the real encoder FSM.

    Single-image granularity (the chip processes one inference at a
    time, Sec. 4.1).  Membrane math uses the float value domain — the
    fixed-point effects are FixedPointInference's job — but control flow
    (tiling, sorted-spike streaming, encoder walk) mirrors the hardware.
    The spike trains streamed between layers are the engine-produced
    ones; this class only adds the cycle accounting.
    """

    def __init__(self, snn: ConvertedSNN, cfg: Optional[HwConfig] = None):
        self.snn = snn
        self.cfg = cfg or HwConfig(window=snn.config.window,
                                   tau=snn.config.tau)
        self.encoder = SpikeEncoder(
            self.cfg.with_(window=snn.config.window, tau=snn.config.tau),
            theta0=snn.config.theta0)
        self.input_gen = InputGenerator(self.cfg)
        self.kernel = Base2Kernel(tau=snn.config.tau, base=snn.config.base)

    def run_image(self, image: np.ndarray) -> TiledRunReport:
        if image.ndim == 3:
            image = image[None]
        if image.shape[0] != 1:
            raise ValueError("tile-level simulation is single-image")
        return executor.run_pipeline(self, image)

    # ------------------------------------------------------------------
    # CodingScheme hooks (inter-layer state: the sorted EventStream)
    # ------------------------------------------------------------------
    def encode_input(self, image: np.ndarray,
                     ctx: ExecutionContext) -> EventStream:
        ctx.extra["report"] = TiledRunReport()
        return self.snn.input_events(np.asarray(image, dtype=np.float64))

    def weight_layer(self, spec: LayerSpec, stream: EventStream,
                     ctx: ExecutionContext) -> EventStream:
        cfg = self.snn.config
        report: TiledRunReport = ctx.extra["report"]
        name = f"{spec.kind}{ctx.weight_index}"
        decoded = stream.decode(self.kernel, cfg.theta0)
        membranes = executor.affine(spec, decoded)
        flat = membranes.reshape(-1)
        in_spikes = stream.num_spikes
        sort_cycles = self.input_gen.sort_cycles(in_spikes)

        if spec.is_output:
            report.output = membranes * self.snn.output_scale
            report.tiles.append(TileRecord(
                layer=name, tile=0, sort_cycles=sort_cycles,
                integrate_cycles=max(in_spikes, 1), encode_cycles=0,
                input_spikes=in_spikes, output_spikes=0))
            return stream

        n_pes = self.cfg.num_pes
        num_tiles = int(np.ceil(len(flat) / n_pes))
        out_shape = membranes.shape
        tile_spikes = self._per_tile_input_spikes(spec, stream, out_shape,
                                                  num_tiles, n_pes)
        tile_streams: List[EventStream] = []
        for tile in range(num_tiles):
            chunk = flat[tile * n_pes : (tile + 1) * n_pes]
            enc = self.encoder.encode(chunk)
            # the encoder emits its tile's spikes already time-sorted;
            # translate into the layer's flat index space for the merge
            tile_streams.append(
                enc.stream.with_offset(tile * n_pes, (len(flat),)))
            report.tiles.append(TileRecord(
                layer=name, tile=tile,
                # sorting is pipelined with the first tile's integration;
                # charge it once per layer
                sort_cycles=sort_cycles if tile == 0 else 0,
                # SpinalFlow streams one sorted spike per cycle per tile;
                # only the tile's receptive field streams (conv tiling)
                integrate_cycles=max(tile_spikes[tile], 1),
                encode_cycles=enc.cycles,
                input_spikes=tile_spikes[tile],
                output_spikes=enc.num_spikes))
        return EventStream.merge(tile_streams).reshape(out_shape)

    def finalize(self, state, ctx: ExecutionContext) -> TiledRunReport:
        return ctx.extra["report"]

    # ------------------------------------------------------------------
    def _per_tile_input_spikes(self, spec: LayerSpec, stream: EventStream,
                               out_shape, num_tiles: int,
                               n_pes: int) -> List[int]:
        """Input spikes each output tile must stream.

        Fully-connected tiles need every input spike.  Conv tiles cover a
        contiguous flat range of (C, H, W) outputs; only spikes inside
        the covered rows' receptive field (± the kernel halo) stream —
        counted straight off the stream's flat indices (two binary
        searches per tile over the sorted row coordinates, no dense
        rescan per layer).
        """
        total = stream.num_spikes
        if spec.kind != "conv":
            return [total] * num_tiles
        _, _, oh, ow = out_shape
        k, s, p = spec.kernel_size, spec.stride, spec.padding
        # spike row (H) coordinates in the input feature map, sorted
        _, _, h_in, w_in = stream.shape
        spike_rows = np.sort((stream.indices % (h_in * w_in)) // w_in)
        counts: List[int] = []
        per_map = oh * ow
        for tile in range(num_tiles):
            a = tile * n_pes
            b = min((tile + 1) * n_pes, int(np.prod(out_shape[1:]))) - 1
            y_lo = (a % per_map) // ow
            y_hi = (b % per_map) // ow
            if b // per_map > a // per_map:
                y_lo, y_hi = 0, oh - 1  # tile spans channel boundary
            in_lo = y_lo * s - p
            in_hi = y_hi * s - p + k - 1
            counts.append(int(
                np.searchsorted(spike_rows, in_hi, side="right")
                - np.searchsorted(spike_rows, in_lo, side="left")))
        return counts
