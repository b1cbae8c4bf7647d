"""Compiled per-layer execution plans for the event backend.

The event backend's hot path used to re-derive every layer's scatter
geometry *per batch*: ``conv_offset_coverage`` divmods every event's
coordinates once per kernel offset, and linear layers re-gathered (and
re-cast) weight rows on every call, all feeding ``np.add.at`` — the
slowest scatter primitive numpy offers.  A :class:`PlanSet` moves that
work to *compile time*, once per model:

* **linear layers** compile to a CSR-style ``(indptr, cols, vals)``
  adjacency over input neurons (plus a cached float64 ``W.T`` for the
  dense-row path), so an event's fan-out is a table lookup;
* **conv layers** compile per-``(ky, kx)`` offset tables — for every
  input cell, whether that kernel tap lands on a valid output cell and
  which one — replacing the per-batch divmod/masking entirely.

Execution then goes through :func:`scatter_add_rows`, a segment-sum
scatter kernel that is **bit-identical** to the ``np.add.at`` reference
(`tests/engine/test_plan.py` asserts it property-wise): float
accumulators use a ``bincount`` over flattened destination indices
(the same sequential input-order accumulation ``np.add.at`` performs,
~3x faster), integer accumulators use a stable sort by destination row
plus ``np.add.reduceat`` (integer addition is exact under any order).

Plans serialise to a versioned, digested ``.npz``
(:func:`save_plans` / :func:`load_plans`) so a
:class:`~repro.serve.ModelArtifact` bundle can carry them and the
serving side pays zero plan-compile cost per request.  Only geometry is
stored — weight-derived arrays (``vals``, ``wt64``, per-tap weights)
rehydrate lazily from the layer spec on first use, keeping the weights
single-sourced in ``snn.npz``.

Layering: below :mod:`repro.engine.executor` (which dispatches into
this module) and above :mod:`repro.events`; imports nothing else.
"""

from __future__ import annotations

import json
import threading
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from ..events import scatter_add_rows, scatter_chunks

PathLike = Union[str, Path]

#: Bump when the on-disk plan layout changes; loaders refuse others.
PLAN_FORMAT_VERSION = 1

#: Linear plans switch from the dense-row scatter to the CSR gather when
#: the weight matrix is at least this sparse (fraction of exact zeros —
#: log-quantised layers routinely clear it, dense-trained ones never do).
CSR_MIN_ZERO_FRACTION = 0.75


class PlanError(RuntimeError):
    """A plan file could not be decoded (message says why)."""


# The segment-sum scatter kernel (the np.add.at replacement) lives in
# repro.events.stream — the package's bottom layer — so the tensor
# library's pooling backward shares the one implementation without an
# import cycle.  Imported above; re-exported here, its historical home.

# ----------------------------------------------------------------------
# Layer plans
# ----------------------------------------------------------------------

def _weight_checksum(weight: np.ndarray) -> float:
    """Cheap content fingerprint used to catch stale plans."""
    return float(np.abs(np.asarray(weight, dtype=np.float64)).sum())


@dataclass
class LinearPlan:
    """Compiled adjacency of one linear layer.

    ``indptr``/``cols`` are the CSR structure over *input* neurons: the
    outputs input ``j`` reaches are ``cols[indptr[j]:indptr[j+1]]``.
    ``vals`` (the matching float64 weights) and ``wt64`` (the cached
    contiguous float64 ``W.T`` the dense-row path reads) rehydrate
    lazily from the spec, so serialised plans carry geometry only.
    """

    weight_index: int
    in_features: int
    out_features: int
    indptr: np.ndarray
    cols: np.ndarray
    zero_fraction: float
    checksum: float
    use_csr: bool = False
    vals: Optional[np.ndarray] = None
    wt64: Optional[np.ndarray] = None

    kind = "linear"

    @classmethod
    def compile(cls, spec, weight_index: int) -> "LinearPlan":
        weight = spec.weight
        d_out, d_in = weight.shape
        # CSR over input neurons: nonzeros of column j of W, i.e. row j
        # of W.T — one pass, C-order, so cols ascend within each row
        # (matching the reference scatter's output iteration order).
        wt = weight.T
        nz = wt != 0
        counts = nz.sum(axis=1)
        indptr = np.zeros(d_in + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        cols = np.flatnonzero(nz.ravel()) % d_out
        zero_fraction = 1.0 - len(cols) / max(weight.size, 1)
        return cls(weight_index=weight_index, in_features=d_in,
                   out_features=d_out, indptr=indptr, cols=cols,
                   zero_fraction=zero_fraction,
                   checksum=_weight_checksum(weight),
                   use_csr=zero_fraction >= CSR_MIN_ZERO_FRACTION)

    def matches(self, spec) -> bool:
        return (spec.kind == "linear"
                and spec.weight.shape == (self.out_features,
                                          self.in_features)
                and np.isclose(_weight_checksum(spec.weight),
                               self.checksum, rtol=1e-6, atol=1e-12))

    def _materialise(self, spec) -> None:
        """Rehydrate the weight-derived arrays from the spec (lazily)."""
        if self.wt64 is None:
            self.wt64 = np.ascontiguousarray(spec.weight.T,
                                             dtype=np.float64)
        if self.use_csr and self.vals is None:
            wt = np.asarray(spec.weight.T, dtype=np.float64)
            flat = wt.ravel()
            self.vals = flat[np.flatnonzero(np.asarray(spec.weight.T)
                                            .ravel() != 0)]

    def execute(self, spec, stream, values: np.ndarray) -> np.ndarray:
        """Membrane sums ``(N, out)`` — bit-identical to the reference."""
        self._materialise(spec)
        n = stream.shape[0]
        membrane = np.zeros((n, self.out_features), dtype=np.float64)
        if not stream.num_events:
            return membrane
        sample, j = stream.unravel()
        if self.use_csr:
            self._execute_csr(membrane, sample, j, values)
            return membrane
        for sl in scatter_chunks(stream.num_events, self.out_features):
            scatter_add_rows(membrane, sample[sl],
                             values[sl][:, None] * self.wt64[j[sl]])
        return membrane

    def _execute_csr(self, membrane, sample, j, values) -> None:
        """Gather only the nonzero fan-out of each event (sparse W).

        Contributions stay in (event, ascending output) order — the
        order the dense-row scatter accumulates its nonzero terms in —
        so the float sums match it bitwise.
        """
        counts = np.diff(self.indptr)[j]
        total = int(counts.sum())
        if not total:
            return
        ev = np.repeat(np.arange(len(j)), counts)
        ends = np.cumsum(counts)
        offsets = np.arange(total) - np.repeat(ends - counts, counts)
        k = np.repeat(self.indptr[j], counts) + offsets
        flat = sample[ev] * self.out_features + self.cols[k]
        membrane.ravel()[:] += np.bincount(
            flat, weights=values[ev] * self.vals[k],
            minlength=membrane.size)


@dataclass
class ConvPlan:
    """Compiled per-offset coverage tables of one conv layer.

    For kernel tap ``t = ky * K + kx`` and flat input cell ``i = y * W_in
    + x``: ``valid[t, i]`` says whether an event at that cell reaches an
    output through that tap, and ``ocell[t, i]`` is the flat ``oy * OW +
    ox`` output cell it reaches (0 where invalid).  Replaces the
    per-batch divmod of ``conv_offset_coverage`` with a lookup.
    ``wtap`` (per-tap weight slices, laid out for the event gather)
    rehydrates lazily from the spec.
    """

    weight_index: int
    kernel_size: int
    stride: int
    padding: int
    in_channels: int
    out_channels: int
    in_hw: Tuple[int, int]
    out_hw: Tuple[int, int]
    valid: np.ndarray
    ocell: np.ndarray
    checksum: float
    wtap: Optional[np.ndarray] = None

    kind = "conv"

    @classmethod
    def compile(cls, spec, weight_index: int,
                in_hw: Tuple[int, int]) -> "ConvPlan":
        h, w = int(in_hw[0]), int(in_hw[1])
        k, s, p = spec.kernel_size, spec.stride, spec.padding
        oh = (h + 2 * p - k) // s + 1
        ow = (w + 2 * p - k) // s + 1
        y, x = np.divmod(np.arange(h * w, dtype=np.int64), w)
        valid = np.zeros((k * k, h * w), dtype=bool)
        ocell = np.zeros((k * k, h * w), dtype=np.int64)
        for ky in range(k):
            oy, ry = np.divmod(y + p - ky, s)
            row_ok = (ry == 0) & (oy >= 0) & (oy < oh)
            for kx in range(k):
                ox, rx = np.divmod(x + p - kx, s)
                ok = row_ok & (rx == 0) & (ox >= 0) & (ox < ow)
                t = ky * k + kx
                valid[t] = ok
                ocell[t, ok] = oy[ok] * ow + ox[ok]
        return cls(weight_index=weight_index, kernel_size=k, stride=s,
                   padding=p, in_channels=spec.weight.shape[1],
                   out_channels=spec.weight.shape[0], in_hw=(h, w),
                   out_hw=(oh, ow), valid=valid, ocell=ocell,
                   checksum=_weight_checksum(spec.weight))

    def matches(self, spec, in_hw) -> bool:
        return (spec.kind == "conv"
                and tuple(int(v) for v in in_hw) == self.in_hw
                and spec.kernel_size == self.kernel_size
                and spec.stride == self.stride
                and spec.padding == self.padding
                and spec.weight.shape[:2] == (self.out_channels,
                                              self.in_channels)
                and np.isclose(_weight_checksum(spec.weight),
                               self.checksum, rtol=1e-6, atol=1e-12))

    def _materialise(self, spec) -> None:
        if self.wtap is None:
            # (K, K, C_in, C_out): wtap[ky, kx][c] is bitwise the
            # reference's weight[:, c, ky, kx].T gather, pre-transposed
            # once (dtype preserved — the float32 product rounding of
            # the dense tensor path must survive intact).
            self.wtap = np.ascontiguousarray(
                spec.weight.transpose(2, 3, 1, 0))

    def coverage(self, cell_idx: np.ndarray
                 ) -> Iterator[Tuple[int, int, np.ndarray, np.ndarray]]:
        """Yield ``(ky, kx, ok, cells)`` per tap, in reference order.

        ``cell_idx`` is each event's flat ``y * W_in + x`` spatial cell;
        ``ok`` masks the events the tap covers and ``cells`` their flat
        output cells (already masked).  Tap order and skip behaviour
        mirror :func:`repro.events.conv_offset_coverage` exactly.
        """
        k = self.kernel_size
        for t in range(k * k):
            ok = self.valid[t, cell_idx]
            if not ok.any():
                continue
            yield t // k, t % k, ok, self.ocell[t, cell_idx[ok]]

    def execute(self, spec, stream, values: np.ndarray) -> np.ndarray:
        """Membrane sums ``(N, C_out, OH, OW)`` — bit-identical to the
        reference scatter (same tap order, same float32 products, same
        in-order float64 accumulation; chunking happens *within* a tap,
        which never reorders contributions)."""
        self._materialise(spec)
        oh, ow = self.out_hw
        n_out = stream.shape[0]
        c_out = self.out_channels
        per_map = oh * ow
        mem = np.zeros((n_out * per_map, c_out), dtype=np.float64)
        if not stream.num_events:
            return mem.reshape(n_out, oh, ow, c_out).transpose(0, 3, 1, 2)
        n, c, y, x = stream.unravel()
        cell_idx = y * self.in_hw[1] + x
        values32 = values.astype(np.float32)
        for ky, kx, ok, cells in self.coverage(cell_idx):
            rows = n[ok] * per_map + cells
            cs = c[ok]
            vals32 = values32[ok]
            w_t = self.wtap[ky, kx]
            for sl in scatter_chunks(len(rows), c_out):
                contrib = vals32[sl][:, None] * w_t[cs[sl]]
                scatter_add_rows(mem, rows[sl],
                                 contrib.astype(np.float64))
        return mem.reshape(n_out, oh, ow, c_out).transpose(0, 3, 1, 2)


Plan = Union[LinearPlan, ConvPlan]


# ----------------------------------------------------------------------
# PlanSet: the per-model plan cache
# ----------------------------------------------------------------------

class PlanSet:
    """Compiled plans of one model, keyed by weight-layer index.

    ``plan_for`` compiles on miss (so ad-hoc schemes benefit without any
    setup) and *revalidates* a hit against the live spec — a plan built
    for different weights or a different input geometry is silently
    recompiled, never trusted (each distinct weight array is checked
    once and then pinned by identity).
    """

    def __init__(self, plans: Optional[Dict[int, Plan]] = None):
        self._plans: Dict[int, Plan] = dict(plans or {})
        self._pinned: Dict[int, tuple] = {}
        # a sweep runs one scheme's chunks on several threads at once
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._plans)

    def __contains__(self, weight_index: int) -> bool:
        return weight_index in self._plans

    def get(self, weight_index: int) -> Optional[Plan]:
        return self._plans.get(weight_index)

    def plans(self) -> Dict[int, Plan]:
        return dict(self._plans)

    def plan_for(self, spec, weight_index: int, in_shape) -> Plan:
        """The (validated) plan for ``spec``, compiling on miss and with
        its weight arrays filled in; safe to call from several threads."""
        in_hw = tuple(int(v) for v in in_shape[2:]) \
            if spec.kind == "conv" else ()
        pin = (id(spec.weight), in_hw)
        with self._lock:
            plan = self._plans.get(weight_index)
            if plan is not None and self._pinned.get(weight_index) == pin:
                return plan
            ok = plan is not None and (
                plan.matches(spec, in_hw) if spec.kind == "conv"
                else plan.matches(spec))
            if not ok:
                plan = self.compile(spec, weight_index, in_hw)
                self._plans[weight_index] = plan
            plan._materialise(spec)
            self._pinned[weight_index] = pin
            return plan

    @staticmethod
    def compile(spec, weight_index: int, in_hw=()) -> Plan:
        if spec.kind == "conv":
            return ConvPlan.compile(spec, weight_index, in_hw)
        return LinearPlan.compile(spec, weight_index)


def compile_plans(snn, image_shape) -> PlanSet:
    """Compile every weight layer of a converted network, once.

    ``image_shape`` is one input image's ``(C, H, W)`` (or ``(D,)``)
    shape; the walk tracks the activation geometry through pooling and
    flatten layers the same way the executor does.
    """
    shape = (1,) + tuple(int(v) for v in image_shape)
    plans: Dict[int, Plan] = {}
    wi = 0
    for spec in snn.layers:
        if spec.is_weight_layer:
            plans[wi] = PlanSet.compile(spec, wi, shape[2:])
            if spec.kind == "conv":
                plan = plans[wi]
                shape = (shape[0], plan.out_channels) + plan.out_hw
            else:
                shape = (shape[0], spec.weight.shape[0])
            if spec.is_output:
                break
            wi += 1
        elif spec.kind in ("maxpool", "avgpool"):
            n, c, h, w = shape
            k, s = spec.kernel_size, spec.stride
            shape = (n, c, (h - k) // s + 1, (w - k) // s + 1)
        elif spec.kind == "flatten":
            shape = (shape[0],
                     int(np.prod(shape[1:], dtype=np.int64)))
    return PlanSet(plans)


# ----------------------------------------------------------------------
# Serialisation (versioned + digested .npz, mirroring nn.serialization)
# ----------------------------------------------------------------------

def _plans_digest(manifest, arrays) -> str:
    from .cache import digest

    return digest("execution-plans", PLAN_FORMAT_VERSION, manifest, arrays)


def save_plans(plans: PlanSet, path: PathLike) -> None:
    """Persist a :class:`PlanSet`'s geometry tables, versioned."""
    payload = {}
    manifest: List[dict] = []
    arrays: List[np.ndarray] = []
    for wi in sorted(plans.plans()):
        plan = plans.get(wi)
        entry = {"weight_index": wi, "kind": plan.kind,
                 "checksum": plan.checksum}
        if plan.kind == "linear":
            entry.update(in_features=plan.in_features,
                         out_features=plan.out_features,
                         zero_fraction=plan.zero_fraction,
                         use_csr=plan.use_csr)
            payload[f"p{wi}/indptr"] = plan.indptr
            payload[f"p{wi}/cols"] = plan.cols
            arrays.extend((plan.indptr, plan.cols))
        else:
            entry.update(kernel_size=plan.kernel_size, stride=plan.stride,
                         padding=plan.padding,
                         in_channels=plan.in_channels,
                         out_channels=plan.out_channels,
                         in_hw=list(plan.in_hw), out_hw=list(plan.out_hw))
            payload[f"p{wi}/valid"] = plan.valid
            payload[f"p{wi}/ocell"] = plan.ocell
            arrays.extend((plan.valid, plan.ocell))
        manifest.append(entry)
    header = {"format_version": PLAN_FORMAT_VERSION, "manifest": manifest,
              "digest": _plans_digest(manifest, arrays)}
    payload["__header__"] = np.frombuffer(json.dumps(header).encode(),
                                          dtype=np.uint8)
    np.savez_compressed(path, **payload)


def load_plans(path: PathLike) -> PlanSet:
    """Inverse of :func:`save_plans` (with version + digest checks)."""
    path = Path(path)
    try:
        data = np.load(path, allow_pickle=False)
    except (OSError, ValueError, zipfile.BadZipFile) as exc:
        raise PlanError(
            f"{path}: not a readable plan file ({exc})") from None
    with data:
        if "__header__" not in data.files:
            raise PlanError(
                f"{path}: no __header__ entry — truncated, or not a plan "
                "file saved by save_plans()")
        try:
            header = json.loads(bytes(data["__header__"]).decode())
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise PlanError(f"{path}: corrupted header ({exc})") from None
        found = header.get("format_version")
        if found != PLAN_FORMAT_VERSION:
            raise PlanError(
                f"{path}: plan format version mismatch — expected "
                f"{PLAN_FORMAT_VERSION}, found "
                f"{'none (missing field)' if found is None else found}; "
                "rebuild the bundle with this checkout")
        plans: Dict[int, Plan] = {}
        arrays: List[np.ndarray] = []
        try:
            for entry in header["manifest"]:
                wi = entry["weight_index"]
                if entry["kind"] == "linear":
                    indptr = data[f"p{wi}/indptr"]
                    cols = data[f"p{wi}/cols"]
                    arrays.extend((indptr, cols))
                    plans[wi] = LinearPlan(
                        weight_index=wi,
                        in_features=entry["in_features"],
                        out_features=entry["out_features"],
                        indptr=indptr, cols=cols,
                        zero_fraction=entry["zero_fraction"],
                        checksum=entry["checksum"],
                        use_csr=entry["use_csr"])
                else:
                    valid = data[f"p{wi}/valid"]
                    ocell = data[f"p{wi}/ocell"]
                    arrays.extend((valid, ocell))
                    plans[wi] = ConvPlan(
                        weight_index=wi,
                        kernel_size=entry["kernel_size"],
                        stride=entry["stride"],
                        padding=entry["padding"],
                        in_channels=entry["in_channels"],
                        out_channels=entry["out_channels"],
                        in_hw=tuple(entry["in_hw"]),
                        out_hw=tuple(entry["out_hw"]),
                        valid=valid, ocell=ocell,
                        checksum=entry["checksum"])
        except KeyError as exc:
            raise PlanError(
                f"{path}: missing entry {exc.args[0]!r} — the file is "
                "truncated or was written by an incompatible "
                "save_plans()") from None
        expected = header.get("digest")
    actual = _plans_digest(header["manifest"], arrays)
    if actual != expected:
        raise PlanError(
            f"{path}: content digest mismatch — header says "
            f"{str(expected)[:12]}…, file hashes to {actual[:12]}… "
            "(corrupted or hand-edited plan file)")
    return PlanSet(plans)
