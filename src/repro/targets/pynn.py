"""The ``pynn-netlist`` target: population/projection netlist + interpreter.

The export compiles an artifact's converted SNN into ``netlist.json``, a
pyNN-style structural description: one *population* per layer stage
(input source, hidden IF populations carrying the coding scheme's cell
parameters, a non-firing readout) and one *projection* per edge (dense /
conv connectors carrying the fused weight matrices, pooling and flatten
connectors carrying only geometry).  Everything a foreign runtime needs
to step the network — kernel tau/base, thresholds, window, fire/grid
tolerances, the log-PE LUT for the fixed-point cell — is in the file;
nothing references this package.

A reference interpreter rides along (:func:`execute_netlist`).  Its cell
dynamics — TTFS closed-form encoding, early firing, rate
reset-by-subtraction, the integer log-PE datapath — are implemented here
from the netlist parameters alone.  The linear algebra (conv / matmul /
value pooling) is deliberately *shared* with the engine
(:func:`repro.engine.executor.affine` over reconstructed
:class:`~repro.cat.convert.LayerSpec` records): the conformance contract
is bitwise equality with the engine's PipelineRunner, and a private
reimplementation of the BLAS dispatch would be a worse copy of the same
arithmetic.
``tests/targets`` holds every registered scheme to that contract.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np

from ..cat.convert import LayerSpec
from ..cat.kernels import GRID_SNAP_TOL
from ..engine import executor
from ..engine.executor import FIRE_TOL
from ..events import NO_SPIKE
from ..tensor import im2col
from ..util import read_json_object
from .base import (PathLike, TargetBackend, TargetError, TargetProgram,
                   canonical_json, load_target_manifest, register_target,
                   register_target_alias)

NETLIST_VERSION = 1
NETLIST_FILE = "netlist.json"

#: Schemes the compiler knows how to lower into netlist cells.
COMPILABLE_SCHEMES = ("ttfs-closed-form", "ttfs-early", "rate",
                      "fixed-point")

#: Rate cell default, mirroring RateCodedNetwork(timesteps=32).
RATE_TIMESTEPS = 32


# ---------------------------------------------------------------------------
# compilation: ConvertedSNN -> netlist dict
# ---------------------------------------------------------------------------

def _cell_defaults(scheme: str, snn) -> Dict[str, Any]:
    """The scheme's cell parameters, fully self-describing."""
    cfg = snn.config
    if scheme == "ttfs-closed-form":
        return {
            "cell_type": "ttfs_if",
            "tau": cfg.tau, "base": cfg.base, "theta0": cfg.theta0,
            "window": cfg.window, "grid_snap_tol": GRID_SNAP_TOL,
            "fire_tol": FIRE_TOL, "no_spike": NO_SPIKE,
        }
    if scheme == "ttfs-early":
        return {
            "cell_type": "ttfs_if_early",
            "tau": cfg.tau, "base": cfg.base, "theta0": cfg.theta0,
            "window": cfg.window, "grid_snap_tol": GRID_SNAP_TOL,
            "fire_tol": FIRE_TOL, "no_spike": NO_SPIKE,
        }
    if scheme == "rate":
        return {
            "cell_type": "rate_if",
            "theta0": cfg.theta0, "timesteps": RATE_TIMESTEPS,
        }
    if scheme == "fixed-point":
        from ..hw.config import HwConfig
        from ..quant.lut import LogDomainPE, required_frac_bits

        if not math.log2(cfg.tau).is_integer():
            raise TargetError(
                f"cannot compile scheme 'fixed-point': tau={cfg.tau} "
                "violates Eq. 18; the log PE needs a power-of-two tau")
        hw = HwConfig(window=cfg.window, tau=cfg.tau)
        frac = max(required_frac_bits(cfg.tau, 1), 1)
        pe = LogDomainPE(frac_bits=frac, precision_bits=16)
        return {
            "cell_type": "logpe_if",
            # the log-PE kernel is base-2 by construction (Eq. 18),
            # independent of the training kernel's base
            "tau": cfg.tau, "base": 2.0, "theta0": cfg.theta0,
            "window": cfg.window, "grid_snap_tol": GRID_SNAP_TOL,
            "no_spike": NO_SPIKE,
            "weight_bits": hw.weight_bits, "z_w": 1,
            "frac_bits": pe.frac_bits, "precision_bits": pe.precision_bits,
            "lut": pe.lut.table.tolist(),
        }
    raise TargetError(
        f"pynn-netlist cannot compile scheme {scheme!r}; compilable "
        f"schemes: {', '.join(COMPILABLE_SCHEMES)}")


def _pool_shape(shape, kernel_size: int, stride: int):
    n, c, h, w = shape
    return (n, c, (h - kernel_size) // stride + 1,
            (w - kernel_size) // stride + 1)


def _weight_payload(scheme: str, spec, cell: Dict[str, Any]
                    ) -> Dict[str, Any]:
    """The projection's synaptic parameters for one weight layer."""
    if scheme != "fixed-point":
        return {
            "weights": np.asarray(spec.weight, dtype=np.float32).tolist(),
            "bias": np.asarray(spec.bias, dtype=np.float32).tolist(),
        }
    from ..quant.logquant import LogQuantConfig, quantize_tensor

    qt = quantize_tensor(spec.weight, LogQuantConfig(
        bits=cell["weight_bits"], z_w=cell["z_w"], align_fsr=True))
    return {
        "codes": qt.codes.tolist(),
        "signs": qt.signs.tolist(),
        "log2_fsr": math.log2(qt.fsr) if qt.fsr > 0 else 0.0,
        "step": qt.config.step,
        "bias": np.asarray(spec.bias, dtype=np.float32).tolist(),
    }


def compile_netlist(snn, scheme: str,
                    input_shape: Optional[tuple] = None) -> Dict[str, Any]:
    """Lower a :class:`~repro.cat.convert.ConvertedSNN` to a netlist."""
    cell = _cell_defaults(scheme, snn)
    source_type = {"ttfs_if": "ttfs_source", "ttfs_if_early": "ttfs_source",
                   "rate_if": "rate_source",
                   "logpe_if": "logpe_source"}[cell["cell_type"]]
    shape = (1,) + tuple(input_shape) if input_shape else None

    def _pop(label: str, cell_type: str, params: Dict[str, Any]):
        return {
            "label": label, "cell_type": cell_type, "params": params,
            "shape": list(shape[1:]) if shape else None,
            "size": int(np.prod(shape[1:])) if shape else None,
        }

    populations = [_pop("input", source_type,
                        {k: v for k, v in cell.items()
                         if k != "cell_type"})]
    projections: List[Dict[str, Any]] = []
    counters = {"weight": 0, "pool": 0, "flatten": 0}
    prev = "input"
    for spec in snn.layers:
        if spec.is_weight_layer:
            label = f"{spec.kind}{counters['weight']}"
            counters["weight"] += 1
            if shape is not None:
                shape = executor.output_shape(spec, shape)
            connector = {"type": "dense"} if spec.kind == "linear" else {
                "type": "conv", "kernel_size": spec.kernel_size,
                "stride": spec.stride, "padding": spec.padding}
            projections.append({
                "pre": prev, "post": label, "connector": connector,
                "is_output": bool(spec.is_output),
                **_weight_payload(scheme, spec, cell)})
            if spec.is_output:
                populations.append(_pop(
                    label, "readout",
                    {"output_scale": float(snn.output_scale)}))
                break
            params = {k: v for k, v in cell.items() if k != "cell_type"}
            populations.append(_pop(label, cell["cell_type"], params))
        elif spec.kind in ("maxpool", "avgpool"):
            label = f"{spec.kind}{counters['pool']}"
            counters["pool"] += 1
            if shape is not None:
                shape = _pool_shape(shape, spec.kernel_size, spec.stride)
            kind = "max_pool" if spec.kind == "maxpool" else "avg_pool"
            projections.append({
                "pre": prev, "post": label,
                "connector": {"type": kind, "kernel_size": spec.kernel_size,
                              "stride": spec.stride}})
            populations.append(_pop(label, "relay", {}))
        elif spec.kind == "flatten":
            label = f"flatten{counters['flatten']}"
            counters["flatten"] += 1
            if shape is not None:
                shape = (shape[0], int(np.prod(shape[1:])))
            projections.append({"pre": prev, "post": label,
                                "connector": {"type": "flatten"}})
            populations.append(_pop(label, "relay", {}))
        else:
            raise TargetError(f"unknown layer kind {spec.kind!r}")
        prev = label
    return {
        "netlist_version": NETLIST_VERSION,
        "scheme": scheme,
        "input": {"population": "input",
                  "shape": list(input_shape) if input_shape else None},
        "cell_defaults": cell,
        "output_scale": float(snn.output_scale),
        "populations": populations,
        "projections": projections,
    }


# ---------------------------------------------------------------------------
# interpreter: cell dynamics from netlist parameters alone
# ---------------------------------------------------------------------------

def _kernel_value(dt, base: float, tau: float) -> np.ndarray:
    return np.power(base, -np.asarray(dt, dtype=np.float64) / tau)


def _spike_time(x, cell: Dict[str, Any]) -> np.ndarray:
    """Closed-form first threshold crossing (Eq. 14)."""
    tau, base = cell["tau"], cell["base"]
    theta0, window = cell["theta0"], cell["window"]
    x = np.asarray(x, dtype=np.float64)
    positive = x > 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        raw = tau * np.log(theta0 / np.where(positive, x, 1.0)) \
            / math.log(base)
    dt = np.ceil(raw - cell["grid_snap_tol"])
    dt = np.maximum(dt, 0.0)
    finite = np.isfinite(dt)
    out = np.where(finite, dt, 0).astype(np.int64)
    no_fire = ~positive | ~finite
    no_fire |= out > window
    return np.where(no_fire, NO_SPIKE, out)


def _decode(times, cell: Dict[str, Any]) -> np.ndarray:
    """Value represented by each spike time (Eq. 7)."""
    vals = cell["theta0"] * _kernel_value(np.maximum(times, 0),
                                          cell["base"], cell["tau"])
    return np.where(times == NO_SPIKE, 0.0, vals)


def _pool_times(times, kernel_size: int, stride: int) -> np.ndarray:
    """Max pooling in the time domain: earliest spike wins."""
    n, c, h, w = times.shape
    oh = (h - kernel_size) // stride + 1
    ow = (w - kernel_size) // stride + 1
    big = np.where(times == NO_SPIKE, np.iinfo(np.int64).max, times)
    sn, sc, sh, sw = big.strides
    view = np.lib.stride_tricks.as_strided(
        big, shape=(n, c, oh, ow, kernel_size, kernel_size),
        strides=(sn, sc, sh * stride, sw * stride, sh, sw), writeable=False)
    pooled = view.min(axis=(4, 5))
    return np.where(pooled == np.iinfo(np.int64).max, NO_SPIKE, pooled)


def _proj_spec(proj: Dict[str, Any]) -> LayerSpec:
    """Reconstruct the engine-shaped layer record from a projection.

    Weights rebuild as float32 — the dtype the engine's specs carry — so
    the shared affine primitive promotes and reduces exactly as the
    reference run did.
    """
    con = proj["connector"]
    weight = np.asarray(proj["weights"], dtype=np.float32)
    bias = np.asarray(proj["bias"], dtype=np.float32)
    if con["type"] == "conv":
        return LayerSpec(kind="conv", weight=weight, bias=bias,
                         stride=con["stride"], padding=con["padding"],
                         kernel_size=con["kernel_size"],
                         is_output=proj["is_output"])
    return LayerSpec(kind="linear", weight=weight, bias=bias,
                     is_output=proj["is_output"])


def _pool_spec(proj: Dict[str, Any]) -> LayerSpec:
    con = proj["connector"]
    kind = "maxpool" if con["type"] == "max_pool" else "avgpool"
    return LayerSpec(kind=kind, kernel_size=con["kernel_size"],
                     stride=con["stride"])


def _fire_early(spec: LayerSpec, times: np.ndarray, decoded: np.ndarray,
                cell: Dict[str, Any]) -> np.ndarray:
    """T2FSNN early firing: at each step that brings spikes the membrane
    is ``affine(prefix) + bias`` over the decoded prefix of the train,
    and a neuron fires when it first reaches the decaying threshold."""
    bias = executor.bias_shaped(spec)
    prefix = np.zeros_like(decoded)
    membrane = np.zeros(executor.output_shape(spec, times.shape)) + bias
    fired = np.full(membrane.shape, NO_SPIKE, dtype=np.int64)
    for t in range(cell["window"] + 1):
        arrived = times == t
        if arrived.any():
            prefix[arrived] = decoded[arrived]
            membrane = executor.affine(spec, prefix,
                                       include_bias=False) + bias
        threshold = cell["theta0"] * float(
            _kernel_value(t, cell["base"], cell["tau"]))
        fired[(membrane >= threshold - cell["fire_tol"])
              & (fired == NO_SPIKE)] = t
    return fired


def _run_ttfs(netlist: Dict[str, Any], images: np.ndarray,
              early: bool = False) -> np.ndarray:
    """TTFS IF cells: each membrane is ``affine(decoded) + bias``.

    Closed-form cells fire at Eq. 14's spike time; early-firing cells
    fire on the decoded prefix (:func:`_fire_early`).  The readout
    integrates the complete train either way.
    """
    cell = netlist["cell_defaults"]
    times = _spike_time(np.asarray(images, dtype=np.float64), cell)
    for proj in netlist["projections"]:
        kind = proj["connector"]["type"]
        if kind in ("dense", "conv"):
            spec = _proj_spec(proj)
            decoded = _decode(times, cell)
            if early and not proj["is_output"]:
                times = _fire_early(spec, times, decoded, cell)
                continue
            membrane = (executor.affine(spec, decoded, include_bias=False)
                        + executor.bias_shaped(spec))
            if proj["is_output"]:
                return membrane * netlist["output_scale"]
            times = _spike_time(np.maximum(membrane, 0.0), cell)
        elif kind == "max_pool":
            con = proj["connector"]
            times = _pool_times(times, con["kernel_size"], con["stride"])
        elif kind == "avg_pool":
            pooled = executor.pool_values(_pool_spec(proj),
                                          _decode(times, cell))
            times = _spike_time(pooled, cell)
        elif kind == "flatten":
            times = times.reshape(times.shape[0], -1)
    raise TargetError("netlist has no readout projection")


def _run_rate(netlist: Dict[str, Any], images: np.ndarray) -> np.ndarray:
    """Rate IF cells: reset-by-subtraction, constant input current."""
    cell = netlist["cell_defaults"]
    theta, steps = cell["theta0"], cell["timesteps"]
    data = np.asarray(images, dtype=np.float64)
    per_step = False
    for proj in netlist["projections"]:
        kind = proj["connector"]["type"]
        if kind in ("dense", "conv"):
            spec = _proj_spec(proj)
            if not per_step:
                z = executor.affine(spec, data)
                z = np.broadcast_to(z, (steps,) + z.shape)
            else:
                t, n = data.shape[:2]
                out = executor.affine(
                    spec, data.reshape((t * n,) + data.shape[2:]))
                z = out.reshape((t, n) + out.shape[1:])
            if proj["is_output"]:
                readout = z.sum(axis=0)
                return (readout / steps) * netlist["output_scale"]
            membrane = np.zeros(z.shape[1:], dtype=np.float64)
            fires = np.empty(z.shape, dtype=np.float64)
            for t in range(steps):
                membrane += z[t]
                fire = membrane >= theta
                membrane -= theta * fire
                fires[t] = fire
            data = fires * theta
            per_step = True
        elif kind in ("max_pool", "avg_pool"):
            spec = _pool_spec(proj)
            if per_step:
                t, n = data.shape[:2]
                out = executor.pool_values(
                    spec, data.reshape((t * n,) + data.shape[2:]))
                data = out.reshape((t, n) + out.shape[1:])
            else:
                data = executor.pool_values(spec, data)
        elif kind == "flatten":
            lead = 2 if per_step else 1
            data = data.reshape(data.shape[:lead] + (-1,))
    raise TargetError("netlist has no readout projection")


def _encode_log2(log2_value, frac_bits: int) -> np.ndarray:
    return np.round(np.asarray(log2_value) * (1 << frac_bits)
                    ).astype(np.int64)


def _pe_multiply(x_code, w_code, w_sign, frac_bits: int,
                 precision_bits: int, lut: np.ndarray) -> np.ndarray:
    """Eq. 17: p = sign * (LUT(Frac(p_hat)) << Int(p_hat)), integer only."""
    p_hat = np.asarray(x_code, dtype=np.int64) + np.asarray(
        w_code, dtype=np.int64)
    int_part = p_hat >> frac_bits
    frac_code = p_hat & ((1 << frac_bits) - 1)
    mantissa = lut[frac_code]
    shifted = np.where(
        int_part >= 0,
        mantissa << np.minimum(int_part, 62 - precision_bits),
        mantissa >> np.minimum(-int_part, 63),
    )
    return np.asarray(w_sign, dtype=np.int64) * shifted


def _fp_linear(times, codes, signs, log2w, cell: Dict[str, Any],
               lut: np.ndarray) -> np.ndarray:
    """Fixed-point PSP accumulator sums for one (unfolded) linear layer."""
    n = times.shape[0]
    d_out = codes.shape[0]
    x_log2 = -times / cell["tau"]
    fired = times != NO_SPIKE
    w_nonzero = codes >= 0
    acc = np.zeros((n, d_out), dtype=np.int64)
    xc = _encode_log2(x_log2, cell["frac_bits"])
    wc = _encode_log2(log2w, cell["frac_bits"])
    for j in range(d_out):
        active = fired & w_nonzero[j][None, :]
        if not active.any():
            continue
        prods = _pe_multiply(xc, np.broadcast_to(wc[j], xc.shape),
                             np.broadcast_to(signs[j], xc.shape),
                             cell["frac_bits"], cell["precision_bits"], lut)
        acc[:, j] = np.where(active, prods, 0).sum(axis=1)
    return acc


def _run_fixed_point(netlist: Dict[str, Any],
                     images: np.ndarray) -> np.ndarray:
    """Log-PE IF cells: LUT+shift products, fixed-point accumulation."""
    cell = netlist["cell_defaults"]
    lut = np.asarray(cell["lut"], dtype=np.int64)
    scale = 1 << cell["precision_bits"]
    times = _spike_time(np.asarray(images, dtype=np.float64), cell)
    for proj in netlist["projections"]:
        kind = proj["connector"]["type"]
        if kind in ("dense", "conv"):
            codes = np.asarray(proj["codes"], dtype=np.int64)
            signs = np.asarray(proj["signs"], dtype=np.int64)
            log2w = proj["log2_fsr"] - proj["step"] * np.maximum(codes, 0)
            bias = np.asarray(proj["bias"], dtype=np.float32)
            if kind == "conv":
                con = proj["connector"]
                n, c_out = times.shape[0], codes.shape[0]
                # NO_SPIKE must survive im2col's zero padding: shift
                # times by +1 (0 becomes "no spike") and undo after
                shifted = np.where(times == NO_SPIKE, 0,
                                   times + 1).astype(np.float64)
                cols, (oh, ow) = im2col(shifted, con["kernel_size"],
                                        con["stride"], con["padding"])
                col_times = np.where(cols == 0, NO_SPIKE, cols - 1)
                acc = _fp_linear(col_times, codes.reshape(c_out, -1),
                                 signs.reshape(c_out, -1),
                                 log2w.reshape(c_out, -1), cell, lut)
                acc = acc.reshape(n, oh, ow, c_out).transpose(0, 3, 1, 2)
                acc = acc + np.round(
                    bias[None, :, None, None] * scale).astype(np.int64)
            else:
                acc = _fp_linear(times, codes, signs, log2w, cell, lut)
                acc = acc + np.round(bias[None, :] * scale).astype(np.int64)
            membranes = acc.astype(np.float64) / scale
            if proj["is_output"]:
                return membranes * netlist["output_scale"]
            times = _spike_time(np.maximum(membranes, 0.0), cell)
        elif kind == "max_pool":
            con = proj["connector"]
            times = _pool_times(times, con["kernel_size"], con["stride"])
        elif kind == "avg_pool":
            pooled = executor.pool_values(_pool_spec(proj),
                                          _decode(times, cell))
            times = _spike_time(pooled, cell)
        elif kind == "flatten":
            times = times.reshape(times.shape[0], -1)
    raise TargetError("netlist has no readout projection")


_RUNNERS = {
    "ttfs-closed-form": _run_ttfs,
    # netlists exported before the stepped walk became an alias of the
    # closed form; their cells' "mode" field is ignored
    "ttfs-timestep": _run_ttfs,
    "ttfs-early": lambda netlist, images: _run_ttfs(netlist, images,
                                                    early=True),
    "rate": _run_rate,
    "fixed-point": _run_fixed_point,
}


def execute_netlist(netlist: Dict[str, Any],
                    images: np.ndarray) -> np.ndarray:
    """Step a netlist on one batch; returns readout potentials."""
    scheme = netlist.get("scheme")
    if scheme not in _RUNNERS:
        raise TargetError(
            f"netlist scheme {scheme!r} has no interpreter cell; "
            f"known: {', '.join(sorted(_RUNNERS))}")
    return _RUNNERS[scheme](netlist, images)


# ---------------------------------------------------------------------------
# the backend
# ---------------------------------------------------------------------------

class PyNNProgram(TargetProgram):
    """Loaded netlist; predicts by stepping the interpreter.

    Batches chunk by the exported ``max_batch`` — the same boundaries the
    reference :class:`~repro.engine.runner.PipelineRunner` uses — so the
    conformance comparison never sees different reduction groupings.
    """

    def __init__(self, manifest, netlist: Dict[str, Any]):
        super().__init__(manifest)
        self.netlist = netlist

    def potentials(self, images) -> np.ndarray:
        """Readout membrane potentials for one (unchunked) batch."""
        return execute_netlist(self.netlist, images)

    def predict(self, images) -> np.ndarray:
        images = np.asarray(images)
        preds = []
        for start in range(0, len(images), self.max_batch):
            out = execute_netlist(self.netlist,
                                  images[start:start + self.max_batch])
            preds.append(out.argmax(axis=1))
        if not preds:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(preds)


@register_target("pynn-netlist")
class PyNNNetlistTarget(TargetBackend):
    name = "pynn-netlist"
    description = ("pyNN-style population/projection netlist (versioned "
                   "JSON) + pure-python reference interpreter")

    def export(self, artifact, out_dir: PathLike, *,
               scheme: Optional[str] = None, force: bool = False) -> Path:
        scheme = self._resolve_scheme(artifact, scheme)
        netlist = compile_netlist(artifact.snn, scheme,
                                  input_shape=artifact.input_shape)
        out = self._start_export(out_dir, force)
        (out / NETLIST_FILE).write_text(canonical_json(netlist))
        settings = self._base_settings(artifact, scheme)
        settings["netlist_version"] = NETLIST_VERSION
        return self._finish_export(out, artifact, scheme, settings,
                                   files=[NETLIST_FILE])

    def load(self, path: PathLike) -> PyNNProgram:
        manifest = load_target_manifest(path, expected_target=self.name)
        netlist = read_json_object(Path(path) / NETLIST_FILE, TargetError,
                                   "netlist")
        found = netlist.get("netlist_version")
        if found != NETLIST_VERSION:
            raise TargetError(
                f"{path}: netlist version mismatch — this checkout reads "
                f"version {NETLIST_VERSION}, found {found}")
        return PyNNProgram(manifest, netlist)


register_target_alias("pynn", "pynn-netlist")
