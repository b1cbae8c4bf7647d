"""Per-layer ledger of the traced run, recorded from outside the program.

:class:`Ledger` installs wrappers, records each as a ``repro.obs`` span
into its own :class:`~repro.obs.MetricsRegistry`, and folds the spans
with ``span_tree`` after every image batch:

* ``PipelineRunner.run`` becomes the batch's root span.  Calls alternate
  between untraced and traced, so one child measures both and
  ``trace.overhead_pct`` compares each traced call with the untraced
  call before it.
* The runner's scheme gets instance-attribute wrappers on the four
  ``run_pipeline`` hooks (``encode_input``/``weight_layer``/``pool``/
  ``flatten``), giving ``engine.<L>.ms`` plus per-layer spikes and SOPs.
* :data:`CALLS` are public module functions and methods, wrapped where
  the program looks them up, giving ``call.<fn>.ms``.

Wrappers outside a traced batch pass straight through.  The end-to-end
run installs no ledger at all.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict

from repro.cat import Base2Kernel, ConvertedSNN
from repro.engine import executor
from repro.engine.runner import PipelineRunner
from repro.events import EventStream
from repro.hw import tilesim
from repro.obs import MetricsRegistry, span, span_tree
from repro.quant.lut import LogDomainPE

#: (owner, attribute, metric name) of every function ``call.*`` times.
CALLS = (
    (executor, "affine", "affine"),
    (Base2Kernel, "decode", "decode"),
    (Base2Kernel, "spike_time", "spike_time"),
    (executor, "integrate_events", "integrate_events"),
    (EventStream, "from_dense", "stream_from_dense"),
    (EventStream, "max_pool2d", "stream_max_pool"),
    (LogDomainPE, "multiply", "pe_multiply"),
    (tilesim, "im2col", "im2col"),
    (ConvertedSNN, "forward_value", "forward_value"),
)

HOOKS = ("encode_input", "weight_layer", "pool", "flatten")


def _raw(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) \
        else getattr(owner, attr)


def _rewrap(raw, wrap):
    """``wrap`` applied under the same descriptor ``raw`` uses."""
    if isinstance(raw, (classmethod, staticmethod)):
        return type(raw)(wrap(raw.__func__))
    return wrap(raw)


class Ledger:
    """Spans, spike/SOP counts and captures of the traced batches.

    Use as a context manager: wrappers go in on enter and come out on
    exit.  ``capture_times`` keeps each traced batch's hidden-layer
    output states (for ``spike_mismatch``).
    """

    def __init__(self, capture_times: bool = False):
        self.registry = MetricsRegistry()
        self.capture_times = capture_times
        self.active = False
        self.batches = []          # one dict per PipelineRunner.run call
        self.totals = defaultdict(float)   # span name -> seconds
        self.coverage = []         # engine spans / root, per traced batch
        self._patched = []
        self._schemes = []
        self._pools = 0
        self._batch = None

    # -- install / remove ------------------------------------------------
    def __enter__(self) -> "Ledger":
        self._patch(PipelineRunner, "run", self._root)
        for owner, attr, name in CALLS:
            self._patch(owner, attr,
                        lambda fn, name=name: self._timed("call." + name, fn))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, raw in reversed(self._patched):
            setattr(owner, attr, raw)
        for scheme in self._schemes:
            for hook in HOOKS:
                del scheme.__dict__[hook]
        self._patched.clear()
        self._schemes.clear()

    def _patch(self, owner, attr, wrap) -> None:
        raw = _raw(owner, attr)
        self._patched.append((owner, attr, raw))
        setattr(owner, attr, _rewrap(raw, wrap))

    # -- wrappers ----------------------------------------------------------
    def _timed(self, name, fn):
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            with span(name, registry=self.registry):
                return fn(*args, **kwargs)
        return wrapper

    def _root(self, run):
        def wrapper(runner, images):
            traced = len(self.batches) % 2 == 1
            batch = {"traced": traced, "images": len(images),
                     "spikes": {}, "sops": {}, "states": {}, "readout": None}
            self.batches.append(batch)
            if not traced:
                t0 = time.perf_counter()
                result = run(runner, images)
                batch["wall_s"] = time.perf_counter() - t0
                return result
            self._attach(runner.scheme)
            self._batch, self.active = batch, True
            try:
                with span("batch", registry=self.registry) as rec:
                    result = run(runner, images)
            finally:
                self._batch, self.active = None, False
            batch["wall_s"] = rec["duration_s"]
            batch["drift"] = getattr(result, "max_membrane_drift", None)
            self._fold()
            return result
        return wrapper

    def _attach(self, scheme) -> None:
        """Instance-attribute wrappers on the scheme's hooks (once)."""
        if any(s is scheme for s in self._schemes):
            return
        for hook in HOOKS:
            setattr(scheme, hook, self._hook(hook, getattr(scheme, hook)))
        self._schemes.append(scheme)

    def _hook(self, hook, fn):
        def wrapper(*args):
            if not self.active:
                return fn(*args)
            ctx = args[-1]
            label = self._label(hook, args)
            before = len(ctx.traces)
            with span("engine." + label, registry=self.registry):
                out = fn(*args)
            if hook in ("encode_input", "weight_layer"):
                self._count(label, args, out, ctx, before)
            return out
        return wrapper

    def _label(self, hook, args) -> str:
        if hook == "encode_input":
            self._pools = 0
            return "input"
        if hook == "weight_layer":
            spec, ctx = args[0], args[-1]
            return f"{spec.kind}{ctx.weight_index}"
        if hook == "pool":
            self._pools += 1
            return f"pool{self._pools - 1}"
        return "flatten"

    def _count(self, label, args, out, ctx, before) -> None:
        """Spikes out of and SOPs into a layer, from its ``LayerTrace``
        when the scheme records one, else from the states it passed."""
        batch = self._batch
        if len(ctx.traces) > before:
            trace = ctx.traces[-1]
            spikes, sops = trace.output_spikes, trace.sops
        else:
            spikes = getattr(out, "num_spikes", 0)
            sops = (executor.layer_sops(args[0], args[1].num_spikes)
                    if label != "input" else 0)
        batch["spikes"][label] = spikes
        batch["sops"][label] = sops
        if label != "input" and not hasattr(out, "num_spikes"):
            batch["readout"] = out
        elif self.capture_times and label != "input":
            batch["states"][label] = out

    # -- folding -----------------------------------------------------------
    def _fold(self) -> None:
        snapshot = self.registry.snapshot(reset=True)
        if snapshot["span_drops"]:
            raise RuntimeError(
                f"ledger dropped {snapshot['span_drops']} spans in one batch")
        for root in span_tree(snapshot["spans"]):
            engine = sum(c["duration_s"] for c in root["children"]
                         if c["name"].startswith("engine."))
            if root["name"] == "batch" and root["duration_s"] > 0:
                self.coverage.append(engine / root["duration_s"])
            stack = [root]
            while stack:
                node = stack.pop()
                self.totals[node["name"]] += node["duration_s"]
                stack.extend(node["children"])

    # -- results -----------------------------------------------------------
    def metrics(self):
        """Per-image ms, spikes and SOPs of the traced batches, plus the
        trace overhead and how much of each batch the hooks cover."""
        traced = [b for b in self.batches if b["traced"]]
        images = sum(b["images"] for b in traced)
        out = {}
        if not images:
            return out
        for name, seconds in self.totals.items():
            if name != "batch":
                out[f"{name}.ms"] = 1e3 * seconds / images
        for field in ("spikes", "sops"):
            sums = defaultdict(int)
            for b in traced:
                for label, count in b[field].items():
                    sums[label] += count
            for label, count in sums.items():
                out[f"engine.{label}.{field}"] = count / images
        ratios = [(t["wall_s"] / t["images"]) / (u["wall_s"] / u["images"])
                  for u, t in zip(self.batches[::2], self.batches[1::2])]
        if ratios:
            out["trace.overhead_pct"] = 100.0 * (statistics.median(ratios)
                                                 - 1.0)
        if self.coverage:
            out["trace.coverage_pct"] = 100.0 * min(self.coverage)
        drifts = [b["drift"] for b in traced if b.get("drift") is not None]
        if drifts:
            out["hw.max_membrane_drift"] = max(drifts)
        return out
