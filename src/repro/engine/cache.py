"""Content-addressed result cache for engine runs.

A simulation chunk is a pure function of (network weights, scheme
configuration, input images): hashing those three gives a key under
which the chunk's result can be stored and replayed.  Repeated sweeps —
the paper's Fig. 2 / Table 4 grids re-evaluated with one design point
changed — then recompute only the points that actually changed.

Three layers live here:

* :func:`digest` — a canonical content hash.  Numpy arrays hash their
  logical contents (dtype, shape, C-order bytes), so C- and F-contiguous
  copies and views of the same values collide by construction while any
  value/dtype/shape perturbation separates them.  Scalars are
  type-tagged (``1``, ``1.0`` and ``True`` all differ).
* :func:`scheme_digest` / :func:`run_key` — compose the digest of a
  (scheme name, converted network, options) triple and of one input
  chunk into the cache key of a run.
* :class:`ResultCache` — the on-disk store: one human-readable JSON
  skeleton per result plus an ``.npz`` sidecar for the arrays, written
  atomically.  Results are plain dataclasses (``SimulationResult``,
  ``FixedPointReport``...), encoded structurally so the round-trip is
  lossless without pickling code objects.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import json
import os
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

import numpy as np

#: Bump when the stored result layout changes; part of every run key so
#: stale stores never decode against new code.
CACHE_FORMAT = 1


# ----------------------------------------------------------------------
# Canonical content hashing
# ----------------------------------------------------------------------

def _update(h, obj: Any) -> None:
    """Feed ``obj`` into hash ``h`` with type tags (collision-safe)."""
    if obj is None:
        h.update(b"\x00none")
    elif isinstance(obj, bool):  # before int: bool subclasses int
        h.update(b"\x00bool" + (b"1" if obj else b"0"))
    elif isinstance(obj, int):
        h.update(b"\x00int" + str(obj).encode())
    elif isinstance(obj, float):
        h.update(b"\x00float" + np.float64(obj).tobytes())
    elif isinstance(obj, str):
        data = obj.encode()
        h.update(b"\x00str" + str(len(data)).encode() + b":" + data)
    elif isinstance(obj, (bytes, bytearray, memoryview)):
        # the payload goes in through a view, never a concatenated copy
        data = memoryview(obj).cast("B")
        h.update(b"\x00bytes" + str(data.nbytes).encode() + b":")
        h.update(data)
    elif isinstance(obj, (np.ndarray, np.generic)):
        arr = np.asarray(obj)
        h.update(b"\x00ndarray" + arr.dtype.str.encode()
                 + repr(arr.shape).encode())
        # C-order bytes; a C-contiguous array is hashed in place
        flat = np.ascontiguousarray(arr).reshape(-1)
        h.update(flat.tobytes() if arr.dtype.hasobject
                 else flat.view(np.uint8))
    elif isinstance(obj, (list, tuple)):
        h.update(b"\x00seq" + str(len(obj)).encode())
        for item in obj:
            _update(h, item)
    elif isinstance(obj, dict):
        h.update(b"\x00map" + str(len(obj)).encode())
        # order by (type, repr) so the walk is deterministic; the keys
        # themselves hash type-tagged ({1: x} and {"1": x} differ)
        for key in sorted(obj, key=lambda k: (type(k).__name__, str(k))):
            _update(h, key)
            _update(h, obj[key])
    elif dataclasses.is_dataclass(obj):
        h.update(b"\x00dc" + type(obj).__qualname__.encode())
        for f in dataclasses.fields(obj):
            _update(h, f.name)
            _update(h, getattr(obj, f.name))
    else:
        raise TypeError(f"cannot digest object of type {type(obj).__name__}")


def digest(*objs: Any) -> str:
    """Hex SHA-256 of the canonical encoding of ``objs``."""
    h = hashlib.sha256()
    for obj in objs:
        _update(h, obj)
    return h.hexdigest()


def scheme_digest(name: str, snn, options: Optional[Dict[str, Any]] = None
                  ) -> str:
    """Content key of a coding scheme: name, options, weights, config.

    Everything a rebuilt scheme's output can depend on goes in: the
    layer structure and fused parameters, the coding config, the output
    normalisation, and the factory options.
    """
    layers = [
        (spec.kind, spec.stride, spec.padding, spec.kernel_size,
         spec.is_output, spec.weight, spec.bias)
        for spec in snn.layers
    ]
    return digest("scheme", name, options or {}, snn.config,
                  float(snn.output_scale), layers)


def run_key(scheme_key: str, chunk: np.ndarray) -> str:
    """Cache key of one chunk execution under a given scheme.

    The package version is part of the key: a release that changes
    simulator semantics must not replay results computed by the old
    code.  (Within one version, in-tree simulator edits still require
    clearing the cache — see docs/engine.md.)
    """
    from .. import __version__

    return digest("run", CACHE_FORMAT, __version__, scheme_key,
                  np.asarray(chunk))


# ----------------------------------------------------------------------
# Structural (pickle-free) result serialisation
# ----------------------------------------------------------------------

def encode_result(obj: Any) -> Tuple[Any, Dict[str, np.ndarray]]:
    """Lower a result object to a JSON-able skeleton + array table."""
    arrays: Dict[str, np.ndarray] = {}

    def enc(o: Any):
        if o is None or isinstance(o, (bool, int, str)):
            return o
        if isinstance(o, float):
            return {"__float__": o.hex()}  # lossless (inf/nan included)
        if isinstance(o, np.ndarray):
            ref = f"a{len(arrays)}"
            arrays[ref] = o
            return {"__array__": ref}
        if isinstance(o, np.generic):
            return {"__npscalar__": [o.dtype.str, enc(o.item())]}
        if isinstance(o, list):
            return [enc(item) for item in o]
        if isinstance(o, tuple):
            return {"__tuple__": [enc(item) for item in o]}
        if isinstance(o, dict):
            return {"__map__": [[enc(k), enc(v)] for k, v in o.items()]}
        if dataclasses.is_dataclass(o) and not isinstance(o, type):
            cls = type(o)
            fields = {f.name: enc(getattr(o, f.name))
                      for f in dataclasses.fields(o)}
            return {"__dataclass__": [cls.__module__, cls.__qualname__],
                    "fields": fields}
        raise TypeError(
            f"cannot encode result component of type {type(o).__name__}")

    return enc(obj), arrays


def decode_result(payload: Any, arrays: Dict[str, np.ndarray]) -> Any:
    """Invert :func:`encode_result`."""

    def dec(p: Any):
        if isinstance(p, list):
            return [dec(item) for item in p]
        if not isinstance(p, dict):
            return p
        if "__float__" in p:
            return float.fromhex(p["__float__"])
        if "__array__" in p:
            return arrays[p["__array__"]]
        if "__npscalar__" in p:
            dtype, value = p["__npscalar__"]
            return np.dtype(dtype).type(dec(value))
        if "__tuple__" in p:
            return tuple(dec(item) for item in p["__tuple__"])
        if "__map__" in p:
            return {dec(k): dec(v) for k, v in p["__map__"]}
        if "__dataclass__" in p:
            module, qualname = p["__dataclass__"]
            cls = importlib.import_module(module)
            for part in qualname.split("."):
                cls = getattr(cls, part)
            if not dataclasses.is_dataclass(cls):
                raise TypeError(f"{qualname} is not a dataclass")
            fields = {name: dec(value)
                      for name, value in p["fields"].items()}
            init = {f.name: fields.pop(f.name)
                    for f in dataclasses.fields(cls)
                    if f.init and f.name in fields}
            obj = cls(**init)
            for name, value in fields.items():  # init=False fields
                object.__setattr__(obj, name, value)
            return obj
        raise TypeError(f"cannot decode payload {p!r}")

    return dec(payload)


# ----------------------------------------------------------------------
# The on-disk store
# ----------------------------------------------------------------------

class ResultCache:
    """Directory-backed content-addressed store of chunk results.

    ``get``/``put`` address results by the hex key from :func:`run_key`.
    Writes go through a temp file + rename so a crashed run never leaves
    a half-written entry; ``hits``/``misses`` count lookups for the sweep
    report.
    """

    def __init__(self, root: os.PathLike):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    def _paths(self, key: str) -> Tuple[Path, Path]:
        return self.root / f"{key}.json", self.root / f"{key}.npz"

    def __contains__(self, key: str) -> bool:
        return self._paths(key)[0].exists()

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*.json"))

    def __bool__(self) -> bool:
        return True  # an *empty* cache must not read as "no cache"

    def get(self, key: str) -> Optional[Any]:
        """The stored result under ``key``, or None (counts hit/miss).

        An entry that no longer decodes — written by an incompatible
        checkout, or torn on disk — degrades to a miss, so stale stores
        self-heal by recomputation instead of aborting the run.
        """
        json_path, npz_path = self._paths(key)
        if not json_path.exists():
            self.misses += 1
            return None
        try:
            payload = json.loads(json_path.read_text())
            arrays: Dict[str, np.ndarray] = {}
            if npz_path.exists():
                with np.load(npz_path, allow_pickle=False) as stored:
                    arrays = {name: stored[name] for name in stored.files}
            result = decode_result(payload, arrays)
        except Exception:
            self.misses += 1
            return None
        self.hits += 1
        return result

    def put(self, key: str, result: Any) -> None:
        """Store ``result`` under ``key`` (atomic, overwrites).

        Temp names carry a per-call token so concurrent writers of the
        same key (two sweeps sharing a cache dir) never collide; the
        last rename wins with identical content.
        """
        payload, arrays = encode_result(result)
        json_path, npz_path = self._paths(key)
        token = f"{os.getpid()}-{os.urandom(4).hex()}"
        if arrays:
            # np.savez appends ".npz" to names lacking it, so the temp
            # name must already end with the suffix.
            tmp_npz = self.root / f"{key}.{token}.tmp.npz"
            np.savez(tmp_npz, **arrays)
            os.replace(tmp_npz, npz_path)
        tmp_json = self.root / f"{key}.{token}.json.tmp"
        tmp_json.write_text(json.dumps(payload))
        os.replace(tmp_json, json_path)  # JSON last: presence = complete

    def clear(self) -> int:
        """Delete every stored entry; returns the number removed."""
        removed = 0
        for path in list(self.root.glob("*.json")):
            path.unlink()
            removed += 1
        for pattern in ("*.npz", "*.json.tmp"):  # incl. orphaned temps
            for path in list(self.root.glob(pattern)):
                path.unlink()
        return removed
