"""Model and converted-SNN persistence (single-file .npz).

``save_model`` / ``load_model`` round-trip a Module's parameters and
buffers; ``save_converted`` / ``load_converted`` persist a lowered
:class:`~repro.cat.convert.ConvertedSNN` together with its coding
configuration so a trained-and-converted network can ship without its
training graph.

Converted bundles written with ``compress=False`` (the serving default)
store each array as an uncompressed (``ZIP_STORED``) ``.npy`` member,
which makes the weights **memory-mappable**: ``load_converted(path,
mmap_mode="r")`` maps every weight array straight off the file instead
of copying it into anonymous memory, so N serving workers opening the
same bundle share one page-cache copy of the weights instead of N
private loads.  (``np.load`` ignores ``mmap_mode`` inside zip archives,
so the mapping is done here, from each stored member's byte offset.)
Compressed or pre-existing bundles degrade gracefully to an in-memory
load.

A converted file is read once (:func:`read_converted`): into a private
page-aligned buffer, or with ``mmap_mode="r"`` a read-only map, whose
stored members are parsed at their offsets rather than through
``np.load``.  The caller that also checks a digest of the whole file
(``ModelArtifact.load``) hashes the same bytes while the weights are
decoded and digested.  Stored members start their array data on a
64-byte boundary of the file (:data:`MEMBER_ALIGNMENT`, padded through
each local header's extra field), so a plain load hands out aligned,
writable views of the buffer and a mapped one aligned maps; files in
the older unpadded layout get aligned copies.

Converted bundles are *versioned and digested*: the header records
``format_version`` (:data:`CONVERTED_FORMAT_VERSION`) and a content
digest over the layer manifest, coding config and weight arrays.  A
stale, truncated or hand-edited file fails ``load_converted`` with a
:class:`SerializationError` naming the file and the expected/actual
version (or digest) instead of surfacing a raw ``KeyError`` from the
npz internals.
"""

from __future__ import annotations

import ast
import functools
import io
import json
import math
import mmap
import os
import struct
import time
import zipfile
from pathlib import Path
from typing import Dict, Optional, Union

import numpy as np

from .module import Module

PathLike = Union[str, Path]

#: Bump when the on-disk converted-SNN layout changes.  Loaders refuse
#: other versions with an actionable error instead of mis-decoding.
CONVERTED_FORMAT_VERSION = 1

#: Every member ``save_converted(compress=False)`` stores starts its
#: array data on this byte boundary of the file, so maps and reads of
#: the file hand out aligned arrays.
MEMBER_ALIGNMENT = 64

#: Extra-field id of the padding that aligns stored members (the one
#: Android's zipalign writes); zip readers skip unknown extra fields.
_ALIGN_EXTRA_ID = 0xD935


class SerializationError(RuntimeError):
    """A persisted model file could not be decoded (message says why)."""


def save_model(model: Module, path: PathLike, **metadata) -> None:
    """Write a module's state dict (plus JSON metadata) to ``path``."""
    state = model.state_dict()
    payload = {f"state/{k}": v for k, v in state.items()}
    payload["__meta__"] = np.frombuffer(
        json.dumps(metadata).encode(), dtype=np.uint8
    )
    np.savez_compressed(path, **payload)


def load_model(model: Module, path: PathLike) -> dict:
    """Load a state dict saved by :func:`save_model` into ``model``.

    Returns the metadata dictionary stored alongside the weights.
    """
    with np.load(path, allow_pickle=False) as data:
        state = {
            key[len("state/"):]: data[key]
            for key in data.files
            if key.startswith("state/")
        }
        meta = json.loads(bytes(data["__meta__"]).decode()) \
            if "__meta__" in data.files else {}
    model.load_state_dict(state)
    return meta


def _converted_digest(manifest, config_dict, output_scale, weights) -> str:
    """Content hash of everything a converted bundle round-trips."""
    from ..engine.cache import digest

    return digest("converted-snn", CONVERTED_FORMAT_VERSION, manifest,
                  config_dict, float(output_scale), weights)


def save_converted(snn, path: PathLike, compress: bool = True) -> None:
    """Persist a ConvertedSNN (layer specs + coding config), versioned.

    ``compress=False`` writes the arrays as ``ZIP_STORED`` members so a
    later :func:`load_converted` with ``mmap_mode="r"`` can map the
    weights instead of copying them (the serving artifact writer uses
    this).  Both layouts decode identically; only mappability differs.
    The file is replaced, never rewritten in place, so a session that
    mapped the old file keeps reading the weights it opened.
    """
    from dataclasses import asdict

    payload = {}
    manifest = []
    weights = []
    for i, spec in enumerate(snn.layers):
        entry = {
            "kind": spec.kind,
            "stride": spec.stride,
            "padding": spec.padding,
            "kernel_size": spec.kernel_size,
            "is_output": spec.is_output,
            "has_weight": spec.weight is not None,
        }
        if spec.weight is not None:
            payload[f"w/{i}"] = spec.weight
            payload[f"b/{i}"] = spec.bias
            weights.extend((spec.weight, spec.bias))
        manifest.append(entry)
    config_dict = asdict(snn.config)
    header = {
        "format_version": CONVERTED_FORMAT_VERSION,
        "manifest": manifest,
        "config": config_dict,
        "output_scale": snn.output_scale,
        "digest": _converted_digest(manifest, config_dict,
                                    snn.output_scale, weights),
    }
    payload["__header__"] = np.frombuffer(
        json.dumps(header).encode(), dtype=np.uint8
    )
    path = os.fspath(path)
    if not path.endswith(".npz"):    # as np.savez names it
        path += ".npz"
    # write a new file and rename it over the old one: a reader that
    # mapped the old file keeps its inode, and so its weights
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        if compress:
            with open(tmp, "wb") as fh:
                np.savez_compressed(fh, **payload)
        else:
            _savez_aligned(tmp, payload)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _aligned_extra(offset: int, name: str) -> bytes:
    """Local-header extra field that puts a member's data on the boundary.

    A member written at ``offset`` starts its data after the 30-byte
    local header, its name, this field (the zipalign layout: a 4-byte
    block header, the 2-byte alignment, then zero padding) and the
    20-byte zip64 field zipfile appends.  numpy pads each ``.npy``
    header to a multiple of 64 bytes, so the array data lands on
    :data:`MEMBER_ALIGNMENT` too.
    """
    fixed = offset + 30 + len(name.encode()) + 6 + 20
    pad = -fixed % MEMBER_ALIGNMENT
    return (struct.pack("<HHH", _ALIGN_EXTRA_ID, 2 + pad, MEMBER_ALIGNMENT)
            + bytes(pad))


def _savez_aligned(path: str, payload: Dict[str, np.ndarray]) -> None:
    """``np.savez`` whose stored members start on :data:`MEMBER_ALIGNMENT`."""
    with open(path, "wb") as fh, \
            zipfile.ZipFile(fh, "w", zipfile.ZIP_STORED) as zf:
        for key, value in payload.items():
            name = key + ".npy"
            info = zipfile.ZipInfo(name, date_time=time.localtime()[:6])
            info.extra = _aligned_extra(fh.tell(), name)
            with zf.open(info, "w", force_zip64=True) as member:
                np.lib.format.write_array(member, np.asanyarray(value),
                                          allow_pickle=False)


def _npy_member_layout(fh, info: zipfile.ZipInfo):
    """(dtype, shape, fortran, absolute data offset) of a stored member.

    ``fh`` is the open file or an ``mmap`` of it.  ``info.header_offset``
    points at the member's *local* file header, whose own name/extra
    lengths (bytes 26-30) govern where the payload starts — they can
    differ from the central directory's.  The payload is a ``.npy``
    stream: magic, version, header length (2 bytes for format 1.x, 4
    for 2.x+), then a Python-literal header dict.
    """
    fh.seek(info.header_offset)
    local = fh.read(30)
    if len(local) != 30 or local[:4] != b"PK\x03\x04":
        raise ValueError("not a local zip header")
    name_len = int.from_bytes(local[26:28], "little")
    extra_len = int.from_bytes(local[28:30], "little")
    fh.seek(info.header_offset + 30 + name_len + extra_len)
    magic = fh.read(8)
    if magic[:6] != b"\x93NUMPY":
        raise ValueError("member is not a .npy stream")
    major = magic[6]
    header_len = int.from_bytes(fh.read(2 if major == 1 else 4), "little")
    header = ast.literal_eval(fh.read(header_len).decode("latin1"))
    if not isinstance(header, dict):
        raise ValueError(".npy header is not a dict")
    shape = header["shape"]
    # np.lib.format's own test, so a member it rejects never maps
    if not (isinstance(shape, tuple)
            and all(isinstance(dim, int) for dim in shape)):
        raise ValueError(f".npy shape is not valid: {shape!r}")
    try:
        dtype = np.dtype(header["descr"])
    except TypeError:
        raise ValueError(f".npy descr is not a valid dtype: "
                         f"{header['descr']!r}") from None
    if dtype.hasobject or not shape:
        raise ValueError("member is not a mappable plain array")
    return dtype, shape, bool(header["fortran_order"]), fh.tell()


def _member_layouts(zf: zipfile.ZipFile, fh):
    """``(name, info, layout)`` per member; ``layout`` is ``None`` for
    members that cannot be read at an offset (compressed, object-dtype,
    0-d)."""
    for info in zf.infolist():
        layout = None
        if info.compress_type == zipfile.ZIP_STORED:
            try:
                layout = _npy_member_layout(fh, info)
            except (ValueError, SyntaxError, KeyError):
                pass
        # np.load's member names drop the suffix too
        yield info.filename.removesuffix(".npy"), info, layout


def mmap_npz_members(path: PathLike) -> Dict[str, np.ndarray]:
    """Read-only memmaps of every mappable member of an ``.npz`` file.

    Keys drop the ``.npy`` suffix (matching ``np.load``'s member names).
    Compressed, object-dtype or zero-dim members are simply absent —
    callers fall back to a regular load for those.
    """
    out: Dict[str, np.ndarray] = {}
    path = Path(path)
    with open(path, "rb") as fh, zipfile.ZipFile(fh) as zf:
        for name, _, layout in _member_layouts(zf, fh):
            if layout is not None:
                out[name] = _memmap(path, layout)
    return out


def _memmap(path: Path, layout) -> np.memmap:
    dtype, shape, fortran, offset = layout
    return np.memmap(path, dtype=dtype, mode="r", offset=offset,
                     shape=shape, order="F" if fortran else "C")


class _Mapping(mmap.mmap):
    """An ``mmap`` that zipfile can open members of (it asks every file
    whether it is seekable; ``mmap`` only answers from Python 3.13)."""

    def seekable(self) -> bool:
        return True


def _read_once(path: Path, mmap_mode: Optional[str]):
    """The whole file in one read: a private page-aligned copy (an
    anonymous ``MAP_PRIVATE`` map, so a forked child copies a page on
    write as it would a heap array), or with ``mmap_mode="r"`` a
    read-only map of the file."""
    with open(path, "rb", buffering=0) as fh:
        size = os.fstat(fh.fileno()).st_size
        if not size:
            return b""
        if mmap_mode == "r":
            return _Mapping(fh.fileno(), 0, access=mmap.ACCESS_READ)
        buf = _Mapping(-1, size, flags=mmap.MAP_PRIVATE)
        with memoryview(buf) as view:
            done = 0
            while done < size:
                got = fh.readinto(view[done:])
                if not got:     # the file shrank while being read
                    break
                done += got
    return buf


def _npz_members(source, path: Path,
                 mmap_mode: Optional[str]) -> Dict[str, np.ndarray]:
    """Every array member of the ``.npz`` whose bytes are ``source``.

    Stored plain members are parsed at their offsets.  With
    ``mmap_mode="r"`` they are read-only maps of ``path``; otherwise
    views of ``source``, when every one starts on
    :data:`MEMBER_ALIGNMENT`, or aligned copies of them (files written
    before members were aligned).  Compressed, object-dtype and 0-d
    members are decoded the way ``np.load`` decodes them.
    """
    members: Dict[str, np.ndarray] = {}
    layouts = {}
    with zipfile.ZipFile(source if len(source) else io.BytesIO()) as zf:
        for name, info, layout in _member_layouts(zf, source):
            if layout is not None:
                layouts[name] = layout
                continue
            with zf.open(info) as member:
                members[name] = np.lib.format.read_array(
                    member, allow_pickle=False)
    shared = all(layout[3] % MEMBER_ALIGNMENT == 0
                 for layout in layouts.values())
    for name, layout in layouts.items():
        if mmap_mode == "r":
            members[name] = _memmap(path, layout)
            continue
        dtype, shape, fortran, offset = layout
        array = np.frombuffer(source, dtype, math.prod(shape),
                              offset).reshape(shape,
                                              order="F" if fortran else "C")
        members[name] = array if shared else array.copy(order="K")
    return members


def read_converted(path: PathLike, mmap_mode: Optional[str] = None):
    """Read a converted-SNN file once, for a caller that also hashes it.

    Returns ``(content, decode)``: the file's bytes as a memoryview — a
    private page-aligned copy, or with ``mmap_mode="r"`` a read-only
    map — and a zero-argument function that decodes and digest-checks
    the network from that same content, as :func:`load_converted`
    does.  Neither writes to ``content``, so the two can run at once.
    """
    if mmap_mode not in (None, "r"):
        raise ValueError(
            f"mmap_mode must be None or 'r', got {mmap_mode!r} — converted "
            "bundles are immutable, writable maps are not supported")
    path = Path(path)
    try:
        source = _read_once(path, mmap_mode)
    except OSError as exc:
        raise SerializationError(
            f"{path}: not a readable converted-SNN file ({exc})") from None
    return memoryview(source), functools.partial(
        _decode_converted, path, source, mmap_mode)


def load_converted(path: PathLike, mmap_mode: Optional[str] = None):
    """Inverse of :func:`save_converted` (with version + digest checks).

    ``mmap_mode="r"`` maps the weight arrays off the file (read-only,
    page-cache shared across processes) when the bundle was written
    uncompressed; compressed members silently fall back to in-memory
    copies, so the call is safe on any bundle.
    """
    return read_converted(path, mmap_mode)[1]()


def _decode_converted(path: Path, source, mmap_mode: Optional[str]):
    """The network in ``source`` (the bytes of ``path``), digest-checked."""
    from ..cat.convert import ConvertedSNN, LayerSpec
    from ..cat.schedule import CATConfig

    try:
        data = _npz_members(source, path, mmap_mode)
    except (OSError, ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise SerializationError(
            f"{path}: not a readable converted-SNN file ({exc})") from None
    if "__header__" not in data:
        raise SerializationError(
            f"{path}: no __header__ entry — truncated, or not a "
            "converted-SNN file saved by save_converted()")
    try:
        header = json.loads(bytes(data["__header__"]).decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SerializationError(
            f"{path}: corrupted header ({exc})") from None
    found = header.get("format_version")
    if found != CONVERTED_FORMAT_VERSION:
        raise SerializationError(
            f"{path}: converted-SNN format version mismatch — "
            f"expected {CONVERTED_FORMAT_VERSION}, found "
            f"{'none (pre-versioning file)' if found is None else found}"
            "; re-export the bundle with this checkout's "
            "save_converted()")
    layers = []
    weights = []
    try:
        for i, entry in enumerate(header["manifest"]):
            weight = data[f"w/{i}"] if entry["has_weight"] else None
            bias = data[f"b/{i}"] if entry["has_weight"] else None
            if weight is not None:
                weights.extend((weight, bias))
            layers.append(LayerSpec(
                kind=entry["kind"], weight=weight, bias=bias,
                stride=entry["stride"], padding=entry["padding"],
                kernel_size=entry["kernel_size"],
                is_output=entry["is_output"],
            ))
        config_dict = header["config"]
        output_scale = header["output_scale"]
        expected_digest = header["digest"]
    except KeyError as exc:
        raise SerializationError(
            f"{path}: missing entry {exc.args[0]!r} — the file is "
            "truncated or was written by an incompatible "
            "save_converted()") from None
    actual = _converted_digest(header["manifest"], config_dict,
                               output_scale, weights)
    if actual != expected_digest:
        raise SerializationError(
            f"{path}: content digest mismatch — header says "
            f"{expected_digest[:12]}…, file hashes to {actual[:12]}… "
            "(corrupted or hand-edited bundle)")
    config_kwargs = dict(config_dict)
    # JSON round-trips tuples as lists; CATConfig stores milestones as a
    # tuple and compares by value.
    config_kwargs["milestones"] = tuple(config_kwargs["milestones"])
    config = CATConfig(**config_kwargs)
    snn = ConvertedSNN(layers=layers, config=config)
    snn.output_scale = output_scale
    return snn
