"""Sharded on-disk dataset format for paper-scale training.

The in-memory :class:`~repro.data.datasets.Dataset` caps training-set
size at available RAM.  This module writes a dataset out as a directory
of fixed-size **shards** — uncompressed (``ZIP_STORED``) ``.npz`` files
whose members are memory-mappable through the same zip-layout parser the
serving fleet uses for weight bundles
(:func:`repro.nn.serialization.mmap_npz_members`) — plus a
``shards.json`` manifest describing the splits.

The format follows the repo's artifact discipline:

* **versioned** — the manifest records ``format_version``
  (:data:`SHARD_FORMAT_VERSION`); other versions are refused with an
  actionable :class:`ShardError` instead of mis-decoding.
* **digested** — each shard carries a content digest of its arrays
  (verified lazily, once, on first access) and the manifest carries a
  digest over its own body, so a tampered or torn directory fails
  loudly.  The manifest digest doubles as the dataset's content key for
  the pipeline stage cache.
* **streamable** — :meth:`ShardedDataset.gather_train` maps only the
  shards a batch touches and drops the mappings immediately after the
  row gather, so the training loop's resident set stays near one
  shard + one batch rather than the whole split.

``write_shards`` / ``open_shards`` round-trip losslessly: materialising
every split of an opened directory reproduces the source arrays bit for
bit, in order.
"""

from __future__ import annotations

import json
import os
import zipfile
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..errors import ReproError
from ..nn.serialization import mmap_npz_members
from ..util import read_json_object

PathLike = Union[str, Path]

#: Bump when the on-disk shard layout changes.  ``open_shards`` refuses
#: other versions with an actionable error instead of mis-decoding.
SHARD_FORMAT_VERSION = 1

#: Manifest file name inside a shard directory.
MANIFEST_NAME = "shards.json"


class ShardError(ReproError):
    """A shard directory could not be decoded (message says why)."""


def _digest(*parts) -> str:
    """Content hash under the shard format's namespace tag."""
    from ..engine.cache import digest  # deferred: engine is a heavier import

    return digest("dataset-shards", SHARD_FORMAT_VERSION, *parts)


def _shard_digest(images: np.ndarray, labels: np.ndarray) -> str:
    return _digest(np.asarray(images), np.asarray(labels))


def _manifest_digest(manifest: Dict) -> str:
    body = {k: v for k, v in manifest.items() if k != "digest"}
    return _digest(body)


# ----------------------------------------------------------------------
# Writing
# ----------------------------------------------------------------------

def write_shards(dataset, out_dir: PathLike, shard_size: int = 512,
                 force: bool = False) -> Path:
    """Write an in-memory dataset as a shard directory; returns the path.

    ``shard_size`` bounds the number of images per shard file (and hence
    the streaming reader's per-gather mapping footprint).  An existing
    shard directory is refused unless ``force`` is given.  The manifest
    is written last, atomically — its presence marks the directory
    complete, so a crashed write is recognisably unfinished.
    """
    if shard_size < 1:
        raise ValueError(f"shard_size must be >= 1, got {shard_size}")
    out_dir = Path(out_dir)
    manifest_path = out_dir / MANIFEST_NAME
    if manifest_path.exists() and not force:
        raise ShardError(
            f"{out_dir} already holds a shard manifest; pass force=True "
            f"(or --force) to overwrite it")
    out_dir.mkdir(parents=True, exist_ok=True)

    splits = {}
    arrays = {
        "train": (np.ascontiguousarray(dataset.train_x),
                  np.ascontiguousarray(dataset.train_y)),
        "test": (np.ascontiguousarray(dataset.test_x),
                 np.ascontiguousarray(dataset.test_y)),
    }
    for split, (images, labels) in arrays.items():
        if len(images) != len(labels):
            raise ValueError(f"{split}: images and labels length mismatch")
        entries: List[Dict] = []
        for start in range(0, len(labels), shard_size):
            chunk_x = images[start : start + shard_size]
            chunk_y = labels[start : start + shard_size]
            fname = f"{split}-{len(entries):05d}.npz"
            # np.savez => ZIP_STORED members, i.e. memory-mappable later.
            np.savez(out_dir / fname, images=chunk_x, labels=chunk_y)
            entries.append({
                "file": fname,
                "num_images": int(len(chunk_y)),
                "digest": _shard_digest(chunk_x, chunk_y),
            })
        splits[split] = {"num_images": int(len(labels)), "shards": entries}

    train_x, train_y = arrays["train"]
    manifest = {
        "format_version": SHARD_FORMAT_VERSION,
        "name": dataset.name,
        "num_classes": int(dataset.num_classes),
        "image_shape": [int(d) for d in train_x.shape[1:]],
        "dtypes": {"images": train_x.dtype.str, "labels": train_y.dtype.str},
        "meta": dict(getattr(dataset, "meta", {}) or {}),
        "splits": splits,
    }
    manifest["digest"] = _manifest_digest(manifest)
    tmp = out_dir / f"{MANIFEST_NAME}.{os.getpid()}.tmp"
    tmp.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    os.replace(tmp, manifest_path)
    return out_dir


# ----------------------------------------------------------------------
# Reading
# ----------------------------------------------------------------------

class ShardedDataset:
    """Lazy view over a shard directory, Dataset-compatible where cheap.

    Labels are loaded eagerly (they are tiny and the loader needs them
    every epoch); train images are gathered shard-by-shard on demand
    through transient memmaps; the test split is materialised once on
    first use (evaluation touches all of it every epoch anyway).

    Construct via :func:`open_shards`.
    """

    def __init__(self, root: Path, manifest: Dict):
        self.root = root
        self.name: str = manifest["name"]
        self.num_classes: int = int(manifest["num_classes"])
        self.meta: Dict = manifest.get("meta", {})
        self._manifest = manifest
        self._shape = tuple(int(d) for d in manifest["image_shape"])
        self._image_dtype = np.dtype(manifest["dtypes"]["images"])
        self._label_dtype = np.dtype(manifest["dtypes"]["labels"])
        self._verified: set = set()
        # (split, idx) -> ((dtype, shape, offset) per member), memoised
        # on first open so later gathers mmap directly at the recorded
        # zip offsets instead of re-parsing the archive directory.
        self._layouts: Dict[Tuple[str, int], Tuple] = {}
        # Cumulative start index of each train shard, for index -> shard
        # routing in gather_train.
        counts = [e["num_images"]
                  for e in manifest["splits"]["train"]["shards"]]
        self._train_starts = np.concatenate(
            ([0], np.cumsum(counts))).astype(np.int64)
        self.train_y = self._load_labels("train")
        self._test: Optional[Tuple[np.ndarray, np.ndarray]] = None

    # -- identity ------------------------------------------------------
    @property
    def image_shape(self) -> Tuple[int, ...]:
        return self._shape

    @property
    def content_digest(self) -> str:
        """Manifest digest — the dataset's content key for stage caches."""
        return self._manifest["digest"]

    @property
    def manifest(self) -> Dict:
        """The decoded ``shards.json`` (treat as read-only)."""
        return self._manifest

    def verify(self) -> int:
        """Digest-check every shard of every split; returns the count.

        Raises :class:`ShardError` on the first shard whose content no
        longer matches its manifest digest (``repro shards --info`` runs
        this as an integrity audit).
        """
        count = 0
        for split in self._manifest["splits"]:
            for idx in range(len(self._entries(split))):
                self._open_shard(split, idx)
                count += 1
        return count

    @property
    def num_train(self) -> int:
        return int(self._manifest["splits"]["train"]["num_images"])

    @property
    def num_test(self) -> int:
        return int(self._manifest["splits"]["test"]["num_images"])

    def __repr__(self) -> str:
        return (
            f"ShardedDataset({self.name}, classes={self.num_classes}, "
            f"train={self.num_train}, test={self.num_test}, "
            f"shape={self.image_shape}, root={self.root})"
        )

    # -- shard access --------------------------------------------------
    def _entries(self, split: str) -> List[Dict]:
        return self._manifest["splits"][split]["shards"]

    def _open_shard(self, split: str, idx: int
                    ) -> Tuple[np.ndarray, np.ndarray]:
        """Memmapped (images, labels) of one shard, digest-checked once.

        The returned arrays are read-only views onto the file; callers
        copy the rows they need and drop the references so the mapping
        is released immediately (keeping the resident set near one
        shard at a time).

        The first open of a shard parses its zip directory, checks the
        geometry against the manifest, and verifies the content digest.
        Every later open replays the memoised member layout straight
        into :class:`numpy.memmap` — a per-batch gather touches each
        shard at the cost of two mmap calls, not a zip parse.
        """
        entry = self._entries(split)[idx]
        path = self.root / entry["file"]
        key = (split, idx)
        layout = self._layouts.get(key)
        if layout is not None:
            try:
                return tuple(
                    np.memmap(path, dtype=dtype, mode="r",
                              offset=offset, shape=shape)
                    for dtype, shape, offset in layout)
            except FileNotFoundError:
                raise ShardError(
                    f"{path} is missing; the shard directory is "
                    f"incomplete — re-run write_shards (repro shards)"
                ) from None
            except (OSError, ValueError) as exc:
                raise ShardError(
                    f"{path} is not a readable shard ({exc}); the file "
                    f"is truncated or corrupt — re-run write_shards"
                ) from None
        try:
            members = mmap_npz_members(path)
        except FileNotFoundError:
            raise ShardError(
                f"{path} is missing; the shard directory is incomplete — "
                f"re-run write_shards (repro shards)") from None
        except (zipfile.BadZipFile, OSError, ValueError) as exc:
            raise ShardError(
                f"{path} is not a readable shard ({exc}); the file is "
                f"truncated or corrupt — re-run write_shards") from None
        try:
            images, labels = members["images"], members["labels"]
        except KeyError as exc:
            raise ShardError(
                f"{path} lacks member {exc.args[0]!r}; not a shard file "
                f"written by write_shards") from None
        if (images.shape[1:] != self._shape
                or images.dtype != self._image_dtype
                or labels.dtype != self._label_dtype
                or len(images) != entry["num_images"]
                or len(labels) != entry["num_images"]):
            raise ShardError(
                f"{path} geometry disagrees with the manifest "
                f"(got images {images.dtype}{images.shape}, labels "
                f"{labels.dtype}{labels.shape}; expected "
                f"{entry['num_images']} images of "
                f"{self._image_dtype}{self._shape}) — the directory "
                f"mixes incompatible writes")
        if key not in self._verified:
            if _shard_digest(images, labels) != entry["digest"]:
                raise ShardError(
                    f"{path} content digest mismatch — the shard was "
                    f"modified after write_shards; regenerate the "
                    f"directory")
            self._verified.add(key)
        self._layouts[key] = tuple(
            (arr.dtype, arr.shape, arr.offset) for arr in (images, labels))
        return images, labels

    def _load_labels(self, split: str) -> np.ndarray:
        n = int(self._manifest["splits"][split]["num_images"])
        out = np.empty(n, dtype=self._label_dtype)
        pos = 0
        for idx in range(len(self._entries(split))):
            _, labels = self._open_shard(split, idx)
            out[pos : pos + len(labels)] = labels
            pos += len(labels)
        if pos != n:
            raise ShardError(
                f"{self.root}: {split} shards hold {pos} labels but the "
                f"manifest promises {n}")
        return out

    def gather_train(self, indices: np.ndarray) -> np.ndarray:
        """Copy the train images at ``indices`` (any order, with repeats).

        Routes each index to its shard, maps every touched shard once,
        gathers its rows, and releases the mapping — the resident cost
        of a gather is one shard plus the output batch.
        """
        indices = np.asarray(indices, dtype=np.int64)
        out = np.empty((len(indices),) + self._shape, dtype=self._image_dtype)
        shard_of = np.searchsorted(self._train_starts, indices,
                                   side="right") - 1
        for s in np.unique(shard_of):
            sel = np.flatnonzero(shard_of == s)
            images, _ = self._open_shard("train", int(s))
            out[sel] = images[indices[sel] - self._train_starts[s]]
            del images  # drop the memmap before touching the next shard
        return out

    def train_head(self, n: int) -> np.ndarray:
        """First ``n`` train images (calibration batches, previews)."""
        return self.gather_train(np.arange(min(n, self.num_train)))

    # -- test split ----------------------------------------------------
    def _materialise_test(self) -> Tuple[np.ndarray, np.ndarray]:
        if self._test is None:
            n = self.num_test
            images = np.empty((n,) + self._shape, dtype=self._image_dtype)
            all_labels = np.empty(n, dtype=self._label_dtype)
            pos = 0
            for idx in range(len(self._entries("test"))):
                imgs, labels = self._open_shard("test", idx)
                images[pos : pos + len(labels)] = imgs
                all_labels[pos : pos + len(labels)] = labels
                pos += len(labels)
            if pos != n:
                raise ShardError(
                    f"{self.root}: test shards hold {pos} images but the "
                    f"manifest promises {n}")
            self._test = (images, all_labels)
        return self._test

    @property
    def test_x(self) -> np.ndarray:
        return self._materialise_test()[0]

    @property
    def test_y(self) -> np.ndarray:
        return self._materialise_test()[1]


def open_shards(path: PathLike) -> ShardedDataset:
    """Open a shard directory (or its manifest file) for streaming reads.

    Validates the manifest's format version and body digest up front;
    per-shard content digests are checked lazily on each shard's first
    access.
    """
    path = Path(path)
    manifest_path = path / MANIFEST_NAME if path.is_dir() else path
    root = manifest_path.parent
    if not manifest_path.is_file():
        raise ShardError(
            f"{manifest_path} not found — not a shard directory (write "
            f"one with write_shards / repro shards)")
    manifest = read_json_object(manifest_path, ShardError,
                                "shard manifest (re-run write_shards)")
    version = manifest.get("format_version")
    if version != SHARD_FORMAT_VERSION:
        raise ShardError(
            f"{manifest_path} has shard format version {version!r}; this "
            f"build reads version {SHARD_FORMAT_VERSION} — regenerate the "
            f"directory with write_shards")
    missing = [k for k in ("name", "num_classes", "image_shape", "dtypes",
                           "splits", "digest") if k not in manifest]
    if missing:
        raise ShardError(
            f"{manifest_path} lacks required keys {missing}; not a "
            f"manifest written by write_shards")
    if _manifest_digest(manifest) != manifest["digest"]:
        raise ShardError(
            f"{manifest_path} body digest mismatch — the manifest was "
            f"edited after write_shards; regenerate the directory")
    return ShardedDataset(root, manifest)
