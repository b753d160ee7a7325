"""Persistent, versioned on-disk linkage store.

:class:`LinkageStore` is the one home of the Omega tuples the fingerprint
stage produces (:class:`~repro.core.linkage.LinkageTable`), kept on disk
so it scales to millions of fingerprints:

* **append-only segments** — every :meth:`LinkageStore.append` writes one
  immutable segment: a fingerprint matrix (``.npy``, reopened
  memory-mapped) plus a canonical-JSON metadata sidecar with the labels,
  sources, instance digests, source indices, and kinds; both are durable
  (fsynced and renamed into place) before the manifest names them;
* **content addressing** — each segment is identified by
  :func:`~repro.core.linkage.segment_digest` over its matrix and
  metadata; the manifest lists segments in order and the whole store
  state is committed by :meth:`manifest_digest`;
* **sealing boundary** — the fingerprinting enclave can seal the manifest
  digest to its identity (:meth:`seal_manifest`), so a verifier can later
  check that the out-of-enclave serving plane answers queries from
  exactly the database the enclave produced (:meth:`verify_sealed_manifest`).

Integrity checks are fail-closed: :meth:`verify` raises
:class:`~repro.errors.StoreError` on the first digest mismatch.
"""

from __future__ import annotations

import bisect
import io
import json
import os
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.linkage import LinkageRecord, LinkageTable, segment_digest
from repro.errors import LinkageError, SealingError, StoreError
from repro.utils.fileio import atomic_write_bytes, atomic_write_text
from repro.utils.serialization import canonical_digest

__all__ = ["SegmentInfo", "LinkageStore"]

_MANIFEST = "manifest.json"
_FORMAT = 1


@dataclass(frozen=True)
class SegmentInfo:
    """One manifest entry: an immutable, content-addressed segment."""

    name: str
    records: int
    digest: str  # hex SHA-256 over (fingerprint matrix, metadata JSON)


class _Segment:
    """A loaded segment: memory-mapped matrix plus decoded metadata."""

    def __init__(self, info: SegmentInfo, fingerprints: np.ndarray,
                 meta: Dict[str, list], offset: int) -> None:
        self.info = info
        self.fingerprints = fingerprints  # (n, d) float32, usually a memmap
        self.labels = np.asarray(meta["labels"], dtype=np.int64)
        self.sources: List[str] = meta["sources"]
        self.digests: List[str] = meta["digests"]
        self.source_indices: List[int] = meta["source_indices"]
        self.kinds: List[str] = meta["kinds"]
        self.offset = offset  # global index of this segment's first record


class LinkageStore:
    """Append-only segment store for Omega tuples, mmap-backed for queries.

    Use :meth:`create` to start a store, :meth:`open` to load one, and
    :meth:`append` to add records; already-written segments are never
    modified. ``version`` increases by one per append, so index layers can
    cheaply detect growth.
    """

    def __init__(self, path: Path, manifest: dict,
                 segments: List[_Segment]) -> None:
        self.path = path
        self._manifest = manifest
        self._segments = segments
        self._offsets = [s.offset for s in segments]
        self._label_counts: Dict[int, int] = {}
        # Serialises append against concurrent readers: the incremental
        # index refreshes while the serving plane keeps answering, so
        # `_segments`/`_offsets` must never be observed mid-append.
        self._lock = threading.RLock()
        for segment in segments:
            self._index_segment(segment)

    # -- lifecycle ---------------------------------------------------------------

    @classmethod
    def create(cls, path: os.PathLike) -> "LinkageStore":
        """Initialise an empty store at ``path`` (created if missing)."""
        root = Path(path)
        root.mkdir(parents=True, exist_ok=True)
        if (root / _MANIFEST).exists():
            raise StoreError(f"a linkage store already exists at {root}")
        manifest = {"format": _FORMAT, "version": 0, "dimension": None,
                    "segments": []}
        store = cls(root, manifest, [])
        store._write_manifest()
        return store

    @classmethod
    def open(cls, path: os.PathLike, verify: bool = True) -> "LinkageStore":
        """Load a store, memory-mapping every segment matrix.

        ``verify=True`` (the default) recomputes every segment digest
        against the manifest before serving anything — fail-closed.
        """
        root = Path(path)
        manifest_path = root / _MANIFEST
        if not manifest_path.exists():
            raise StoreError(f"no linkage store at {root}")
        manifest = json.loads(manifest_path.read_text())
        if manifest.get("format") != _FORMAT:
            raise StoreError(
                f"unsupported store format {manifest.get('format')!r}"
            )
        segments: List[_Segment] = []
        offset = 0
        for entry in manifest["segments"]:
            info = SegmentInfo(name=entry["name"], records=entry["records"],
                               digest=entry["digest"])
            segment = cls._load_segment(root, info, offset)
            segments.append(segment)
            offset += info.records
        store = cls(root, manifest, segments)
        if verify:
            store.verify()
        return store

    @classmethod
    def _load_segment(cls, root: Path, info: SegmentInfo,
                      offset: int) -> _Segment:
        matrix_path = root / f"{info.name}.npy"
        meta_path = root / f"{info.name}.meta.json"
        if not matrix_path.exists() or not meta_path.exists():
            raise StoreError(f"segment {info.name} is missing on disk")
        fingerprints = np.load(matrix_path, mmap_mode="r")
        meta = json.loads(meta_path.read_text())
        if fingerprints.shape[0] != info.records:
            raise StoreError(
                f"segment {info.name} has {fingerprints.shape[0]} rows, "
                f"manifest says {info.records}"
            )
        return _Segment(info, fingerprints, meta, offset)

    def _index_segment(self, segment: _Segment) -> None:
        labels, counts = np.unique(segment.labels, return_counts=True)
        for label, count in zip(labels.tolist(), counts.tolist()):
            self._label_counts[label] = (self._label_counts.get(label, 0)
                                         + count)

    def _write_manifest(self) -> None:
        payload = json.dumps(self._manifest, indent=2, sort_keys=True)
        atomic_write_text(self.path / _MANIFEST, payload)

    # -- writes ------------------------------------------------------------------

    def append(self, fingerprints: np.ndarray, labels: Sequence[int],
               sources: Sequence[str], digests: Sequence[bytes],
               source_indices: Optional[Sequence[int]] = None,
               kinds: Optional[Sequence[str]] = None) -> SegmentInfo:
        """Write one immutable segment; returns its manifest entry."""
        try:
            table = LinkageTable(fingerprints, labels, sources, digests,
                                 source_indices, kinds)
        except LinkageError as exc:
            raise StoreError(f"segment columns do not line up: {exc}") from exc
        return self._append(table)

    def _append(self, table: LinkageTable) -> SegmentInfo:
        if len(table) == 0:
            raise StoreError("a segment needs a non-empty (n, d) matrix")
        with self._lock:
            dimension = self._manifest["dimension"]
            if dimension is None:
                self._manifest["dimension"] = table.dimension
            elif table.dimension != dimension:
                raise StoreError(
                    f"fingerprint dimension {table.dimension} does not match "
                    f"store dimension {dimension}"
                )
        meta_bytes = table.metadata()
        matrix_bytes = io.BytesIO()
        np.save(matrix_bytes, table.fingerprints)
        with self._lock:
            name = f"segment-{len(self._segments):06d}"
            # Both files are durable before the manifest names them: a
            # crash in between leaves an unnamed orphan, never a store
            # that open() refuses.
            atomic_write_bytes(self.path / f"{name}.npy",
                               matrix_bytes.getvalue())
            atomic_write_bytes(self.path / f"{name}.meta.json", meta_bytes)
            info = SegmentInfo(
                name=name, records=len(table),
                digest=segment_digest(table.fingerprints, meta_bytes),
            )
            self._manifest["segments"].append(
                {"name": info.name, "records": info.records,
                 "digest": info.digest}
            )
            self._manifest["version"] += 1
            self._write_manifest()
            offset = len(self)
            segment = self._load_segment(self.path, info, offset)
            self._segments.append(segment)
            self._offsets.append(offset)
            self._index_segment(segment)
        return info

    @classmethod
    def from_database(cls, path: os.PathLike, table: LinkageTable,
                      segment_records: int = 65536) -> "LinkageStore":
        """Persist the fingerprint stage's table, chunked into segments.

        A table of at most ``segment_records`` rows becomes one segment
        whose digest is the fingerprint stage's audit commitment.
        """
        store = cls.create(path)
        for start in range(0, len(table), segment_records):
            store._append(table.slice(start, start + segment_records))
        return store

    # -- reads -------------------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return sum(s.info.records for s in self._segments)

    @property
    def version(self) -> int:
        return self._manifest["version"]

    @property
    def dimension(self) -> Optional[int]:
        return self._manifest["dimension"]

    @property
    def segments(self) -> List[SegmentInfo]:
        with self._lock:
            return [s.info for s in self._segments]

    @property
    def segment_count(self) -> int:
        """Committed segment count — the cheap form of
        ``len(segment_digests())`` for per-query scale checks."""
        with self._lock:
            return len(self._segments)

    def segment_digests(self) -> List[str]:
        """Ordered hex digests of every committed segment — the store's
        authoritative history prefix, read atomically."""
        with self._lock:
            return [s.info.digest for s in self._segments]

    def segment_slice(self, start: int, stop: int
                      ) -> Tuple[np.ndarray, np.ndarray, np.ndarray,
                                 List[str]]:
        """Rows of store segments ``[start, stop)`` for index builds.

        Returns ``(matrix, labels, global_indices, digests)`` with rows
        in commit order — global indices ascend, so per-label slices
        preserve the insertion-order tie-break the index depends on.
        """
        with self._lock:
            segs = list(self._segments[start:stop])
        if len(segs) != stop - start:
            raise StoreError(
                f"segment slice [{start}, {stop}) exceeds the "
                f"{start + len(segs)} committed segments"
            )
        if not segs:
            dim = self.dimension or 0
            return (np.zeros((0, dim), dtype=np.float32),
                    np.zeros(0, dtype=np.int64),
                    np.zeros(0, dtype=np.int64), [])
        matrix = np.concatenate([
            np.ascontiguousarray(np.asarray(s.fingerprints, dtype=np.float32))
            for s in segs
        ])
        labels = np.concatenate([s.labels for s in segs])
        indices = np.concatenate([
            np.arange(s.offset, s.offset + s.info.records, dtype=np.int64)
            for s in segs
        ])
        return matrix, labels, indices, [s.info.digest for s in segs]

    def labels(self) -> List[int]:
        with self._lock:
            return sorted(self._label_counts)

    def count(self, label: int) -> int:
        with self._lock:
            return self._label_counts.get(int(label), 0)

    def by_label(self, label: int) -> Tuple[np.ndarray, List[int]]:
        """(fingerprint matrix, global record indices) for one label.

        Rows are gathered from the memory-mapped segments in insertion
        order, so a stable ranking over them breaks ties by record index.
        """
        label = int(label)
        with self._lock:
            total = self._label_counts.get(label, 0)
            segments = list(self._segments)
        if not total:
            return np.zeros((0, self.dimension or 0), dtype=np.float32), []
        matrix = np.empty((total, self.dimension), dtype=np.float32)
        indices: List[int] = []
        for segment in segments:
            rows = np.flatnonzero(segment.labels == label)
            matrix[len(indices):len(indices) + rows.size] = (
                segment.fingerprints[rows])
            indices.extend((rows + segment.offset).tolist())
        return matrix, indices

    def fingerprints_at(self, indices: Sequence[int]
                        ) -> Tuple[np.ndarray, np.ndarray]:
        """(fingerprint rows, labels) by global index, one gather per
        segment, straight off the mmap.

        Much cheaper than :meth:`record` (no metadata decode, no
        LinkageRecord construction) — this is the authoritative-read
        primitive the cluster router uses to re-verify every hit of a
        whole ``query_many`` batch, distance and label, in a single
        vectorised pass against the store the enclave sealed.
        """
        idx = np.asarray(indices, dtype=np.int64).ravel()
        if idx.size == 0:
            return (np.zeros((0, self.dimension or 0), dtype=np.float32),
                    np.zeros(0, dtype=np.int64))
        with self._lock:
            offsets = list(self._offsets)
            segments = list(self._segments)
            total = sum(s.info.records for s in segments)
        if int(idx.min()) < 0 or int(idx.max()) >= total:
            raise StoreError("record index out of range")
        out = np.empty((idx.size, self.dimension), dtype=np.float32)
        labels = np.empty(idx.size, dtype=np.int64)
        seg_pos = np.searchsorted(offsets, idx, side="right") - 1
        for pos in np.unique(seg_pos):
            segment = segments[pos]
            mask = seg_pos == pos
            rows = idx[mask] - segment.offset
            out[mask] = np.asarray(segment.fingerprints,
                                   dtype=np.float32)[rows]
            labels[mask] = segment.labels[rows]
        return out, labels

    def record(self, index: int) -> LinkageRecord:
        """Materialise one Omega tuple by its global record index."""
        with self._lock:
            if not 0 <= index < len(self):
                raise StoreError(f"record index {index} out of range")
            seg_pos = bisect.bisect_right(self._offsets, index) - 1
            segment = self._segments[seg_pos]
        row = index - segment.offset
        return LinkageRecord(
            fingerprint=np.array(segment.fingerprints[row], dtype=np.float32),
            label=int(segment.labels[row]),
            source=segment.sources[row],
            digest=bytes.fromhex(segment.digests[row]),
            source_index=segment.source_indices[row],
            kind=segment.kinds[row],
        )

    # -- integrity and the sealing boundary --------------------------------------

    def verify(self) -> bool:
        """Recompute every segment digest from disk bytes; fail-closed."""
        with self._lock:
            segments = list(self._segments)
        for segment in segments:
            matrix = np.ascontiguousarray(
                np.asarray(segment.fingerprints, dtype=np.float32)
            )
            meta_bytes = (
                self.path / f"{segment.info.name}.meta.json"
            ).read_bytes()
            actual = segment_digest(matrix, meta_bytes)
            if actual != segment.info.digest:
                raise StoreError(
                    f"segment {segment.info.name} failed its digest check "
                    f"(tampered or corrupted)"
                )
        return True

    def manifest_digest(self) -> bytes:
        """A content address for the entire store state.

        Commits to the ordered segment digests, the dimension, and the
        version — two stores with the same manifest digest serve
        byte-identical fingerprint data.
        """
        with self._lock:
            return canonical_digest({
                "format": self._manifest["format"],
                "version": self._manifest["version"],
                "dimension": self._manifest["dimension"],
                "segments": [s["digest"] for s in self._manifest["segments"]],
            })

    def seal_manifest(self, enclave):
        """Seal the manifest digest to ``enclave``'s identity.

        The fingerprinting enclave calls this after producing the store;
        anyone holding the sealed blob can later prove (via
        :meth:`verify_sealed_manifest` inside the same enclave identity)
        that the serving plane still answers from that exact database.
        """
        from repro.enclave.sealing import seal

        return seal(enclave, self.manifest_digest())

    def verify_sealed_manifest(self, enclave, blob) -> bool:
        """Check the current store state against a sealed manifest digest."""
        from repro.enclave.sealing import unseal

        try:
            return unseal(enclave, blob) == self.manifest_digest()
        except SealingError:
            return False
