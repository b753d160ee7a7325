"""The append-only, content-addressed contribution ledger.

Validated encrypted records are the system of record for training: a
segment is written once — at upload-session commit — and never modified.
The format mirrors :class:`repro.serving.store.LinkageStore`:

* **append-only segments** — a ``.bin`` file of packed records (each
  one's source, index, label, nonce and sealed payload, length-prefixed)
  plus a canonical-JSON metadata sidecar carrying ``contributor``,
  ``records`` (the count), ``digests`` (one hex content digest per
  record, in payload order) and ``reason`` (quarantine lane only); both
  files are durable before the manifest names them;
* **content addressing** — a record is identified by its content digest
  (:func:`header_digest` over its canonical header and sealed bytes),
  the only SHA-256 pass over a record's bytes outside the enclave's tag
  check; a segment is identified by the digest of its metadata sidecar,
  which lists every record digest in payload order, so the segment
  identity commits to every payload byte through them; the manifest
  lists committed segments and quarantined segments in separate lanes,
  and the whole ledger state is committed by :meth:`manifest_digest`;
* **sealing boundary** — the training enclave can seal the manifest
  digest to its identity (:meth:`seal_manifest`), so a verifier can later
  prove training consumed exactly the records the validation pipeline
  admitted (:meth:`verify_sealed_manifest`).

Quarantined records (tampered, relabelled, malformed, duplicated) live in
their own lane: they are preserved as forensic evidence with the reason
they were refused, but :meth:`iter_records` — the path training reads —
never yields them.

Integrity checks are fail-closed: :meth:`verify` re-derives every
record digest from the payload frames in place and raises
:class:`~repro.errors.LedgerError` on the first mismatch with a sidecar,
or on a sidecar that no longer matches its segment digest. A ledger
written in an older format is refused the same way.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.data.encryption import EncryptedRecord
from repro.errors import LedgerError, SealingError
from repro.utils.fileio import atomic_write_bytes, atomic_write_text
from repro.utils.serialization import canonical_digest, canonical_json

__all__ = [
    "LEDGER_FORMAT",
    "LedgerSegmentInfo",
    "ContributionLedger",
    "pack_records",
    "unpack_records",
    "record_digest",
    "unpack_headed", "record_header", "header_digest", "record_identities",
    "iter_packed", "packed_frames",
]

_MANIFEST = "manifest.json"
#: 2: a segment's digest is over its sidecar (which lists the record
#: digests) rather than over the payload bytes and sidecar.
LEDGER_FORMAT = 2

_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")


def record_header(record: EncryptedRecord) -> bytes:
    """A record's canonical header: the ``meta-json`` of its packed frame."""
    return canonical_json({"source": record.source_id, "index": record.index,
                           "label": record.label, "nonce": record.nonce.hex()})


def header_digest(header, sealed) -> bytes:
    """A record's content digest from its canonical header, with no JSON.

    Byte for byte ``canonical_digest(header, sealed)``, over any buffers,
    so a payload's frames are hashed where they lie.
    """
    hasher = hashlib.sha256(_U64.pack(len(header)))
    hasher.update(header)
    hasher.update(_U64.pack(len(sealed)))
    hasher.update(sealed)
    return hasher.digest()


def record_digest(record: EncryptedRecord) -> bytes:
    """Content address of one encrypted record (dedup + audit identity)."""
    return header_digest(record_header(record), record.sealed)


def record_identities(records: Sequence[EncryptedRecord],
                      digests: Optional[Sequence[bytes]] = None,
                      headers: Optional[Sequence[bytes]] = None):
    """``(digests, headers)``: those carried beside ``records`` — or, for
    bare records, computed here, once, at the caller's door."""
    if headers is None:
        headers = [record_header(record) for record in records]
    if digests is None:
        digests = [header_digest(header, record.sealed)
                   for header, record in zip(headers, records)]
    if not len(digests) == len(headers) == len(records):
        raise LedgerError(f"{len(digests)} digests carried beside "
                          f"{len(records)} records, {len(headers)} headers")
    return digests, headers


def iter_packed(records: Sequence[EncryptedRecord],
                headers: Optional[Sequence[bytes]] = None) -> Iterator[bytes]:
    """:func:`pack_records`'s bytes, frame by frame, never joined."""
    if headers is None:
        headers = [record_header(record) for record in records]
    yield _U32.pack(len(records))
    for record, header in zip(records, headers):
        yield _U32.pack(len(header)) + header + _U64.pack(len(record.sealed))
        yield record.sealed


def pack_records(records: Sequence[EncryptedRecord],
                 headers: Optional[Sequence[bytes]] = None) -> bytes:
    """Serialize records to one canonical blob (chunk and segment payloads).

    Layout: ``count | (meta-len | meta-json | sealed-len | sealed)...`` —
    everything length-prefixed, so equal record sequences always produce
    equal bytes. ``meta-json`` is ``headers``, else :func:`record_header`.
    """
    return b"".join(iter_packed(records, headers))


def packed_frames(blob: bytes) -> List[Tuple[memoryview, memoryview]]:
    """A packed payload's ``(meta-json, sealed)`` frames, as views into
    ``blob``: no JSON, no copies. Raises :class:`LedgerError` unless
    ``blob`` is exactly ``count`` well-formed frames."""
    view = memoryview(blob)
    out: List[Tuple[memoryview, memoryview]] = []
    try:
        (count,) = _U32.unpack_from(view, 0)
        offset = 4
        for _ in range(count):
            (meta_len,) = _U32.unpack_from(view, offset)
            header = view[offset + 4 : offset + 4 + meta_len]
            offset += 4 + meta_len
            (sealed_len,) = _U64.unpack_from(view, offset)
            sealed = view[offset + 8 : offset + 8 + sealed_len]
            offset += 8 + sealed_len
            if len(header) != meta_len or len(sealed) != sealed_len:
                raise LedgerError("a packed frame runs past the payload end")
            out.append((header, sealed))
    except struct.error:
        raise LedgerError("a packed payload is cut short") from None
    if offset != len(view):
        raise LedgerError("trailing bytes after the last packed record")
    return out


def unpack_headed(blob: bytes) -> Tuple[List[EncryptedRecord], List[bytes]]:
    """Inverse of :func:`pack_records`, plus each frame's ``meta-json``."""
    records: List[EncryptedRecord] = []
    headers: List[bytes] = []
    for header, sealed in packed_frames(blob):
        header = bytes(header)
        meta = json.loads(header.decode("utf-8"))
        records.append(EncryptedRecord(
            source_id=meta["source"], index=meta["index"],
            label=meta["label"], nonce=bytes.fromhex(meta["nonce"]),
            sealed=bytes(sealed),
        ))
        headers.append(header)
    return records, headers


def unpack_records(blob: bytes) -> List[EncryptedRecord]:
    """Inverse of :func:`pack_records`."""
    return unpack_headed(blob)[0]


@dataclass(frozen=True)
class LedgerSegmentInfo:
    """One manifest entry: an immutable, content-addressed segment."""

    name: str
    records: int
    contributor: str
    digest: str  # hex SHA-256 over the metadata sidecar's bytes
    lane: str = "committed"  # "committed" | "quarantine"
    reason: str = ""         # quarantine lane only


class ContributionLedger:
    """Append-only segment store for validated encrypted contributions."""

    def __init__(self, path: Path, manifest: dict) -> None:
        self.path = path
        self._manifest = manifest
        # Writers mutate the manifest lists, the version counter, the
        # digest set, and manifest.json with I/O in between; sessions may
        # commit concurrently, so every write (and every read of that
        # state) holds this lock. Reentrant because append/quarantine
        # nest inside commit_deduplicated.
        self._lock = threading.RLock()
        # (manifest version, digest) memo so the promotion gate and the
        # governance log can read the ledger identity as a cheap accessor
        # instead of re-hashing the manifest on every event.
        self._digest_memo: Optional[Tuple[int, bytes]] = None
        self._digests: Set[bytes] = set()
        for entry in manifest["segments"]:
            self._digests.update(
                map(bytes.fromhex, self._segment_record_digests(entry["name"]))
            )

    # -- lifecycle ---------------------------------------------------------------

    @classmethod
    def create(cls, path: os.PathLike) -> "ContributionLedger":
        """Initialise an empty ledger at ``path`` (created if missing)."""
        root = Path(path)
        root.mkdir(parents=True, exist_ok=True)
        if (root / _MANIFEST).exists():
            raise LedgerError(f"a contribution ledger already exists at {root}")
        manifest = {"format": LEDGER_FORMAT, "version": 0,
                    "segments": [], "quarantine": []}
        ledger = cls(root, manifest)
        ledger._write_manifest()
        return ledger

    @classmethod
    def open(cls, path: os.PathLike, verify: bool = True) -> "ContributionLedger":
        """Load a ledger; ``verify=True`` recomputes every digest first."""
        root = Path(path)
        manifest_path = root / _MANIFEST
        if not manifest_path.exists():
            raise LedgerError(f"no contribution ledger at {root}")
        manifest = json.loads(manifest_path.read_text())
        if manifest.get("format") != LEDGER_FORMAT:
            raise LedgerError(
                f"unsupported ledger format {manifest.get('format')!r} "
                f"(this build reads format {LEDGER_FORMAT} only)"
            )
        ledger = cls(root, manifest)
        if verify:
            ledger.verify()
        return ledger

    def _write_manifest(self) -> None:
        payload = json.dumps(self._manifest, indent=2, sort_keys=True)
        atomic_write_text(self.path / _MANIFEST, payload)

    # -- writes ------------------------------------------------------------------

    def _append_segment(self, lane: str, records: Sequence[EncryptedRecord],
                        digests: Sequence[bytes], headers: Sequence[bytes],
                        contributor: str,
                        reason: str = "") -> LedgerSegmentInfo:
        if not records:
            raise LedgerError("a segment needs at least one record")
        with self._lock:
            entries = self._manifest["segments" if lane == "committed"
                                     else "quarantine"]
            prefix = "segment" if lane == "committed" else "quarantine"
            name = f"{prefix}-{len(entries):06d}"
            meta = {
                "contributor": contributor,
                "records": len(records),
                "digests": [digest.hex() for digest in digests],
                "reason": reason,
            }
            meta_bytes = canonical_json(meta)
            # Payload and sidecar must be durable BEFORE the manifest
            # names them: once it does, the session's spool is discarded
            # and these files are the only copy of the contribution. The
            # payload goes down frame by frame, never joined.
            atomic_write_bytes(self.path / f"{name}.bin",
                               iter_packed(records, headers))
            atomic_write_bytes(self.path / f"{name}.meta.json", meta_bytes)
            info = LedgerSegmentInfo(
                name=name, records=len(records), contributor=contributor,
                digest=canonical_digest(meta_bytes).hex(),
                lane=lane, reason=reason,
            )
            entries.append({
                "name": info.name, "records": info.records,
                "contributor": info.contributor, "digest": info.digest,
                "reason": reason,
            })
            self._manifest["version"] += 1
            self._write_manifest()
            if lane == "committed":
                self._digests.update(digests)
            return info

    def append(self, records: Sequence[EncryptedRecord], contributor: str,
               digests: Optional[Sequence[bytes]] = None) -> LedgerSegmentInfo:
        """Commit one validated segment; returns its manifest entry.
        ``digests``: the records' content digests, if the caller holds them."""
        return self._append_segment(
            "committed", records, *record_identities(records, digests),
            contributor,
        )

    def quarantine(self, records: Sequence[EncryptedRecord], contributor: str,
                   reason: str, digests: Optional[Sequence[bytes]] = None,
                   headers: Optional[Sequence[bytes]] = None,
                   ) -> LedgerSegmentInfo:
        """Preserve refused records in the quarantine lane with the reason."""
        return self._append_segment(
            "quarantine", records,
            *record_identities(records, digests, headers), contributor,
            reason=reason,
        )

    def commit_deduplicated(
        self, records: Sequence[EncryptedRecord], contributor: str,
        digests: Optional[Sequence[bytes]] = None,
        headers: Optional[Sequence[bytes]] = None,
    ) -> Tuple[Optional[LedgerSegmentInfo], List[EncryptedRecord]]:
        """Atomically dedup-check and commit one session's records.

        The duplicate gate and the append happen under one lock, so two
        sessions racing to commit the same sealed ciphertext cannot both
        pass a check-then-commit window: exactly one wins and the loser's
        copies come back in the duplicates list for the caller to
        quarantine. Returns ``(segment_or_None, duplicates)``.
        """
        digests, headers = record_identities(records, digests, headers)
        with self._lock:
            fresh: List[EncryptedRecord] = []
            fresh_digests: List[bytes] = []
            fresh_headers: List[bytes] = []
            duplicates: List[EncryptedRecord] = []
            batch: Set[bytes] = set()
            for record, digest, header in zip(records, digests, headers):
                if digest in self._digests or digest in batch:
                    duplicates.append(record)
                else:
                    batch.add(digest)
                    fresh.append(record)
                    fresh_digests.append(digest)
                    fresh_headers.append(header)
            segment = (self._append_segment("committed", fresh, fresh_digests,
                                            fresh_headers, contributor)
                       if fresh else None)
            return segment, duplicates

    # -- reads -------------------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return sum(entry["records"]
                       for entry in self._manifest["segments"])

    @property
    def version(self) -> int:
        with self._lock:
            return self._manifest["version"]

    @property
    def segments(self) -> List[LedgerSegmentInfo]:
        with self._lock:
            return [
                LedgerSegmentInfo(name=e["name"], records=e["records"],
                                  contributor=e["contributor"],
                                  digest=e["digest"])
                for e in self._manifest["segments"]
            ]

    @property
    def quarantined(self) -> List[LedgerSegmentInfo]:
        with self._lock:
            return [
                LedgerSegmentInfo(name=e["name"], records=e["records"],
                                  contributor=e["contributor"],
                                  digest=e["digest"],
                                  lane="quarantine", reason=e["reason"])
                for e in self._manifest["quarantine"]
            ]

    @property
    def quarantined_records(self) -> int:
        with self._lock:
            return sum(e["records"] for e in self._manifest["quarantine"])

    def contributors(self) -> List[str]:
        with self._lock:
            return sorted({e["contributor"]
                           for e in self._manifest["segments"]})

    def _segment_record_digests(self, name: str) -> List[str]:
        meta_path = self.path / f"{name}.meta.json"
        if not meta_path.exists():
            raise LedgerError(f"segment {name} metadata is missing on disk")
        try:
            return json.loads(meta_path.read_bytes())["digests"]
        except (ValueError, KeyError, TypeError):
            raise LedgerError(f"segment {name} metadata is unreadable "
                              "(tampered or corrupted)") from None

    def known_ciphertexts(self, digests: Sequence[bytes]) -> Set[bytes]:
        """Which of these content digests have already been committed?

        The validation pipeline asks once per session, as an early,
        advisory check; the authoritative, race-free gate is
        :meth:`commit_deduplicated`, which re-checks under the ledger
        lock at commit time.
        """
        with self._lock:
            return self._digests.intersection(digests)

    def iter_records(self, lane: str = "committed") -> Iterator[EncryptedRecord]:
        """Yield records in commit order (training's read path).

        ``lane="quarantine"`` iterates the forensic lane instead; the
        default never yields a quarantined record.
        """
        with self._lock:
            entries = list(self._manifest["segments"] if lane == "committed"
                           else self._manifest["quarantine"])
        for entry in entries:
            blob = (self.path / f"{entry['name']}.bin").read_bytes()
            for record in unpack_records(blob):
                yield record

    # -- integrity and the sealing boundary --------------------------------------

    def verify(self) -> bool:
        """Re-derive every segment's identity from disk bytes; fail-closed."""
        with self._lock:
            entries = (self._manifest["segments"]
                       + self._manifest["quarantine"])
        for entry in entries:
            self._verify_segment(entry)
        return True

    def _verify_segment(self, entry: dict) -> None:
        """The sidecar must match the segment digest, and the payload must
        be exactly the frames whose record digests the sidecar lists, in
        order: every byte of both files is covered."""
        name = entry["name"]
        payload_path = self.path / f"{name}.bin"
        meta_path = self.path / f"{name}.meta.json"
        if not payload_path.exists() or not meta_path.exists():
            raise LedgerError(f"segment {name} is missing on disk")
        failed = LedgerError(f"segment {name} failed its digest check "
                             "(tampered or corrupted)")
        meta_bytes = meta_path.read_bytes()
        if canonical_digest(meta_bytes).hex() != entry["digest"]:
            raise failed
        listed = json.loads(meta_bytes)["digests"]
        try:
            packed = packed_frames(payload_path.read_bytes())
        except LedgerError:
            raise failed from None
        if len(packed) != len(listed) or entry["records"] != len(listed):
            raise failed
        for (header, sealed), digest in zip(packed, listed):
            if header_digest(header, sealed).hex() != digest:
                raise failed

    def manifest_digest(self) -> bytes:
        """A content address for the entire ledger state.

        Commits to the ordered committed-lane digests and the quarantine
        lane — two ledgers with the same manifest digest hold
        byte-identical contributions *and* refused the same records.
        Memoised per manifest version, so repeated reads (every
        governance event records it) cost a dict lookup, not a hash.
        """
        with self._lock:
            version = self._manifest["version"]
            if self._digest_memo is None or self._digest_memo[0] != version:
                digest = canonical_digest({
                    "format": self._manifest["format"],
                    "segments": [e["digest"]
                                 for e in self._manifest["segments"]],
                    "quarantine": [e["digest"]
                                   for e in self._manifest["quarantine"]],
                })
                self._digest_memo = (version, digest)
            return self._digest_memo[1]

    def locate_records(
        self, pairs: Sequence[Tuple[str, int]],
    ) -> List[Dict[str, object]]:
        """Resolve ``(contributor, record index)`` pairs to ledger evidence.

        Attribution walks linkage hits back to the ledger through this:
        each result names the lane, segment, segment digest, quarantine
        reason, and the record's own content digest. All pairs resolve in
        one walk over the segments, committed lane first. Raises
        :class:`~repro.errors.LedgerError` when no lane holds a record
        — a linkage hit with no ledger backing means the linkage store
        and ledger have diverged.
        """
        with self._lock:
            lanes = (("committed", list(self._manifest["segments"])),
                     ("quarantine", list(self._manifest["quarantine"])))
        wanted = set(pairs)
        found: Dict[Tuple[str, int], Dict[str, object]] = {}
        for lane, entries in lanes:
            for entry in entries:
                if len(found) == len(wanted):
                    break
                blob = (self.path / f"{entry['name']}.bin").read_bytes()
                for record in unpack_records(blob):
                    pair = (record.source_id, record.index)
                    if pair in wanted and pair not in found:
                        found[pair] = {
                            "lane": lane,
                            "segment": entry["name"],
                            "segment_digest": entry["digest"],
                            "contributor": entry["contributor"],
                            "reason": entry.get("reason", ""),
                            "record_digest": record_digest(record).hex(),
                            "label": record.label,
                        }
        for source_id, index in pairs:
            if (source_id, index) not in found:
                raise LedgerError(
                    f"no ledger record for source {source_id!r} index {index}"
                )
        return [found[pair] for pair in pairs]

    def seal_manifest(self, enclave):
        """Seal the manifest digest to ``enclave``'s identity."""
        from repro.enclave.sealing import seal

        return seal(enclave, self.manifest_digest())

    def verify_sealed_manifest(self, enclave, blob) -> bool:
        """Check the current ledger state against a sealed manifest digest."""
        from repro.enclave.sealing import unseal

        try:
            return unseal(enclave, blob) == self.manifest_digest()
        except SealingError:
            return False

    # -- reporting ---------------------------------------------------------------

    def status(self) -> Dict[str, object]:
        """A plain-dict summary for the CLI and telemetry surfaces."""
        with self._lock:
            return {
                "format": LEDGER_FORMAT,
                "version": self.version,
                "committed_segments": len(self._manifest["segments"]),
                "committed_records": len(self),
                "quarantine_segments": len(self._manifest["quarantine"]),
                "quarantine_records": self.quarantined_records,
                "contributors": self.contributors(),
                "manifest_digest": self.manifest_digest().hex(),
            }
