"""The append-only, content-addressed contribution ledger.

Validated encrypted records are the system of record for training: a
segment is written once — at upload-session commit — and never modified.
The format mirrors :class:`repro.serving.store.LinkageStore`:

* **append-only segments** — a segment's records lie in *parts*: files
  of packed records (each one's source, index, label, nonce and sealed
  payload, length-prefixed). A canonical-JSON metadata sidecar carries
  ``contributor``, ``records`` (the count), ``digests`` (one hex content
  digest per record, in segment order), ``reason`` (quarantine lane
  only) and ``parts``: each part's file name beside the frames of it
  that are the segment's records (omitted when the segment is exactly
  ``<name>.bin``). Parts and sidecars are durable before the manifest
  names them;
* **commit by reference** — :meth:`ContributionLedger.commit_session`
  hard-links a session's spool chunks (packed records, fsynced at the
  ack) into the ledger as its parts instead of writing their frames a
  second time; the session's segments together select every frame of
  every part exactly once. A part is written from the transfer's
  in-memory hold instead without a spool, when the link fails, or when
  the linked bytes do not read back equal to the hold;
* **content addressing** — a record is identified by its content digest
  (:func:`header_digest` over its canonical header and sealed bytes),
  the only SHA-256 pass over a record's bytes outside the enclave's tag
  check; a segment is identified by the digest of its metadata sidecar,
  which lists every record digest in segment order and where each record
  lies, so the segment identity commits to every payload byte through
  them; the manifest lists committed segments and quarantined segments
  in separate lanes, and the ordered ledger history is committed by
  :meth:`manifest_digest`, the record set alone by :meth:`data_digest`;
* **sealing boundary** — the training enclave can seal the manifest
  digest to its identity (:meth:`seal_manifest`), so a verifier can later
  prove training consumed exactly the records the validation pipeline
  admitted (:meth:`verify_sealed_manifest`).

Quarantined records (tampered, relabelled, malformed, duplicated) live in
their own lane: they are preserved as forensic evidence with the reason
they were refused, but neither :meth:`iter_records` nor
:meth:`verified_records` — the path training reads — yields them.

Integrity checks are fail-closed: :meth:`verify` re-derives every
record digest from the part frames in place, checks that the segments
select every frame of every part exactly once, and raises
:class:`~repro.errors.LedgerError` on the first mismatch with a sidecar,
or on a sidecar that no longer matches its segment digest. A ledger
written in an older format is refused the same way.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
import struct
import threading
from collections import Counter
from itertools import accumulate
from dataclasses import dataclass
from pathlib import Path
from typing import (Dict, Iterable, Iterator, List, Optional, Sequence, Set,
                    Tuple)

from repro.data.encryption import EncryptedRecord, record_json
from repro.errors import LedgerError, SealingError
from repro.utils.fileio import atomic_write_bytes, atomic_write_text, fsync_dir
from repro.utils.serialization import canonical_digest, canonical_json

__all__ = [
    "LEDGER_FORMAT",
    "LedgerSegmentInfo",
    "SessionCommit",
    "ContributionLedger",
    "record_digest",
    "data_identity",
    "unpack_headed", "record_header", "header_digest", "record_identities",
    "iter_packed", "packed_frames",
]

_MANIFEST = "manifest.json"
#: 3: a segment's sidecar names the parts its records lie in, and a
#: session's segments share parts (hard links to its spool chunks).
LEDGER_FORMAT = 3

_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")


def record_header(record: EncryptedRecord) -> bytes:
    """A record's canonical header: the ``meta-json`` of its packed frame."""
    return record_json(record.source_id, record.index, record.label,
                       record.nonce.hex())


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


def data_identity(committed: Iterable[str],
                  quarantine: Iterable[str] = ()) -> bytes:
    """One digest over a record set, whatever order it was committed in:
    the sorted hex record digests of each lane."""
    return canonical_digest({"committed": sorted(committed),
                             "quarantine": sorted(quarantine)})


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
    """Serialize records to one canonical payload, frame by frame, never
    joined (chunk and part payloads).

    Layout: ``count | (meta-len | meta-json | sealed-len | sealed)...`` —
    everything length-prefixed, so equal record sequences always produce
    equal bytes. ``meta-json`` is ``headers``, else :func:`record_header`.
    """
    if headers is None:
        headers = [record_header(record) for record in records]
    yield _U32.pack(len(records))
    for record, header in zip(records, headers):
        yield _U32.pack(len(header)) + header + _U64.pack(len(record.sealed))
        yield record.sealed


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
    """Inverse of :func:`iter_packed`, plus each frame's ``meta-json``."""
    return _decode_frames(packed_frames(blob))


def _decode(header, sealed) -> Tuple[EncryptedRecord, bytes]:
    header = bytes(header)
    meta = json.loads(header.decode("utf-8"))
    return EncryptedRecord(
        source_id=meta["source"], index=meta["index"],
        label=meta["label"], nonce=bytes.fromhex(meta["nonce"]),
        sealed=bytes(sealed),
    ), header


def _decode_frames(frames) -> Tuple[List[EncryptedRecord], List[bytes]]:
    decoded = [_decode(header, sealed) for header, sealed in frames]
    return ([record for record, _ in decoded],
            [header for _, header in decoded])


def _holds(path: Path, records: Sequence[EncryptedRecord],
           headers: Sequence[bytes]) -> bool:
    """Does the file at ``path`` hold exactly ``iter_packed(records,
    headers)``? Compared where the bytes lie, mapped, piece by piece:
    nothing is copied or joined."""
    with open(path, "rb") as handle:
        try:
            mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        except ValueError:  # an empty file
            return False
    with mapped:
        offset = 0
        for piece in iter_packed(records, headers):
            end = offset + len(piece)
            if mapped.find(piece, offset, end) != offset:
                return False
            offset = end
        return offset == len(mapped)


def _link(source: os.PathLike, target: Path) -> bool:
    """Hard-link ``source`` at ``target``, replacing a file already there
    (the orphan of a crashed commit, never read). False when the
    filesystem refuses: ``EXDEV`` (another filesystem), or no hard
    links."""
    try:
        try:
            os.link(source, target)
        except FileExistsError:
            os.unlink(target)
            os.link(source, target)
    except OSError:
        return False
    return True


@dataclass(frozen=True)
class LedgerSegmentInfo:
    """One manifest entry: an immutable, content-addressed segment."""

    name: str
    records: int
    contributor: str
    digest: str  # hex SHA-256 over the metadata sidecar's bytes
    lane: str = "committed"  # "committed" | "quarantine"
    reason: str = ""         # quarantine lane only


@dataclass(frozen=True)
class SessionCommit:
    """What one :meth:`ContributionLedger.commit_session` stored."""

    segments: List[LedgerSegmentInfo]   # committed lane first
    #: Records the duplicate gate under the ledger lock refused.
    duplicates: List[EncryptedRecord]
    #: Parts by how they reached the ledger: ``"linked"``, or the reason
    #: one was written from the hold — ``"no-spool"``, ``"cross-device"``
    #: (the link failed) or ``"altered"`` (the spool no longer held it).
    parts: Dict[str, int]


class ContributionLedger:
    """Append-only segment store for validated encrypted contributions."""

    def __init__(self, path: Path, manifest: dict) -> None:
        self.path = path
        self._manifest = manifest
        # Writers mutate the manifest lists, the version counter, the
        # digest set, and manifest.json with I/O in between; sessions may
        # commit concurrently, so every write (and every read of that
        # state) holds this lock.
        self._lock = threading.RLock()
        # name -> (manifest version, digest) memo, so the promotion gate
        # and the governance log read the ledger identities as cheap
        # accessors instead of re-hashing on every event.
        self._memo: Dict[str, Tuple[int, bytes]] = {}
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

    def _refused(self, digests: Sequence[bytes],
                 admitted: Iterable[int]) -> Set[int]:
        """The duplicate gate: positions among ``admitted`` whose digest is
        already committed or admitted earlier in the batch."""
        seen: Set[bytes] = set()
        refused: Set[int] = set()
        for position in admitted:
            digest = digests[position]
            if digest in self._digests or digest in seen:
                refused.add(position)
            else:
                seen.add(digest)
        return refused

    def _write(self, contributor: str, records: Sequence[EncryptedRecord],
               digests: Sequence[bytes], headers: Sequence[bytes],
               lanes: Sequence[Tuple[str, str, Sequence[int]]],
               chunks: Optional[Sequence[Tuple[os.PathLike, int]]],
               ) -> Tuple[List[LedgerSegmentInfo], Dict[str, int]]:
        """Store ``lanes`` — ``(lane, reason, positions)`` segments over
        ``records`` — as one commit; the caller holds the lock.

        The parts are ``chunks`` (spool files covering ``records`` in
        order), else one per segment, written from ``records``. Order:
        link the parts, fsync the directory once, read each linked part
        back against the hold, write the sidecars, then the manifest.
        """
        lanes = [lane for lane in lanes if lane[2]]
        if not lanes:
            return [], {}
        if chunks is None:
            sources = [None] * len(lanes)
            spans = [positions for _, _, positions in lanes]
        else:
            sources = [source for source, _ in chunks]
            bounds = list(accumulate((count for _, count in chunks),
                                     initial=0))
            if bounds[-1] != len(records):
                raise LedgerError(f"the spool holds {bounds[-1]} records, "
                                  f"the session {len(records)}")
            spans = [range(a, b) for a, b in zip(bounds, bounds[1:])]
        where = {position: (part, frame)
                 for part, span in enumerate(spans)
                 for frame, position in enumerate(span)}

        # A part is named after the first segment that selects from it:
        # ``<name>.bin``, then ``<name>.1.bin``, ...
        names: List[Optional[str]] = [None] * len(spans)
        next_index = {"committed": len(self._manifest["segments"]),
                      "quarantine": len(self._manifest["quarantine"])}
        plans = []
        for lane, reason, positions in lanes:
            prefix = "segment" if lane == "committed" else "quarantine"
            name = f"{prefix}-{next_index[lane]:06d}"
            next_index[lane] += 1
            owned = 0
            selection: List[Tuple[int, List[int]]] = []
            for position in positions:
                part, frame = where[position]
                if names[part] is None:
                    names[part] = (f"{name}.bin" if owned == 0
                                   else f"{name}.{owned}.bin")
                    owned += 1
                if selection and selection[-1][0] == part:
                    selection[-1][1].append(frame)
                else:
                    selection.append((part, [frame]))
            plans.append((lane, reason, name, positions, selection))
        if None in names:
            raise LedgerError("a spool chunk holds no record of the session")

        def held(part: int):
            return ([records[p] for p in spans[part]],
                    [headers[p] for p in spans[part]])

        outcomes: Counter = Counter()

        def write_held(part: int, reason: str) -> None:
            atomic_write_bytes(self.path / names[part],
                               iter_packed(*held(part)))
            outcomes[reason] += 1

        linked = []
        for part, source in enumerate(sources):
            if source is None:
                write_held(part, "no-spool")
                continue
            if _link(source, self.path / names[part]):
                linked.append(part)
            else:
                write_held(part, "cross-device")
        if linked:
            fsync_dir(self.path)
        # The spool was fsynced at the ack, but its bytes are trusted only
        # once read back equal to the hold; a part that differs (the spool
        # was written after the ack) is replaced from the hold.
        for part in linked:
            if _holds(self.path / names[part], *held(part)):
                outcomes["linked"] += 1
            else:
                write_held(part, "altered")

        infos = []
        for lane, reason, name, positions, selection in plans:
            meta = {
                "contributor": contributor,
                "records": len(positions),
                "digests": [digests[p].hex() for p in positions],
                "reason": reason,
            }
            layout = [[names[part], frames] for part, frames in selection]
            if layout != [[f"{name}.bin", list(range(len(positions)))]]:
                meta["parts"] = layout
            meta_bytes = canonical_json(meta)
            atomic_write_bytes(self.path / f"{name}.meta.json", meta_bytes)
            info = LedgerSegmentInfo(
                name=name, records=len(positions), contributor=contributor,
                digest=canonical_digest(meta_bytes).hex(),
                lane=lane, reason=reason,
            )
            self._manifest["segments" if lane == "committed"
                           else "quarantine"].append({
                "name": info.name, "records": info.records,
                "contributor": info.contributor, "digest": info.digest,
                "reason": reason,
            })
            infos.append(info)
        self._manifest["version"] += len(plans)
        self._write_manifest()
        for lane, _, _, positions, _ in plans:
            if lane == "committed":
                self._digests.update(digests[p] for p in positions)
        return infos, dict(outcomes)

    def _append_segment(self, lane: str, records: Sequence[EncryptedRecord],
                        digests: Sequence[bytes], headers: Sequence[bytes],
                        contributor: str,
                        reason: str = "") -> LedgerSegmentInfo:
        if not records:
            raise LedgerError("a segment needs at least one record")
        with self._lock:
            infos, _ = self._write(contributor, records, digests, headers,
                                   [(lane, reason, range(len(records)))],
                                   None)
            return infos[0]

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
        """Atomically dedup-check and commit one batch of records.

        The duplicate gate and the append happen under one lock, so two
        sessions racing to commit the same sealed ciphertext cannot both
        pass a check-then-commit window: exactly one wins and the loser's
        copies come back in the duplicates list for the caller to
        quarantine. Returns ``(segment_or_None, duplicates)``.
        """
        digests, headers = record_identities(records, digests, headers)
        with self._lock:
            refused = self._refused(digests, range(len(records)))
            fresh = [p for p in range(len(records)) if p not in refused]
            infos, _ = self._write(contributor, records, digests, headers,
                                   [("committed", "", fresh)], None)
            return ((infos[0] if infos else None),
                    [records[p] for p in sorted(refused)])

    def commit_session(
        self, contributor: str, records: Sequence[EncryptedRecord],
        digests: Sequence[bytes], headers: Sequence[bytes],
        verdicts: Sequence[str],
        chunks: Optional[Sequence[Tuple[os.PathLike, int]]] = None,
    ) -> SessionCommit:
        """Commit every record of one upload session, under one lock.

        ``verdicts`` holds each record's admission verdict, position for
        position. ``"ok"`` records pass the duplicate gate of
        :meth:`commit_deduplicated` into the committed segment; those it
        refuses join the ``"duplicate"`` quarantine segment. Any other
        verdict is a quarantine reason: one segment per reason, in sorted
        order, records in session order. ``chunks`` is the session's
        spool, ``(path, records)`` per chunk, covering ``records`` in
        order; each chunk becomes one part by hard link. Without it each
        segment is one part written from ``records``.
        """
        if not len(verdicts) == len(records) == len(digests) == len(headers):
            raise LedgerError(f"{len(verdicts)} verdicts for "
                              f"{len(records)} records")
        with self._lock:
            refused = self._refused(
                digests, [p for p, verdict in enumerate(verdicts)
                          if verdict == "ok"])
            by_verdict: Dict[str, List[int]] = {}
            for p, verdict in enumerate(verdicts):
                by_verdict.setdefault(
                    "duplicate" if p in refused else verdict, []).append(p)
            lanes = [("committed", "", by_verdict.pop("ok", []))]
            lanes += [("quarantine", reason, by_verdict[reason])
                      for reason in sorted(by_verdict)]
            segments, parts = self._write(contributor, records, digests,
                                          headers, lanes, chunks)
            return SessionCommit(segments,
                                 [records[p] for p in sorted(refused)],
                                 parts)

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

    def _sidecar(self, name: str) -> bytes:
        meta_path = self.path / f"{name}.meta.json"
        if not meta_path.exists():
            raise LedgerError(f"segment {name} metadata is missing on disk")
        return meta_path.read_bytes()

    def _segment_record_digests(self, name: str) -> List[str]:
        try:
            return json.loads(self._sidecar(name))["digests"]
        except (ValueError, KeyError, TypeError):
            raise LedgerError(f"segment {name} metadata is unreadable "
                              "(tampered or corrupted)") from None

    @staticmethod
    def _layout(name: str, meta: dict) -> List[Tuple[str, List[int]]]:
        """A sidecar's ``(part, frames)`` pairs, in segment order. Raises
        ``ValueError``, ``KeyError`` or ``TypeError`` if malformed."""
        parts = (meta["parts"] if "parts" in meta
                 else [[f"{name}.bin", range(meta["records"])]])
        layout = [(part, [int(frame) for frame in frames])
                  for part, frames in parts]
        if any(not isinstance(part, str) or Path(part).name != part
               for part, _ in layout):
            raise ValueError(f"segment {name} names a part outside the "
                             "ledger")
        return layout

    def segment_layout(self, name: str) -> List[Tuple[str, List[int]]]:
        """Segment ``name``'s parts, each beside the frames of it that are
        the segment's records, in segment order."""
        try:
            return self._layout(name, json.loads(self._sidecar(name)))
        except (ValueError, KeyError, TypeError):
            raise LedgerError(f"segment {name} metadata is unreadable "
                              "(tampered or corrupted)") from None

    def segment_frames(self, name: str) -> List[Tuple[memoryview,
                                                      memoryview]]:
        """Segment ``name``'s records as ``(meta-json, sealed)`` frames, in
        segment order, read from its parts — unverified (:meth:`verify`
        is the check)."""
        frames = []
        for part, selected in self.segment_layout(name):
            packed = packed_frames((self.path / part).read_bytes())
            try:
                frames.extend(packed[frame] for frame in selected)
            except IndexError:
                raise LedgerError(f"segment {name} selects a frame its "
                                  f"part {part} does not hold") from None
        return frames

    def known_ciphertexts(self, digests: Sequence[bytes]) -> Set[bytes]:
        """Which of these content digests have already been committed?

        The validation pipeline asks once per session, as an early,
        advisory check; the authoritative, race-free gate is
        :meth:`commit_session`'s, which re-checks under the ledger lock
        at commit time.
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
            for header, sealed in self.segment_frames(entry["name"]):
                yield _decode(header, sealed)[0]

    # -- integrity and the sealing boundary --------------------------------------

    def verify(self) -> bool:
        """Re-derive every segment's identity from disk bytes; fail-closed."""
        self._verified(decode=False)
        return True

    def verified_records(self) -> List[EncryptedRecord]:
        """:meth:`verify`, returning the committed lane's records decoded
        from the bytes verified: each part is read once."""
        return self._verified(decode=True)

    def _verified(self, decode: bool) -> List[EncryptedRecord]:
        """The one integrity walk. Each sidecar must match its segment
        digest; each part is read once and must be exactly the frames the
        segments select from it, each selected once, each hashing to the
        digest its segment lists there: every stored byte is covered.
        With ``decode``, returns the committed lane's records in order."""
        with self._lock:
            lanes = ((list(self._manifest["segments"]), decode),
                     (list(self._manifest["quarantine"]), False))

        def failed(name):
            return LedgerError(f"segment {name} failed its digest check "
                               "(tampered or corrupted)")

        # part -> frame -> (segment name, listed digest, output slots, slot)
        wanted: Dict[str, Dict[int, tuple]] = {}
        outputs: List[list] = []
        for entries, keep in lanes:
            for entry in entries:
                name = entry["name"]
                meta_bytes = self._sidecar(name)
                if canonical_digest(meta_bytes).hex() != entry["digest"]:
                    raise failed(name)
                try:
                    meta = json.loads(meta_bytes)
                    listed = meta["digests"]
                    layout = self._layout(name, meta)
                except (ValueError, KeyError, TypeError):
                    raise failed(name) from None
                if not (entry["records"] == meta["records"] == len(listed)
                        == sum(len(frames) for _, frames in layout)):
                    raise failed(name)
                slots = [None] * len(listed) if keep else None
                if keep:
                    outputs.append(slots)
                position = 0
                for part, frames in layout:
                    selected = wanted.setdefault(part, {})
                    for frame in frames:
                        if frame in selected:
                            raise failed(name)
                        selected[frame] = (name, listed[position], slots,
                                           position)
                        position += 1
        for part, selected in wanted.items():
            first = next(iter(selected.values()))[0]
            path = self.path / part
            if not path.exists():
                raise LedgerError(f"segment {first} is missing on disk")
            try:
                packed = packed_frames(path.read_bytes())
            except LedgerError:
                raise failed(first) from None
            if len(packed) != len(selected):
                raise failed(first)
            for frame, (name, digest, slots, slot) in selected.items():
                if not 0 <= frame < len(packed):
                    raise failed(name)
                header, sealed = packed[frame]
                if header_digest(header, sealed).hex() != digest:
                    raise failed(name)
                if slots is not None:
                    slots[slot] = _decode(header, sealed)[0]
        return [record for slots in outputs for record in slots]

    def _memoised(self, name: str, compute) -> bytes:
        with self._lock:
            version = self._manifest["version"]
            memo = self._memo.get(name)
            if memo is None or memo[0] != version:
                memo = self._memo[name] = (version, compute())
            return memo[1]

    def manifest_digest(self) -> bytes:
        """A content address for the entire ledger history.

        Commits to the ordered committed-lane digests and the quarantine
        lane — two ledgers with the same manifest digest hold
        byte-identical contributions, refused the same records, and
        committed them in the same order. Memoised per manifest version,
        so repeated reads (every governance event records it) cost a dict
        lookup, not a hash.
        """
        return self._memoised("manifest", lambda: canonical_digest({
            "format": self._manifest["format"],
            "segments": [e["digest"] for e in self._manifest["segments"]],
            "quarantine": [e["digest"]
                           for e in self._manifest["quarantine"]],
        }))

    def data_digest(self) -> bytes:
        """The ledger's data identity: :func:`data_identity` over every
        committed and every quarantined record digest, sorted per lane.

        Unlike :meth:`manifest_digest` it does not depend on the order
        sessions committed in, nor on how their records are laid out in
        parts, so two ledgers of one dataset give one run key. Memoised
        per manifest version.
        """
        return self._memoised("data", lambda: data_identity(*(
            [digest for entry in self._manifest[lane]
             for digest in self._segment_record_digests(entry["name"])]
            for lane in ("segments", "quarantine"))))

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
                for head, sealed in self.segment_frames(entry["name"]):
                    meta = json.loads(bytes(head))
                    pair = (meta["source"], meta["index"])
                    if pair in wanted and pair not in found:
                        found[pair] = {
                            "lane": lane,
                            "segment": entry["name"],
                            "segment_digest": entry["digest"],
                            "contributor": entry["contributor"],
                            "reason": entry.get("reason", ""),
                            "record_digest": header_digest(head, sealed).hex(),
                            "label": meta["label"],
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
