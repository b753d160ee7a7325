"""Chunked, resumable upload transfer with a write-ahead journal.

A contributor streams encrypted records in size-bounded chunks. Each
chunk is made durable *before* it is acknowledged:

1. the packed chunk payload is written to ``chunk-NNNNNN.bin`` and
   fsynced (the file and its directory), so the payload is on stable
   storage before any journal entry can name it;
2. one line is appended to ``journal.jsonl`` — recording the sequence
   number, the chunk digest, the record count, the payload bytes, and
   every record nonce — and fsynced;
3. only then does the server acknowledge the sequence number.

A crashed upload therefore resumes exactly at the first unacknowledged
chunk: :meth:`UploadTransfer.resume` replays the journal, re-verifies
every chunk file against its journaled digest (fail-closed — a torn
half-written chunk is discarded, not trusted), and reports
``next_seq`` / ``max_nonce`` so the client can continue the stream
without re-encrypting or re-sending acknowledged records. If the
*tail* journal entry names a chunk that is missing or fails its digest
(the crash landed between the two fsyncs), that entry was never
acknowledged: resume truncates the journal back to the last consistent
entry and the client re-sends the chunk. A failed chunk *behind* the
journal head can only mean post-ack corruption, and stays fail-closed.

The journal is also the replay barrier: re-sending an acknowledged chunk
(same sequence, same digest) is idempotent — acknowledged again, never
double-committed — while a *conflicting* replay (same sequence, different
bytes) or a new chunk carrying already-journaled nonces raises the typed
:class:`~repro.errors.TransferError`.

The spool is read only by :meth:`UploadTransfer.resume`. While a session
runs, the transfer holds each journaled chunk's records beside their
canonical headers — the exact values whose packed digest the journal
line holds, since a record is frozen and its ``sealed`` / ``nonce`` must
be immutable ``bytes`` — and :meth:`UploadTransfer.finalize` hands that
hold over without touching the disk. A resumed session fills the same
hold from the chunks ``resume`` verifies. A spool altered after the ack
therefore cannot change or block the commit of a live session; after a
crash, ``resume`` still fails closed on it.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.data.encryption import EncryptedRecord
from repro.errors import TransferError
from repro.ingest.ledger import pack_records, record_header, unpack_headed
from repro.utils.serialization import canonical_digest

__all__ = ["ChunkReceipt", "UploadTransfer", "chunk_stream"]

_JOURNAL = "journal.jsonl"


def _fsync_dir(path: Path) -> None:
    """Make a directory entry (new file name) durable."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - fs without directory fsync
        pass
    finally:
        os.close(fd)


@dataclass(frozen=True)
class ChunkReceipt:
    """The server's acknowledgement for one chunk."""

    seq: int
    digest: str
    records: int
    replayed: bool = False  # an acknowledged chunk sent again (idempotent)


@dataclass(frozen=True)
class _JournalEntry:
    seq: int
    digest: str
    records: int
    nbytes: int  # sum of sealed-payload bytes (quota accounting)
    nonces: List[str]


def chunk_stream(records: Iterator[EncryptedRecord],
                 chunk_records: int) -> Iterator[List[EncryptedRecord]]:
    """Group a (possibly lazy) record stream into bounded chunks."""
    if chunk_records < 1:
        raise TransferError("chunk_records must be >= 1")
    chunk: List[EncryptedRecord] = []
    for record in records:
        chunk.append(record)
        if len(chunk) >= chunk_records:
            yield chunk
            chunk = []
    if chunk:
        yield chunk


class UploadTransfer:
    """Server-side state of one chunked upload session."""

    def __init__(self, session_dir: os.PathLike, entries: List[_JournalEntry],
                 nonces: Set[str], records: List[EncryptedRecord],
                 headers: List[bytes]) -> None:
        self.path = Path(session_dir)
        self._entries = entries
        self._nonces = nonces
        # The hold: every journaled record beside its canonical header.
        self._records = records
        self._headers = headers
        self._finalized = False

    # -- lifecycle ---------------------------------------------------------------

    @classmethod
    def create(cls, session_dir: os.PathLike) -> "UploadTransfer":
        """Start a fresh transfer spool at ``session_dir``."""
        path = Path(session_dir)
        path.mkdir(parents=True, exist_ok=True)
        if (path / _JOURNAL).exists():
            raise TransferError(
                f"a transfer journal already exists at {path} — resume it"
            )
        (path / _JOURNAL).touch()
        return cls(path, [], set(), [], [])

    @classmethod
    def exists(cls, session_dir: os.PathLike) -> bool:
        """Is there a resumable spool (a journal) at ``session_dir``?"""
        return (Path(session_dir) / _JOURNAL).exists()

    @classmethod
    def resume(cls, session_dir: os.PathLike) -> "UploadTransfer":
        """Reopen a crashed transfer from its journal.

        Every journaled chunk file is re-verified against its recorded
        digest; a chunk written but never journaled (the crash window) is
        deleted so the client re-sends it. A *tail* entry whose chunk is
        missing or fails the digest was journaled but never acknowledged
        durably — the journal is truncated back to the last consistent
        entry so the session stays resumable. The same failure behind the
        head is post-acknowledgement corruption and fail-closes, as does a
        chunk that matches its digest but is not packed canonically.
        """
        path = Path(session_dir)
        journal_path = path / _JOURNAL
        if not journal_path.exists():
            raise TransferError(f"no transfer journal at {path}")
        lines = [line for line in journal_path.read_text().splitlines()
                 if line.strip()]
        parsed: List[_JournalEntry] = []
        for line in lines:
            raw = json.loads(line)
            parsed.append(_JournalEntry(
                seq=raw["seq"], digest=raw["digest"],
                records=raw["records"], nbytes=raw.get("bytes", 0),
                nonces=raw["nonces"],
            ))
        entries: List[_JournalEntry] = []
        nonces: Set[str] = set()
        records: List[EncryptedRecord] = []
        headers: List[bytes] = []
        truncated = False
        for position, entry in enumerate(parsed):
            chunk_path = path / cls._chunk_name(entry.seq)
            failure = None
            if not chunk_path.exists():
                failure = f"journaled chunk {entry.seq} is missing on disk"
            else:
                blob = chunk_path.read_bytes()
                if canonical_digest(blob).hex() != entry.digest:
                    failure = (f"journaled chunk {entry.seq} failed its "
                               "digest check")
            if failure is not None:
                if position == len(parsed) - 1:
                    truncated = True  # unacked tail: drop it, stay resumable
                    break
                raise TransferError(failure)
            chunk_records, chunk_headers = unpack_headed(blob)
            if pack_records(chunk_records) != blob:
                # A re-encoded header would be a second record identity.
                raise TransferError(f"journaled chunk {entry.seq} is "
                                    "not canonically packed")
            if not entry.nbytes:
                # Journal line predates byte accounting: recompute so
                # quota checks never undercount a resumed session.
                entry = _JournalEntry(
                    seq=entry.seq, digest=entry.digest,
                    records=entry.records,
                    nbytes=sum(len(r.sealed) for r in chunk_records),
                    nonces=entry.nonces,
                )
            entries.append(entry)
            nonces.update(entry.nonces)
            records += chunk_records
            headers += chunk_headers
        if truncated:
            tmp = path / (_JOURNAL + ".tmp")
            with open(tmp, "w") as journal:
                journal.writelines(line + "\n"
                                   for line in lines[: len(entries)])
                journal.flush()
                os.fsync(journal.fileno())
            os.replace(tmp, journal_path)
            _fsync_dir(path)
        # Drop any chunk file past the journal head: written, never acked.
        acked = {cls._chunk_name(e.seq) for e in entries}
        for stray in path.glob("chunk-*.bin"):
            if stray.name not in acked:
                stray.unlink()
        return cls(path, entries, nonces, records, headers)

    @staticmethod
    def _chunk_name(seq: int) -> str:
        return f"chunk-{seq:06d}.bin"

    # -- the chunk protocol ------------------------------------------------------

    @property
    def next_seq(self) -> int:
        """The sequence number the server expects next."""
        return len(self._entries)

    @property
    def acked_records(self) -> int:
        return sum(e.records for e in self._entries)

    @property
    def acked_bytes(self) -> int:
        """Sealed-payload bytes already journaled (quota accounting)."""
        return sum(e.nbytes for e in self._entries)

    def max_nonce(self) -> Optional[bytes]:
        """The highest journaled nonce (resume point for the client's key)."""
        if not self._nonces:
            return None
        return max(bytes.fromhex(n) for n in self._nonces)

    def append_chunk(self, records: Sequence[EncryptedRecord]) -> ChunkReceipt:
        """Durably journal one chunk; returns the acknowledgement.

        Raises :class:`TransferError` on protocol violations (replayed
        records under a new sequence number, or a conflicting resend of an
        acknowledged one), and on a record whose ``sealed`` or ``nonce`` is
        not immutable ``bytes``: the records themselves are what
        :meth:`finalize` hands over, so they must stay the bytes the
        journaled digest covers.
        """
        if self._finalized:
            raise TransferError("transfer already finalized")
        if not records:
            raise TransferError("a chunk needs at least one record")
        for record in records:
            if not (isinstance(record.sealed, bytes)
                    and isinstance(record.nonce, bytes)):
                raise TransferError(
                    f"record {record.index} carries a mutable sealed "
                    "payload or nonce; send bytes"
                )
        headers = [record_header(record) for record in records]
        payload = pack_records(records, headers)
        digest = canonical_digest(payload).hex()
        for entry in self._entries:
            if entry.digest == digest:
                # Idempotent resend of an acknowledged chunk (the client
                # never saw our ack): acknowledge again, commit nothing.
                return ChunkReceipt(seq=entry.seq, digest=digest,
                                    records=entry.records, replayed=True)
        nonces = [r.nonce.hex() for r in records]
        already = [n for n in nonces if n in self._nonces]
        if already:
            raise TransferError(
                f"chunk replays {len(already)} already-journaled record "
                "nonce(s) under a new sequence number"
            )
        if len(set(nonces)) != len(nonces):
            raise TransferError("chunk contains duplicate record nonces")
        seq = self.next_seq
        nbytes = sum(len(r.sealed) for r in records)
        chunk_path = self.path / self._chunk_name(seq)
        # Chunk bytes must be durable BEFORE the journal names them: a
        # power cut between the two steps must never leave a durable
        # journal line pointing at undurable chunk bytes.
        with open(chunk_path, "wb") as chunk:
            chunk.write(payload)
            chunk.flush()
            os.fsync(chunk.fileno())
        _fsync_dir(self.path)
        entry = _JournalEntry(seq=seq, digest=digest, records=len(records),
                              nbytes=nbytes, nonces=nonces)
        with open(self.path / _JOURNAL, "a") as journal:
            journal.write(json.dumps({
                "seq": seq, "digest": digest, "records": len(records),
                "bytes": nbytes, "nonces": nonces,
            }) + "\n")
            journal.flush()
            os.fsync(journal.fileno())
        self._entries.append(entry)
        self._nonces.update(nonces)
        self._records += records
        self._headers += headers
        return ChunkReceipt(seq=seq, digest=digest, records=len(records))

    # -- finalize ----------------------------------------------------------------

    def finalize(self) -> Tuple[List[EncryptedRecord], List[bytes]]:
        """Close the transfer; hand over ``(records, headers)``: every
        journaled record beside its canonical header, from the hold — the
        values whose packed digest each journal line holds. The spool is
        not read; only :meth:`resume` reads it."""
        if self._finalized:
            raise TransferError("transfer already finalized")
        self._finalized = True
        held = self._records, self._headers
        self._records, self._headers = [], []
        return held

    def discard(self) -> None:
        """Delete the spool and drop the hold (after the session committed
        or was aborted)."""
        self._records, self._headers = [], []
        for stray in self.path.glob("chunk-*.bin"):
            stray.unlink()
        journal = self.path / _JOURNAL
        if journal.exists():
            journal.unlink()
        try:
            self.path.rmdir()
        except OSError:  # pragma: no cover - directory shared or non-empty
            pass
