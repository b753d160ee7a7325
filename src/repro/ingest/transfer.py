"""Chunked, resumable upload transfer with a write-ahead journal.

A contributor streams encrypted records in size-bounded chunks. Each
chunk is made durable *before* it is acknowledged:

1. the packed chunk payload is written to ``chunk-NNNNNN.bin`` through
   the atomic writer (fsync, rename, directory fsync), so the payload is
   on stable storage before any journal entry can name it;
2. one line is appended to ``journal.jsonl`` — recording the sequence
   number, the chunk digest, the record count, the payload bytes, and
   every record nonce — and fsynced;
3. only then does the server acknowledge the sequence number.

The chunk digest is :func:`chunk_digest`: one digest over the record
count and each record's content digest
(:func:`~repro.ingest.ledger.header_digest`, the ledger's record
identity). Those record digests are the only SHA-256 pass over a
record's bytes outside the enclave's tag check; they travel with the
records to validation and the ledger sidecar.

A crashed upload therefore resumes exactly at the first unacknowledged
chunk: :meth:`UploadTransfer.resume` replays the journal, re-derives
every chunk's record digests from its file and checks them against the
journaled digest (fail-closed — a torn half-written chunk is discarded,
not trusted), and reports ``next_seq`` / ``max_nonce`` so the client can
continue the stream without re-encrypting or re-sending acknowledged
records. If the *tail* journal entry is torn, or names a chunk that is
missing or fails its digest (the crash landed between or during the two
fsyncs), that entry was never acknowledged: resume truncates the journal
back to the last consistent entry and the client re-sends the chunk. A
failure *behind* the journal head can only mean post-ack corruption, and
stays fail-closed.

The journal is also the replay barrier: re-sending an acknowledged chunk
(same sequence, same digest) is idempotent — acknowledged again, never
double-committed — while a *conflicting* replay (same sequence, different
bytes) or a new chunk carrying already-journaled nonces raises the typed
:class:`~repro.errors.TransferError`.

The spool is read only by :meth:`UploadTransfer.resume`. While a session
runs, the transfer holds each journaled chunk's records beside their
canonical headers and record digests — the exact values the journal
line's digest commits to, since a record is frozen and its ``sealed`` /
``nonce`` must be immutable ``bytes`` — and :meth:`UploadTransfer.finalize`
hands that hold over without touching the disk. A resumed session fills
the same hold from the chunks ``resume`` verifies. A spool altered after
the ack therefore cannot change or block the commit of a live session;
after a crash, ``resume`` still fails closed on it.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.data.encryption import EncryptedRecord
from repro.errors import LedgerError, TransferError
from repro.ingest.ledger import (header_digest, iter_packed, packed_frames,
                                 record_header, unpack_headed)
from repro.utils.fileio import atomic_write_bytes, atomic_write_text
from repro.utils.serialization import canonical_digest

__all__ = ["ChunkReceipt", "UploadTransfer", "chunk_digest", "chunk_stream"]

_JOURNAL = "journal.jsonl"


def chunk_digest(digests: Sequence[bytes]) -> bytes:
    """A chunk's identity: one digest over its record count and its
    records' content digests, in order. Every chunk byte is covered: the
    record digests commit to each frame, the count to the framing."""
    return canonical_digest(len(digests), b"".join(digests))


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
                 headers: List[bytes], digests: List[bytes]) -> None:
        self.path = Path(session_dir)
        self._entries = entries
        self._nonces = nonces
        # The hold: every journaled record beside its canonical header
        # and its content digest.
        self._records = records
        self._headers = headers
        self._digests = digests
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
        return cls(path, [], set(), [], [], [])

    @classmethod
    def exists(cls, session_dir: os.PathLike) -> bool:
        """Is there a resumable spool (a journal) at ``session_dir``?"""
        return (Path(session_dir) / _JOURNAL).exists()

    @classmethod
    def resume(cls, session_dir: os.PathLike) -> "UploadTransfer":
        """Reopen a crashed transfer from its journal.

        Every journaled chunk's record digests are re-derived from its
        file and checked against the journaled chunk digest; a chunk that
        does not parse fails that check. A chunk written but never
        journaled (the crash window) is deleted so the client re-sends it.
        A *tail* entry that is torn mid-line, or whose chunk is missing or
        fails the digest, was never acknowledged durably — the journal is
        truncated back to the last consistent entry so the session stays
        resumable. The same failures behind the head are
        post-acknowledgement corruption and fail-close, as does a chunk
        that matches its digest but is not packed canonically.
        """
        path = Path(session_dir)
        journal_path = path / _JOURNAL
        if not journal_path.exists():
            raise TransferError(f"no transfer journal at {path}")
        text = journal_path.read_bytes().decode("utf-8", errors="replace")
        lines = [line for line in text.splitlines() if line.strip()]
        parsed: List[_JournalEntry] = []
        for position, line in enumerate(lines):
            try:
                raw = json.loads(line)
                parsed.append(_JournalEntry(
                    seq=raw["seq"], digest=raw["digest"],
                    records=raw["records"], nbytes=raw["bytes"],
                    nonces=raw["nonces"],
                ))
            except (ValueError, KeyError, TypeError) as exc:
                if position < len(lines) - 1:
                    raise TransferError(
                        f"journal line {position} is malformed behind the "
                        "journal head"
                    ) from exc
                # A line cut by a crash mid-append was never acked.
        entries: List[_JournalEntry] = []
        nonces: Set[str] = set()
        records: List[EncryptedRecord] = []
        headers: List[bytes] = []
        digests: List[bytes] = []
        for position, entry in enumerate(parsed):
            chunk_path = path / cls._chunk_name(entry.seq)
            failure = None
            if not chunk_path.exists():
                failure = f"journaled chunk {entry.seq} is missing on disk"
            else:
                blob = chunk_path.read_bytes()
                try:
                    chunk_digests = [header_digest(header, sealed)
                                     for header, sealed in packed_frames(blob)]
                except LedgerError:
                    chunk_digests = None
                if (chunk_digests is None
                        or chunk_digest(chunk_digests).hex() != entry.digest):
                    failure = (f"journaled chunk {entry.seq} failed its "
                               "digest check")
            if failure is not None:
                if position == len(parsed) - 1:
                    break  # unacked tail: drop it, stay resumable
                raise TransferError(failure)
            try:
                chunk_records, chunk_headers = unpack_headed(blob)
                canonical = chunk_headers == [record_header(r)
                                              for r in chunk_records]
            except (ValueError, KeyError, TypeError):
                canonical = False
            if not canonical:
                # A re-encoded header would be a second record identity.
                raise TransferError(f"journaled chunk {entry.seq} is "
                                    "not canonically packed")
            entries.append(entry)
            nonces.update(entry.nonces)
            records += chunk_records
            headers += chunk_headers
            digests += chunk_digests
        if len(entries) < len(lines) or (text and not text.endswith("\n")):
            atomic_write_text(journal_path, "".join(
                line + "\n" for line in lines[: len(entries)]))
        # Drop any chunk file past the journal head: written, never acked.
        acked = {cls._chunk_name(e.seq) for e in entries}
        for stray in path.glob("chunk-*"):  # a torn write's .tmp included
            if stray.name not in acked:
                stray.unlink()
        return cls(path, entries, nonces, records, headers, digests)

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
        digests = [header_digest(header, record.sealed)
                   for header, record in zip(headers, records)]
        digest = chunk_digest(digests).hex()
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
        # Chunk bytes must be durable BEFORE the journal names them: a
        # power cut between the two steps must never leave a durable
        # journal line pointing at undurable chunk bytes.
        atomic_write_bytes(self.path / self._chunk_name(seq),
                           iter_packed(records, headers))
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
        self._digests += digests
        return ChunkReceipt(seq=seq, digest=digest, records=len(records))

    # -- finalize ----------------------------------------------------------------

    def finalize(self) -> Tuple[List[EncryptedRecord], List[bytes],
                                List[bytes]]:
        """Close the transfer; hand over ``(records, headers, digests)``:
        every journaled record beside its canonical header and content
        digest, from the hold — the values each journal line's digest
        commits to. The spool is not read; only :meth:`resume` reads it."""
        if self._finalized:
            raise TransferError("transfer already finalized")
        self._finalized = True
        held = self._records, self._headers, self._digests
        self._records, self._headers, self._digests = [], [], []
        return held

    def discard(self) -> None:
        """Delete the spool and drop the hold (after the session committed
        or was aborted)."""
        self._records, self._headers, self._digests = [], [], []
        for stray in self.path.glob("chunk-*"):
            stray.unlink()
        journal = self.path / _JOURNAL
        if journal.exists():
            journal.unlink()
        try:
            self.path.rmdir()
        except OSError:  # pragma: no cover - directory shared or non-empty
            pass
