"""The ingest gateway: attestation-gated sessions, quotas, backpressure.

Contributors reach the durable pipeline only through here, and only
after the attested provisioning handshake
(:func:`repro.federation.provisioning.provision_key`) has planted their
data key inside the training enclave — a session open for a contributor
the enclave holds no key for is refused outright. On top of that gate
the gateway enforces the "heavy traffic" disciplines of the serving
plane, mirrored onto the upload side:

* **bounded concurrency** — at most ``max_open_sessions`` uploads may be
  in flight; beyond that, opens fail with the typed
  :class:`~repro.errors.UploadRejected` (backpressure, not silent drops);
* **per-contributor quotas** — records and bytes a contributor may
  commit, checked as chunks arrive so an over-quota stream is cut off
  mid-flight, not after it has consumed the spool;
* **token-bucket rate limiting** — sustained per-contributor record
  rates are capped; bursts up to the bucket capacity are absorbed.

A completed session drains its journal through the
:class:`~repro.ingest.validate.ValidationPool` and commits the survivors
to the :class:`~repro.ingest.ledger.ContributionLedger` — one segment
per session — with quarantined records preserved in the forensic lane.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Optional, Sequence

from repro.data.encryption import EncryptedRecord
from repro.errors import (ConfigurationError, IngestError, TransferError,
                          UploadRejected)
from repro.federation.provisioning import provisioned_key, ProvisioningError
from repro.ingest.ledger import (ContributionLedger, LedgerSegmentInfo,
                                 packed_frames)
from repro.ingest.transfer import ChunkReceipt, UploadTransfer
from repro.ingest.validate import ValidationPool
from repro.observability.adapter import SubsystemTelemetry

__all__ = ["GatewayConfig", "TokenBucket", "IngestReceipt", "UploadSession",
           "IngestGateway"]


@dataclass(frozen=True)
class GatewayConfig:
    """Traffic-shaping knobs for the ingest gateway."""

    max_open_sessions: int = 16          # bounded concurrency = backpressure
    max_records_per_contributor: int = 1_000_000
    max_bytes_per_contributor: int = 16 * 1024 ** 3
    rate_capacity: float = 4096.0        # token-bucket burst, in records
    rate_refill_per_s: float = 4096.0    # sustained records/second
    chunk_records: int = 256             # upper bound on records per chunk

    def __post_init__(self) -> None:
        if self.max_open_sessions < 1:
            raise ConfigurationError("max_open_sessions must be >= 1")
        if self.max_records_per_contributor < 1:
            raise ConfigurationError("max_records_per_contributor must be >= 1")
        if self.max_bytes_per_contributor < 1:
            raise ConfigurationError("max_bytes_per_contributor must be >= 1")
        if self.rate_capacity <= 0 or self.rate_refill_per_s <= 0:
            raise ConfigurationError("rate limiter parameters must be > 0")
        if self.chunk_records < 1:
            raise ConfigurationError("chunk_records must be >= 1")


class TokenBucket:
    """A thread-safe token bucket (tokens = records)."""

    def __init__(self, capacity: float, refill_per_s: float,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.capacity = float(capacity)
        self.refill_per_s = float(refill_per_s)
        self._clock = clock
        self._tokens = float(capacity)
        self._stamp = clock()
        self._lock = threading.Lock()

    def try_take(self, tokens: float) -> bool:
        """Take ``tokens`` if available; never blocks."""
        with self._lock:
            now = self._clock()
            self._tokens = min(
                self.capacity,
                self._tokens + (now - self._stamp) * self.refill_per_s,
            )
            self._stamp = now
            if tokens > self._tokens:
                return False
            self._tokens -= tokens
            return True


@dataclass(frozen=True)
class IngestReceipt:
    """What a contributor holds after a committed session."""

    contributor: str
    session_id: str
    committed: int
    quarantined: int
    segment: Optional[LedgerSegmentInfo]
    manifest_digest: str
    audit_head: str


class UploadSession:
    """One contributor's chunked upload, spooled through the journal."""

    def __init__(self, gateway: "IngestGateway", contributor: str,
                 session_id: str, transfer: UploadTransfer,
                 resumed: bool = False) -> None:
        self.gateway = gateway
        self.contributor = contributor
        self.session_id = session_id
        self.transfer = transfer
        self.resumed = resumed
        self._closed = False

    @property
    def next_seq(self) -> int:
        return self.transfer.next_seq

    @property
    def acked_records(self) -> int:
        return self.transfer.acked_records

    @property
    def acked_bytes(self) -> int:
        return self.transfer.acked_bytes

    def max_nonce(self) -> Optional[bytes]:
        return self.transfer.max_nonce()

    def send_chunk(self, records: Sequence[EncryptedRecord]) -> ChunkReceipt:
        """Stream one chunk through the gateway's traffic shaping."""
        if self._closed:
            raise IngestError("session is closed")
        return self.gateway._accept_chunk(self, records)

    def complete(self) -> IngestReceipt:
        """Validate everything journaled and commit it to the ledger."""
        if self._closed:
            raise IngestError("session is closed")
        self._closed = True
        return self.gateway._complete_session(self)

    def abort(self) -> None:
        """Drop the session and its spool without committing anything."""
        if self._closed:
            return
        self._closed = True
        self.gateway._abort_session(self)


class IngestGateway:
    """The contributor-facing front door of the ingestion plane."""

    def __init__(self, ledger: ContributionLedger, validator: ValidationPool,
                 spool_dir, config: Optional[GatewayConfig] = None,
                 telemetry: Optional[SubsystemTelemetry] = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.ledger = ledger
        self.validator = validator
        self.spool_dir = Path(spool_dir)
        self.config = config or GatewayConfig()
        self.telemetry = telemetry if telemetry is not None else (
            validator.telemetry
        )
        self._clock = clock
        self._lock = threading.Lock()
        self._open: Dict[str, UploadSession] = {}
        self._buckets: Dict[str, TokenBucket] = {}
        # Quotas charge each committed segment to its manifest contributor:
        # records from the manifest, bytes from the frames' sealed lengths,
        # with no record decoded.
        self._committed_records: Counter = Counter()
        self._committed_bytes: Counter = Counter()
        for segment in ledger.segments:
            blob = (ledger.path / f"{segment.name}.bin").read_bytes()
            self._committed_records[segment.contributor] += segment.records
            self._committed_bytes[segment.contributor] += sum(
                len(sealed) for _, sealed in packed_frames(blob))

    # -- the attestation gate ------------------------------------------------------

    def _require_provisioned(self, contributor: str) -> None:
        try:
            provisioned_key(self.validator.enclave, contributor)
        except ProvisioningError:
            self.telemetry.count("rejected_unprovisioned")
            raise UploadRejected(
                f"contributor {contributor!r} has no provisioned key — run "
                "the attested provisioning handshake before uploading"
            ) from None

    def _bucket(self, contributor: str) -> TokenBucket:
        with self._lock:
            bucket = self._buckets.get(contributor)
            if bucket is None:
                bucket = self._buckets[contributor] = TokenBucket(
                    self.config.rate_capacity, self.config.rate_refill_per_s,
                    clock=self._clock,
                )
            return bucket

    # -- session lifecycle ---------------------------------------------------------

    def _session_dir(self, contributor: str, session_id: str) -> Path:
        return self.spool_dir / contributor / session_id

    def open_session(self, contributor: str,
                     session_id: str = "upload") -> UploadSession:
        """Open a fresh upload session (attestation-gated, bounded)."""
        self._require_provisioned(contributor)
        with self._lock:
            if len(self._open) >= self.config.max_open_sessions:
                self.telemetry.count("rejected_backpressure")
                raise UploadRejected(
                    f"too many uploads in flight "
                    f"({self.config.max_open_sessions}); retry with backoff"
                )
            key = f"{contributor}/{session_id}"
            if key in self._open:
                raise UploadRejected(
                    f"session {session_id!r} for {contributor!r} is already "
                    "open"
                )
            try:
                transfer = UploadTransfer.create(
                    self._session_dir(contributor, session_id)
                )
            except TransferError as exc:
                # A crashed session's spool is present; keep the gateway's
                # typed-error contract and point the client at the
                # actionable path instead of leaking the internal error.
                self.telemetry.count("rejected_stale_spool")
                raise UploadRejected(
                    f"session {session_id!r} for {contributor!r} has an "
                    "interrupted upload spooled — call resume_session to "
                    "continue it"
                ) from exc
            session = UploadSession(self, contributor, session_id, transfer)
            self._open[key] = session
        self.telemetry.count("sessions_opened")
        return session

    def resume_session(self, contributor: str,
                       session_id: str = "upload") -> UploadSession:
        """Reopen a crashed upload from its journal (attestation-gated).

        The returned session reports ``next_seq`` / ``acked_records`` /
        ``max_nonce()`` so the contributor continues exactly where the
        journal left off.
        """
        self._require_provisioned(contributor)
        with self._lock:
            if len(self._open) >= self.config.max_open_sessions:
                self.telemetry.count("rejected_backpressure")
                raise UploadRejected(
                    f"too many uploads in flight "
                    f"({self.config.max_open_sessions}); retry with backoff"
                )
            key = f"{contributor}/{session_id}"
            if key in self._open:
                raise UploadRejected(
                    f"session {session_id!r} for {contributor!r} is already "
                    "open"
                )
            session_dir = self._session_dir(contributor, session_id)
            if not UploadTransfer.exists(session_dir):
                raise UploadRejected(
                    f"session {session_id!r} for {contributor!r} has no "
                    "spooled upload to resume — open a fresh session"
                )
            transfer = UploadTransfer.resume(session_dir)
            session = UploadSession(self, contributor, session_id, transfer,
                                    resumed=True)
            self._open[key] = session
        self.telemetry.count("sessions_resumed")
        return session

    # -- the chunk path --------------------------------------------------------------

    def _accept_chunk(self, session: UploadSession,
                      records: Sequence[EncryptedRecord]) -> ChunkReceipt:
        started = time.perf_counter()
        if len(records) > self.config.chunk_records:
            self.telemetry.count("rejected_oversized_chunk")
            raise UploadRejected(
                f"chunk of {len(records)} records exceeds the "
                f"{self.config.chunk_records}-record bound"
            )
        contributor = session.contributor
        nbytes = sum(len(r.sealed) for r in records)
        with self._lock:
            committed = self._committed_records[contributor]
            committed_bytes = self._committed_bytes[contributor]
            # Quotas must see what is already spooled but not yet
            # committed — across every open session this contributor
            # holds — or a contributor could spool arbitrarily many
            # bytes past the cap inside open sessions (disk exhaustion).
            pending = sum(s.acked_records for s in self._open.values()
                          if s.contributor == contributor)
            pending_bytes = sum(s.acked_bytes for s in self._open.values()
                                if s.contributor == contributor)
        if committed + pending + len(records) > \
                self.config.max_records_per_contributor:
            self.telemetry.count("rejected_quota")
            raise UploadRejected(
                f"contributor {contributor!r} would exceed its "
                f"{self.config.max_records_per_contributor}-record quota"
            )
        if committed_bytes + pending_bytes + nbytes > \
                self.config.max_bytes_per_contributor:
            self.telemetry.count("rejected_quota")
            raise UploadRejected(
                f"contributor {contributor!r} would exceed its byte quota"
            )
        if not self._bucket(contributor).try_take(float(len(records))):
            self.telemetry.count("rejected_rate")
            raise UploadRejected(
                f"contributor {contributor!r} exceeds its sustained upload "
                "rate; retry with backoff"
            )
        receipt = session.transfer.append_chunk(records)
        if receipt.replayed:
            self.telemetry.count("chunks_replayed")
        else:
            self.telemetry.count("chunks")
            self.telemetry.count("chunk_records", receipt.records)
            self.telemetry.count("chunk_bytes", nbytes)
        self.telemetry.observe("chunk", time.perf_counter() - started)
        return receipt

    # -- completion ------------------------------------------------------------------

    def _complete_session(self, session: UploadSession) -> IngestReceipt:
        started = time.perf_counter()
        contributor = session.contributor
        try:
            records, headers, digests = session.transfer.finalize()
            report = self.validator.validate(contributor, records, headers,
                                             digests)
            # The dedup gate and the append are atomic under the ledger
            # lock: concurrent completions racing on the same ciphertext
            # cannot both commit it. Whatever the lock-side gate refuses
            # is quarantined and audited like any pipeline refusal.
            segment, duplicates = self.ledger.commit_deduplicated(
                report.accepted, contributor, report.accepted_digests,
                report.accepted_headers,
            )
            if duplicates:
                self.validator.quarantine_at_commit(report, duplicates)
            if report.accepted:
                self.telemetry.count("records_committed",
                                     len(report.accepted))
            for reason in sorted(report.quarantined_by_reason):
                refused = [q for q in report.quarantined
                           if q.reason == reason]
                self.ledger.quarantine(
                    [q.record for q in refused], contributor, reason,
                    [q.digest for q in refused], [q.header for q in refused],
                )
            with self._lock:
                self._committed_records[contributor] += len(report.accepted)
                self._committed_bytes[contributor] += sum(
                    len(r.sealed) for r in report.accepted)
            session.transfer.discard()
        finally:
            with self._lock:
                self._open.pop(f"{contributor}/{session.session_id}", None)
        self.telemetry.count("sessions_committed")
        self.telemetry.observe("commit", time.perf_counter() - started)
        return IngestReceipt(
            contributor=contributor,
            session_id=session.session_id,
            committed=len(report.accepted),
            quarantined=len(report.quarantined),
            segment=segment,
            manifest_digest=self.ledger.manifest_digest().hex(),
            audit_head=self.validator.audit.head.hex(),
        )

    def evict_session(self, contributor: str,
                      session_id: str = "upload") -> bool:
        """Free a dead upload's slot without touching its spool.

        This is the operator/timeout path for a client that crashed
        mid-transfer: the journal stays on disk so the contributor can
        :meth:`resume_session` later, but the bounded-concurrency slot is
        released immediately.
        """
        with self._lock:
            session = self._open.pop(f"{contributor}/{session_id}", None)
        if session is None:
            return False
        session._closed = True
        self.telemetry.count("sessions_evicted")
        return True

    def _abort_session(self, session: UploadSession) -> None:
        session.transfer.discard()
        with self._lock:
            self._open.pop(f"{session.contributor}/{session.session_id}", None)
        self.telemetry.count("sessions_aborted")

    # -- introspection ----------------------------------------------------------------

    @property
    def open_sessions(self) -> int:
        with self._lock:
            return len(self._open)

    def committed_records(self, contributor: str) -> int:
        with self._lock:
            return self._committed_records[contributor]
