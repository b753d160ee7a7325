"""The concurrent validation pipeline between transfer and ledger.

Every journaled record must pass five gates before it is committed:

1. **AEAD authentication, inside the enclave** — the sealed payload's tag
   is verified via the ``ingest_verify_records`` ECALL under the
   contributor's provisioned key; a forged payload, a relabelled record,
   or a spliced index fails its tag and is *quarantined*, never crashing
   the pipeline and never reaching the training ledger;
2. **uploader identity** — an authentic record must name the session's
   contributor as its source: one sealed under the uploader's own key
   but naming another contributor would commit under the uploader's
   segment while every reader of the record charges the named one;
3. **label domain** — the cleartext label must lie in the agreed domain;
4. **tensor shape** — the shape the authenticated tensor header declares
   (read inside the enclave; the instance itself is not even decrypted at
   admission) must match the agreed input shape and the payload's size;
   an authentic payload that is not a tensor at all fails here too;
5. **duplicate detection** — a sealed ciphertext whose content digest was
   already committed (by this or any other contributor) is quarantined:
   replaying another participant's records is a cheap influence attack
   even without forging a single byte.

Batches are fanned out across a worker pool, and every decision — accept
or quarantine, with the reason — is in one hash-chained event per session
(plus one for commit-time refusals) of the ingest
:class:`~repro.core.audit.AuditLog`, so admission history is tamper-evident.

A record's content digest (its dedup, audit and ledger-sidecar identity)
is computed once per session, by the transfer as it journals the record
(:meth:`~repro.ingest.transfer.UploadTransfer.append_chunk`), from the
canonical header it encodes; :meth:`ValidationPool.validate` is handed
both and computes neither, the report carries digest and header beside
every record, and the ledger is handed both at commit.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.audit import AuditLog
from repro.crypto.aead import BULK_CIPHER, new_aead
from repro.data.encryption import EncryptedRecord, authenticated_shape
from repro.enclave.enclave import Enclave
from repro.errors import AuthenticationError, ConfigurationError
from repro.federation.provisioning import provisioned_key
from repro.ingest.ledger import ContributionLedger, record_identities
from repro.observability.adapter import SubsystemTelemetry

__all__ = ["ValidationConfig", "QuarantinedRecord", "ValidationReport",
           "ValidationPool", "install_ingest_ecalls"]


# -- trusted (in-enclave) function ---------------------------------------------


def _ecall_verify_records(enclave: Enclave, contributor_id: str,
                          records: Sequence[EncryptedRecord],
                          cipher: str) -> List[Tuple[str, Optional[Tuple[int, ...]], Optional[int]]]:
    """Trusted: authenticate each record; report (verdict, shape, label).

    Admission needs a verdict and a shape, so that is all the enclave
    computes: the tag over the whole payload and the tensor header. The
    instance is not decrypted here, let alone moved across the boundary;
    plaintext first exists at the training decrypt ECALL. ``shape`` is
    ``None`` for an authentic record that does not hold a well-formed
    tensor, which the shape gate refuses like any other wrong shape.
    """
    key_material = provisioned_key(enclave, contributor_id)
    aead = new_aead(key_material, cipher=cipher)
    verdicts: List[Tuple[str, Optional[Tuple[int, ...]], Optional[int]]] = []
    for record in records:
        try:
            shape = authenticated_shape(record, aead)
        except AuthenticationError:
            verdicts.append(("tampered", None, None))
            continue
        verdicts.append(("ok", shape, int(record.label)))
    return verdicts


def install_ingest_ecalls(enclave: Enclave) -> None:
    """Register the ingest ECALLs (call during enclave build)."""
    enclave.add_code("ingest_verify_records", _ecall_verify_records)


# -- untrusted pipeline ----------------------------------------------------------


@dataclass(frozen=True)
class ValidationConfig:
    """The admission contract every contribution is checked against."""

    num_classes: int                   # label domain: 0 <= label < num_classes
    input_shape: Tuple[int, ...]       # agreed instance tensor shape
    workers: int = 2                   # validation worker threads
    batch_records: int = 128           # records per ECALL batch
    cipher: str = BULK_CIPHER

    def __post_init__(self) -> None:
        if self.num_classes < 1:
            raise ConfigurationError("num_classes must be >= 1")
        if self.workers < 1:
            raise ConfigurationError("workers must be >= 1")
        if self.batch_records < 1:
            raise ConfigurationError("batch_records must be >= 1")


@dataclass(frozen=True)
class QuarantinedRecord:
    """One refused record and the gate that refused it."""

    record: EncryptedRecord
    #: "tampered" | "source-mismatch" | "label-domain" | "shape" | "duplicate"
    reason: str
    digest: bytes  # the record's content digest, as computed at the gate
    header: bytes  # the record's canonical header, as the journal encoded it


@dataclass
class ValidationReport:
    """Outcome of validating one upload session's records."""

    contributor: str
    accepted: List[EncryptedRecord] = field(default_factory=list)
    #: Digests and canonical headers of ``accepted``, position for position.
    accepted_digests: List[bytes] = field(default_factory=list)
    accepted_headers: List[bytes] = field(default_factory=list)
    quarantined: List[QuarantinedRecord] = field(default_factory=list)

    @property
    def quarantined_by_reason(self) -> Dict[str, int]:
        reasons: Dict[str, int] = {}
        for item in self.quarantined:
            reasons[item.reason] = reasons.get(item.reason, 0) + 1
        return reasons


class ValidationPool:
    """Fans record batches across workers and applies the admission gates."""

    def __init__(self, enclave: Enclave, config: ValidationConfig,
                 ledger: Optional[ContributionLedger] = None,
                 audit: Optional[AuditLog] = None,
                 telemetry: Optional[SubsystemTelemetry] = None) -> None:
        self.enclave = enclave
        self.config = config
        self.ledger = ledger
        self.audit = audit if audit is not None else AuditLog()
        self.telemetry = telemetry if telemetry is not None else (
            SubsystemTelemetry("ingest"))
        self._audit_lock = threading.Lock()
        self._ecall_lock = threading.Lock()

    # -- per-batch work (runs on pool workers) ------------------------------------

    def _verify_batch(self, contributor: str,
                      batch: Sequence[EncryptedRecord]):
        started = time.perf_counter()
        # The enclave simulator's ECALL boundary is not reentrant; the
        # authenticate stage serializes on it while digesting/gating below
        # still overlaps across workers.
        with self._ecall_lock:
            verdicts = self.enclave.ecall(
                "ingest_verify_records", contributor, list(batch),
                self.config.cipher,
                payload_bytes=sum(len(r.sealed) for r in batch),
            )
        self.telemetry.observe("authenticate", time.perf_counter() - started)
        return verdicts

    def _gate_batch(self, contributor: str,
                    batch: Sequence[EncryptedRecord],
                    headers: Sequence[bytes], digests: Sequence[bytes],
                    verdicts,
                    ) -> List[Tuple[EncryptedRecord, str, bytes, bytes]]:
        """Source/label/shape gates; returns (record, verdict, digest,
        header)."""
        started = time.perf_counter()
        out = []
        for record, header, digest, (verdict, shape, label) in zip(
                batch, headers, digests, verdicts):
            if verdict != "ok":
                verdict = "tampered"
            elif record.source_id != contributor:
                verdict = "source-mismatch"
            elif not 0 <= label < self.config.num_classes:
                verdict = "label-domain"
            elif shape != tuple(self.config.input_shape):
                verdict = "shape"
            out.append((record, verdict, digest, header))
        self.telemetry.observe("gate", time.perf_counter() - started)
        return out

    # -- the pipeline -------------------------------------------------------------

    def validate(self, contributor: str, records: Sequence[EncryptedRecord],
                 headers: Optional[Sequence[bytes]] = None,
                 digests: Optional[Sequence[bytes]] = None,
                 ) -> ValidationReport:
        """Run every gate over ``records`` (beside the canonical ``headers``
        and content ``digests`` the journal holds, if the caller has them;
        bare records are identified once, here); never raises on bad
        data.

        Tampered, relabelled, misattributed, out-of-domain, misshapen, and
        duplicated records land in the report's quarantine list (and the audit
        trail), not in an exception: one malicious record must not stall
        the ingestion of everyone else's data.
        """
        if not records:
            return ValidationReport(contributor=contributor)
        digests, headers = record_identities(records, digests, headers)
        started = time.perf_counter()
        size = self.config.batch_records
        batches = [
            (records[start : start + size], headers[start : start + size],
             digests[start : start + size])
            for start in range(0, len(records), size)
        ]
        report = ValidationReport(contributor=contributor)
        with ThreadPoolExecutor(max_workers=self.config.workers,
                                thread_name_prefix="ingest-validate") as pool:
            gated = pool.map(
                lambda batch: self._gate_batch(
                    contributor, *batch, self._verify_batch(contributor, batch[0])
                ),
                batches,
            )
            results = [item for batch in gated for item in batch]
        # Duplicate detection is cross-batch and cross-contributor state,
        # so it runs single-threaded over the gated stream: against
        # everything the ledger ever committed (asked once, for the whole
        # session), then within this session.
        seen: Set[bytes] = set() if self.ledger is None else (
            self.ledger.known_ciphertexts(digests)
        )
        verdicts = []
        for record, verdict, digest, header in results:
            if verdict == "ok" and digest in seen:
                verdict = "duplicate"
            if verdict == "ok":
                seen.add(digest)
                report.accepted.append(record)
                report.accepted_digests.append(digest)
                report.accepted_headers.append(header)
            else:
                report.quarantined.append(
                    QuarantinedRecord(record, verdict, digest, header)
                )
            verdicts.append(verdict)
        self._audit_decisions(contributor, digests, verdicts)
        self._count_verdicts(len(report.accepted),
                             report.quarantined_by_reason)
        self.telemetry.observe("validate", time.perf_counter() - started)
        return report

    def quarantine_at_commit(self, report: ValidationReport,
                             refused: Sequence[EncryptedRecord],
                             reason: str = "duplicate") -> None:
        """Re-verdict accepted records the ledger refused at commit time.

        The in-pipeline duplicate check is advisory; the authoritative
        gate runs under the ledger lock at commit
        (:meth:`~repro.ingest.ledger.ContributionLedger.commit_session`).
        When that gate catches a race the pipeline could not see — two
        sessions committing the same ciphertext concurrently — the loser's
        records move from ``report.accepted`` to ``report.quarantined``
        here, digests and headers with them, and one audit event commits
        the refusals exactly like any other quarantine.
        """
        refused_ids = {id(record) for record in refused}
        accepted, report.accepted = report.accepted, []
        digests, report.accepted_digests = report.accepted_digests, []
        headers, report.accepted_headers = report.accepted_headers, []
        moved: List[bytes] = []
        for record, digest, header in zip(accepted, digests, headers):
            if id(record) in refused_ids:
                report.quarantined.append(
                    QuarantinedRecord(record, reason, digest, header)
                )
                moved.append(digest)
            else:
                report.accepted.append(record)
                report.accepted_digests.append(digest)
                report.accepted_headers.append(header)
        self._audit_decisions(report.contributor, moved, [reason] * len(moved))
        self._count_verdicts(-len(moved), {reason: len(moved)})

    def _count_verdicts(self, accepted: int, refused: Dict[str, int]) -> None:
        """One counter update per verdict per session, not per record."""
        if accepted:
            self.telemetry.count("records_accepted", accepted)
        for reason, count in refused.items():
            self.telemetry.count("records_quarantined", count)
            self.telemetry.count(f"quarantined_{reason.replace('-', '_')}",
                                 count)

    def _audit_decisions(self, contributor: str, digests: Sequence[bytes],
                         verdicts: List[str]) -> None:
        """One chained event commits a call's decisions, in journal order."""
        with self._audit_lock:
            self.audit.append(
                "ingest-validate",
                contributor=contributor,
                record_digests=[digest.hex() for digest in digests],
                verdicts=verdicts,
            )

    def verify_audit_chain(self) -> bool:
        """Validate the hash chain over every admission decision so far."""
        with self._audit_lock:
            return self.audit.verify_chain()
