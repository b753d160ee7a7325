"""`repro.ingest` — the durable, attestation-gated data-ingestion plane.

The paper's Section IV-A has participants seal their training data
locally and submit it to the training server; `repro.federation`'s
``submit()`` models that as one in-memory dataset handed over
synchronously. This package grows the upload side into the mirror image
of the :mod:`repro.serving` query plane — a pipeline that survives heavy
traffic from many concurrent contributors:

* :mod:`repro.ingest.gateway` — attestation-gated upload sessions (no
  provisioned key in the enclave, no session), per-contributor
  record/byte quotas, token-bucket rate limiting, and bounded session
  concurrency with the typed :class:`~repro.errors.UploadRejected`
  backpressure signal;
* :mod:`repro.ingest.transfer` — size-bounded chunks with per-chunk
  digests and a write-ahead journal: a crashed upload resumes from the
  last acknowledged chunk, acknowledged chunks are replay-idempotent,
  and journaled nonces can never be re-spent;
* :mod:`repro.ingest.ledger` — an append-only, content-addressed
  :class:`ContributionLedger` of validated encrypted records (committed
  lane) and refused ones (quarantine lane), with an enclave-sealable
  manifest digest;
* :mod:`repro.ingest.validate` — a concurrent pipeline that
  AEAD-authenticates every record inside the enclave, gates labels and
  tensor shapes, deduplicates ciphertexts across contributors, and
  hash-chains every admission decision into an audit trail.

Training then consumes the ledger through
:meth:`repro.federation.server.TrainingServer.from_ledger` instead of
raw submissions.
"""

from repro.ingest.gateway import (GatewayConfig, IngestGateway, IngestReceipt,
                                  TokenBucket, UploadSession)
from repro.ingest.ledger import (LEDGER_FORMAT, ContributionLedger,
                                 LedgerSegmentInfo, record_digest)
from repro.ingest.transfer import ChunkReceipt, UploadTransfer, chunk_stream
from repro.ingest.validate import (QuarantinedRecord, ValidationConfig,
                                   ValidationPool, ValidationReport,
                                   install_ingest_ecalls)

__all__ = [
    "LEDGER_FORMAT",
    "ContributionLedger",
    "LedgerSegmentInfo",
    "record_digest",
    "ChunkReceipt",
    "UploadTransfer",
    "chunk_stream",
    "GatewayConfig",
    "IngestGateway",
    "IngestReceipt",
    "TokenBucket",
    "UploadSession",
    "QuarantinedRecord",
    "ValidationConfig",
    "ValidationPool",
    "ValidationReport",
    "install_ingest_ecalls",
]
