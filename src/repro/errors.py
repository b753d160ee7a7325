"""Exception hierarchy for the CalTrain reproduction.

Every subsystem raises subclasses of :class:`CalTrainError` so callers can
catch failures at the granularity they care about (a whole pipeline, one
subsystem, or one specific condition such as a failed authentication tag).
"""

from __future__ import annotations


class CalTrainError(Exception):
    """Base class for every error raised by this library."""


class ConfigurationError(CalTrainError):
    """A component was constructed or configured with invalid parameters."""


class CryptoError(CalTrainError):
    """Base class for failures in the cryptographic substrate."""


class AuthenticationError(CryptoError):
    """An AEAD authentication tag or MAC did not verify.

    In CalTrain this is the signal that a training batch was forged,
    corrupted in transit, or injected from an unregistered source; the
    training server discards such batches (paper, Section IV-A).
    """


class HandshakeError(CryptoError):
    """A TLS-like secure-channel handshake failed or was misused."""


class AggregationError(CryptoError):
    """Secure aggregation could not produce an exact, unbiased sum.

    Raised fail-closed whenever a cohort member is unaccounted for, a
    declared dropout's masks cannot be reconstructed from enough escrowed
    Shamir shares, or reconstruction yields a key that contradicts the
    cohort directory. Silently summing in any of these states would leave
    orphaned pairwise masks in the aggregate — a biased model update that
    no caller can detect after the fact."""


class EnclaveError(CalTrainError):
    """Base class for failures in the SGX enclave simulator."""


class EnclaveLifecycleError(EnclaveError):
    """An enclave operation was attempted in the wrong lifecycle state."""


class EnclaveMemoryError(EnclaveError):
    """The Enclave Page Cache could not satisfy an allocation."""


class EnclaveAbort(EnclaveError):
    """The enclave was torn down out from under its host process.

    SGX enclaves die without warning on EPC eviction under memory
    pressure, power transitions, and microcode updates; every secret and
    all in-enclave state are lost and the enclave must be re-created and
    re-attested before work can continue."""


class EpcPressureError(EnclaveMemoryError):
    """EPC paging escalated into an enclave-fatal thrashing storm."""


class TransferIntegrityError(EnclaveError):
    """An IR or delta tensor failed its transfer checksum while crossing
    the enclave boundary (corruption in the untrusted copy path)."""


class AttestationError(EnclaveError):
    """A remote-attestation quote failed verification."""


class SealingError(EnclaveError):
    """Sealed data could not be unsealed (wrong identity or tampered blob)."""


class NetworkDefinitionError(CalTrainError):
    """A neural-network architecture definition is malformed."""


class ShapeError(NetworkDefinitionError):
    """Tensor shapes do not line up between consecutive layers."""


class TrainingError(CalTrainError):
    """Training-time failure (divergence, bad batch, misuse of the API)."""


class DuplicateSubmissionError(TrainingError):
    """A source re-submitted a dataset, or a dataset carries colliding
    record indices — either would silently double records' weight in
    training, so both are rejected at the transport layer."""


class PartitionError(CalTrainError):
    """A FrontNet/BackNet partition point is invalid for the network."""


class ProvisioningError(CalTrainError):
    """Secret or data provisioning to the training enclave failed."""


class LinkageError(CalTrainError):
    """The fingerprint linkage database rejected an operation."""


class QueryError(CalTrainError):
    """A misprediction accountability query could not be answered."""


class QueryRejected(QueryError):
    """The serving engine refused a query because it is overloaded.

    Raised at submission time when the bounded request queue is full, so
    callers get typed backpressure instead of silently dropped queries.
    ``retry_after_s`` (when not ``None``) is the server's backoff hint —
    derived from the current queue depth and the worker poll interval —
    so callers and the cluster router can wait exactly as long as the
    backlog warrants instead of guessing.
    """

    def __init__(self, message: str, retry_after_s: "float | None" = None):
        super().__init__(message)
        self.retry_after_s = retry_after_s


class StaleIndexError(QueryError):
    """The index's committed history diverged from the store it serves.

    With the incremental segment index, benign growth no longer raises
    this — a query pins the generation it started on and ingest appends
    are adopted by ``refresh()``. It is reserved for *genuine* digest
    mismatch: a store segment the index already covers no longer matches
    the digest it was built against (history rewrite, not growth), so
    the index fails closed and the cluster evicts the replica."""


class ServingError(CalTrainError):
    """Base class for failures in the query-serving subsystem."""


class StoreError(ServingError):
    """The persistent linkage store rejected an operation or failed an
    integrity check against its content-addressed segment digests."""


class CompactionCrash(ServingError):
    """Injected (or real) failure of a background compaction step.

    Raised after a merged segment is built but before the new generation
    is adopted — the atomicity window fault drills exercise. The live
    generation must be unaffected."""


class IndexIntegrityError(ServingError):
    """A served answer (or a replica's index shard) disagrees with the
    authoritative linkage store — a hit whose recomputed distance does
    not match, or a shard matrix whose checksum drifted from its build.
    The answer is discarded and the replica is evicted fail-closed."""


class ClusterError(ServingError):
    """Base class for failures in the replicated serving cluster."""


class DeadlineExceeded(ClusterError):
    """A query's end-to-end deadline expired before any replica (or the
    degraded fallback) produced a verified answer."""


class NoHealthyReplica(ClusterError):
    """Every replica is evicted or circuit-broken and degraded serving
    is disabled (or itself failed verification) — the cluster refuses
    rather than serve unverifiable answers."""


class IngestError(CalTrainError):
    """Base class for failures in the data-ingestion subsystem."""


class UploadRejected(IngestError):
    """The ingest gateway refused work because of backpressure, a
    per-contributor quota, or rate limiting.

    Raised at submission time (mirroring :class:`QueryRejected` on the
    serving plane) so contributors get typed backpressure and can retry
    with backoff instead of having chunks silently dropped."""


class TransferError(IngestError):
    """A chunked upload violated the transfer protocol: an out-of-order
    chunk, a digest conflict on a replayed sequence number, or records
    whose nonces were already journaled."""


class LedgerError(IngestError):
    """The contribution ledger rejected an operation or failed an
    integrity check against its content-addressed segment digests."""


class ResilienceError(CalTrainError):
    """Base class for failures in the fault-tolerant training runtime."""


class CheckpointError(ResilienceError):
    """A checkpoint is torn, tampered with, or bound to a different
    enclave identity/architecture than the one trying to restore it."""


class CheckpointWriteCrash(CheckpointError):
    """A (possibly injected) crash interrupted a checkpoint write; the
    partial checkpoint must never be trusted on recovery."""


class TrainingAborted(ResilienceError):
    """The supervised training runtime exhausted its retry budget and
    failed closed rather than continue on unverifiable state."""


class GovernanceError(CalTrainError):
    """Base class for failures in the accountability control plane."""


class GovernanceLogError(GovernanceError):
    """The governance event log is truncated, bit-flipped, or its chain
    head sidecar disagrees with the entries on disk — the accountability
    record can no longer be trusted and every gated operation must fail
    closed."""


class PromotionError(GovernanceError):
    """A model's lineage did not verify end-to-end (ledger manifest →
    checkpoint chain → linkage-store snapshot), its promotion record is
    missing or forged, or the artifacts changed after promotion. The
    serving plane refuses to load such a model."""


class AttributionError(GovernanceError):
    """A contributor-attribution report could not be assembled with a
    complete, chain-verified evidence path — a linkage hit that resolves
    to no committed ledger record, a quarantined contributor in the
    evidence chain, or a governance log that fails verification."""


class DistributedError(CalTrainError):
    """Base class for failures in the multi-enclave training runtime."""


class ChannelIntegrityError(DistributedError):
    """A record crossing an attested worker/aggregator channel failed its
    boundary checksum after the AEAD layer opened it — corruption in the
    untrusted marshalling path between the enclave boundary and the
    channel, detected before the payload could poison aggregation."""


class RoundAborted(DistributedError):
    """A distributed training round could not complete safely: no worker
    survived to aggregate, replicas diverged, or dropout masks could not
    be reconstructed. The coordinator fails closed rather than publish a
    biased or inconsistent model update."""
