"""The CalTrain training server (untrusted host + training enclave).

The server provider hosts the SGX platform and orchestrates the pipeline
but never sees plaintext training data: records are authenticated and
decrypted *inside* the training enclave with keys provisioned over attested
TLS. Batches that fail authentication — forged payloads, tampered labels,
or sources that never provisioned a key — are discarded, which is the
paper's defence against injection through illegitimate channels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.crypto.aead import BULK_CIPHER, new_aead
from repro.data.encryption import EncryptedDataset, decrypt_record
from repro.enclave.attestation import AttestationService
from repro.enclave.enclave import Enclave
from repro.enclave.platform import SgxPlatform
from repro.errors import (AuthenticationError, DuplicateSubmissionError,
                          ProvisioningError, TrainingError)
from repro.federation.provisioning import (
    install_provisioning_ecalls,
    provisioned_key,
)
from repro.utils.logging import get_logger
from repro.utils.rng import RngStream

__all__ = ["DecryptionSummary", "TrainingServer"]

_LOG = get_logger("federation.server")


@dataclass
class DecryptionSummary:
    """Outcome of in-enclave authentication + decryption."""

    accepted: int = 0
    rejected_unregistered: int = 0
    rejected_tampered: int = 0  # failed the tag, or authentic but not a tensor
    accepted_by_source: Dict[str, int] = field(default_factory=dict)


def _ecall_decrypt_datasets(enclave: Enclave, datasets: List[EncryptedDataset],
                            cipher: str) -> DecryptionSummary:
    """Trusted: authenticate, decrypt and stage all submitted records."""
    images: List[np.ndarray] = []
    labels: List[int] = []
    sources: List[str] = []
    indices: List[int] = []
    summary = DecryptionSummary()
    for dataset in datasets:
        try:
            key_material = provisioned_key(enclave, dataset.source_id)
        except ProvisioningError:
            summary.rejected_unregistered += len(dataset.records)
            _LOG.warning(
                "discarding %d records from unregistered source %r",
                len(dataset.records), dataset.source_id,
            )
            continue
        aead = new_aead(key_material, cipher=cipher)
        for record in dataset.records:
            try:
                image, label = decrypt_record(record, aead)
            except AuthenticationError:
                summary.rejected_tampered += 1
                continue
            except ValueError as exc:
                # A valid tag over something that is not a tensor: only a
                # registered contributor can produce it, and it costs that
                # contributor the record, not everyone the training run.
                summary.rejected_tampered += 1
                _LOG.warning(
                    "discarding undecodable record %d from %r: %s",
                    record.index, record.source_id, exc,
                )
                continue
            images.append(image)
            labels.append(label)
            sources.append(record.source_id)
            indices.append(record.index)
            summary.accepted += 1
            summary.accepted_by_source[record.source_id] = (
                summary.accepted_by_source.get(record.source_id, 0) + 1
            )
    if summary.accepted:
        x = np.stack(images).astype(np.float32, copy=False)
        y = np.asarray(labels, dtype=np.int64)
        enclave.trusted_put("training/x", x, nbytes=x.nbytes)
        enclave.trusted_put("training/y", y, nbytes=y.nbytes)
        enclave.trusted_put("training/sources", sources)
        enclave.trusted_put("training/indices", np.asarray(indices))
    return summary


class TrainingServer:
    """Hosts the training enclave and stages the encrypted submissions."""

    def __init__(self, platform: SgxPlatform,
                 attestation_service: AttestationService,
                 rng: RngStream) -> None:
        self.platform = platform
        self.attestation_service = attestation_service
        self.rng = rng
        self.enclave: Optional[Enclave] = None
        self._submissions: List[EncryptedDataset] = []
        attestation_service.register_platform(
            platform.platform_id, platform.platform_key
        )

    # -- enclave lifecycle -------------------------------------------------------

    def build_training_enclave(self, network_config: str,
                               hyperparameters: Optional[dict] = None,
                               name: str = "training-enclave") -> Enclave:
        """ECREATE + EADD + EINIT the training enclave.

        The network architecture config and hyperparameters are measured
        into MRENCLAVE, so participants validating the quote are validating
        the exact training procedure they agreed on (paper, Section III).
        """
        from repro.ingest.validate import install_ingest_ecalls

        enclave = self.platform.create_enclave(name)
        install_provisioning_ecalls(enclave)
        install_ingest_ecalls(enclave)
        enclave.add_code("decrypt_datasets", _ecall_decrypt_datasets)
        enclave.add_data("network-config", network_config,
                         nbytes=len(network_config))
        enclave.add_data("hyperparameters", hyperparameters or {})
        enclave.init()
        self.enclave = enclave
        return enclave

    # -- data intake ----------------------------------------------------------------

    def submit(self, encrypted_dataset: EncryptedDataset) -> None:
        """Accept one participant's encrypted submission (legit channel).

        Duplicate submissions from the same source — and datasets whose
        record indices collide — are rejected at the transport layer:
        re-playing a dataset (or one record inside it) would double an
        instance's weight in training (a cheap influence attack even
        without forging a single record).
        """
        if any(
            existing.source_id == encrypted_dataset.source_id
            for existing in self._submissions
        ):
            raise DuplicateSubmissionError(
                f"source {encrypted_dataset.source_id!r} already submitted "
                "(replayed submissions are rejected)"
            )
        seen: set = set()
        collisions: set = set()
        for record in encrypted_dataset.records:
            (collisions if record.index in seen else seen).add(record.index)
        if collisions:
            raise DuplicateSubmissionError(
                f"submission from {encrypted_dataset.source_id!r} carries "
                f"colliding record indices {sorted(collisions)[:5]} "
                "(replayed records are rejected)"
            )
        self._submissions.append(encrypted_dataset)

    @property
    def submissions(self) -> Tuple[EncryptedDataset, ...]:
        """The still-encrypted submissions staged so far (read-only)."""
        return tuple(self._submissions)

    def replace_submissions(self,
                            datasets: List[EncryptedDataset]) -> None:
        """Swap in a new submission set (distributed shard assignment).

        The coordinator re-shards encrypted submissions across workers
        when a shard moves (initial distribution, blacklist
        reassignment). Every dataset passes the same duplicate/collision
        gates as :meth:`submit` — re-sharding must not become a replay
        loophole.
        """
        self._submissions = []
        for dataset in datasets:
            self.submit(dataset)

    def from_ledger(self, ledger) -> int:
        """Stage every validated ledger record for training.

        This is the production intake path: instead of per-participant
        in-memory submissions, training consumes the committed lane of a
        :class:`~repro.ingest.ledger.ContributionLedger` — records that
        already passed the attestation-gated gateway and the validation
        pipeline. The segment digests are re-verified (fail-closed) on
        the bytes staged, before anything is; quarantined records are
        never staged. Returns the number of records staged.
        """
        by_source: Dict[str, List] = {}
        for record in ledger.verified_records():
            by_source.setdefault(record.source_id, []).append(record)
        staged = 0
        for source_id in sorted(by_source):
            self.submit(EncryptedDataset(source_id=source_id,
                                         records=by_source[source_id]))
            staged += len(by_source[source_id])
        _LOG.info("staged %d ledger records from %d contributors",
                  staged, len(by_source))
        return staged

    def decrypt_submissions(self, cipher: str = BULK_CIPHER) -> DecryptionSummary:
        """Authenticate + decrypt everything submitted, inside the enclave."""
        if self.enclave is None:
            raise TrainingError("build_training_enclave() must run first")
        payload = sum(
            len(r.sealed) for ds in self._submissions for r in ds.records
        )
        return self.enclave.ecall(
            "decrypt_datasets", self._submissions, cipher, payload_bytes=payload
        )

    def staged_training_data(self) -> Tuple[np.ndarray, np.ndarray, List[str], np.ndarray]:
        """Trusted-side accessor for the staged plaintext training data."""
        if self.enclave is None or not self.enclave.trusted_has("training/x"):
            raise TrainingError("no decrypted training data staged")
        return (
            self.enclave.trusted_get("training/x"),
            self.enclave.trusted_get("training/y"),
            self.enclave.trusted_get("training/sources"),
            self.enclave.trusted_get("training/indices"),
        )
