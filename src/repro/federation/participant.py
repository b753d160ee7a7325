"""A training participant (data contributor)."""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.crypto.aead import BULK_CIPHER
from repro.crypto.keys import SymmetricKey, random_key
from repro.data.datasets import Dataset
from repro.data.encryption import EncryptedDataset, encrypt_dataset
from repro.errors import QueryError
from repro.nn.network import Network
from repro.utils.rng import RngStream
from repro.utils.serialization import canonical_digest

if TYPE_CHECKING:  # avoid a runtime import cycle with repro.core
    from repro.core.assessment import AssessmentResult, ExposureAssessor

__all__ = ["TrainingParticipant"]


class TrainingParticipant:
    """One distrusting data contributor.

    Holds a private dataset and a locally generated symmetric key. The key
    never leaves the participant except through the attested TLS channel
    into the training enclave (:mod:`repro.federation.provisioning`).
    """

    def __init__(self, participant_id: str, dataset: Dataset, rng: RngStream) -> None:
        self.participant_id = participant_id
        self.dataset = dataset
        self.rng = rng
        self.key: SymmetricKey = random_key(
            rng.child("data-key"), key_id=f"{participant_id}/data-key"
        )

    def encrypt_dataset(self, cipher: str = BULK_CIPHER) -> EncryptedDataset:
        """Seal the private training data for submission to the server."""
        return encrypt_dataset(self.dataset, self.key, self.participant_id, cipher=cipher)

    # -- dynamic re-assessment (paper, Section IV-B) ---------------------------

    def assess_exposure(self, semi_trained_model: Network,
                        assessor: "ExposureAssessor",
                        sample_size: int = 4) -> "AssessmentResult":
        """Assess a retrieved semi-trained model on local private data.

        After each epoch participants retrieve the semi-trained model and
        measure information exposure with their own data, then vote on the
        partition for the next epoch.
        """
        take = min(sample_size, len(self.dataset))
        sample = self.dataset.x[:take]
        return assessor.assess(semi_trained_model, sample)

    # -- forensic cooperation (paper, Section IV-C) ------------------------------

    def disclose_instance(self, index: int) -> np.ndarray:
        """Hand over one original training instance for an investigation.

        Participants agreed (threat model) to turn in demanded instances
        when erroneous predictions are being debugged; the attributor
        verifies the returned instance's hash digest against the linkage
        record before trusting it.
        """
        if not 0 <= index < len(self.dataset):
            raise QueryError(
                f"{self.participant_id} has no training instance {index}"
            )
        return self.dataset.x[index]

    def instance_digest(self, index: int) -> bytes:
        """The hash digest of a local instance (as recorded at training)."""
        return canonical_digest(self.dataset.x[index])
