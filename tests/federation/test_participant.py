"""Participant tests."""

import numpy as np
import pytest

from repro.data.datasets import Dataset
from repro.errors import QueryError
from repro.federation.participant import TrainingParticipant
from repro.utils.serialization import canonical_digest


@pytest.fixture
def participant(rng, generator):
    dataset = Dataset(
        x=generator.random((6, 4, 4, 3)).astype(np.float32),
        y=generator.integers(0, 2, size=6),
    )
    return TrainingParticipant("alice", dataset, rng.child("alice"))


class TestParticipant:
    def test_key_is_local_and_deterministic(self, rng, generator):
        dataset = Dataset(x=np.zeros((2, 2, 2, 1)), y=np.zeros(2))
        a = TrainingParticipant("p", dataset, rng.child("same"))
        b = TrainingParticipant("p", dataset, rng.child("same"))
        assert a.key.material == b.key.material
        c = TrainingParticipant("p", dataset, rng.child("other"))
        assert a.key.material != c.key.material

    def test_encrypt_dataset_uses_own_source_id(self, participant):
        encrypted = participant.encrypt_dataset()
        assert encrypted.source_id == "alice"
        assert len(encrypted) == 6

    def test_disclose_instance(self, participant):
        disclosed = participant.disclose_instance(2)
        np.testing.assert_array_equal(disclosed, participant.dataset.x[2])

    def test_disclose_out_of_range(self, participant):
        with pytest.raises(QueryError):
            participant.disclose_instance(99)

    def test_instance_digest_matches_canonical_hash(self, participant):
        assert participant.instance_digest(1) == canonical_digest(
            participant.dataset.x[1])
