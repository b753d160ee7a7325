"""Attested-TLS key provisioning tests."""

import numpy as np
import pytest

from repro.data.datasets import Dataset
from repro.enclave.attestation import AttestationService
from repro.errors import AttestationError
from repro.federation.participant import TrainingParticipant
from repro.federation.provisioning import (
    install_provisioning_ecalls,
    provision_key,
    provisioned_key,
)


@pytest.fixture
def training_enclave(platform):
    enclave = platform.create_enclave("training")
    install_provisioning_ecalls(enclave)
    enclave.add_data("config", {"arch": "test"})
    enclave.init()
    return enclave


@pytest.fixture
def participant(rng):
    dataset = Dataset(x=np.zeros((4, 2, 2, 1)), y=np.zeros(4))
    return TrainingParticipant("alice", dataset, rng.child("alice"))


class TestProvisioning:
    def test_key_reaches_enclave(self, participant, training_enclave,
                                 attestation_service):
        provision_key(participant, training_enclave, attestation_service,
                      expected_mrenclave=training_enclave.mrenclave)
        assert provisioned_key(training_enclave, "alice") == participant.key.material

    def test_each_provisioned_participant_is_held(self, rng, training_enclave,
                                                  attestation_service):
        for name in ("alice", "bob"):
            p = TrainingParticipant(
                name, Dataset(x=np.zeros((2, 2, 2, 1)), y=np.zeros(2)),
                rng.child(name),
            )
            provision_key(p, training_enclave, attestation_service,
                          expected_mrenclave=training_enclave.mrenclave)
        for name in ("alice", "bob"):
            assert training_enclave.trusted_has(f"participant-key/{name}")
        assert not training_enclave.trusted_has("participant-key/carol")

    def test_wrong_mrenclave_refused(self, participant, training_enclave,
                                     attestation_service):
        with pytest.raises(AttestationError):
            provision_key(participant, training_enclave, attestation_service,
                          expected_mrenclave=bytes(32))
        assert not training_enclave.trusted_has("participant-key/alice")

    def test_unregistered_platform_refused(self, participant, training_enclave):
        empty_service = AttestationService()
        with pytest.raises(AttestationError):
            provision_key(participant, training_enclave, empty_service,
                          expected_mrenclave=training_enclave.mrenclave)

    def test_modified_enclave_refused(self, participant, platform,
                                      attestation_service):
        """An enclave running different (backdoored) code fails the check
        against the participants' agreed measurement."""
        honest = platform.create_enclave("honest")
        install_provisioning_ecalls(honest)
        honest.add_data("config", {"arch": "agreed"})
        honest.init()
        evil = platform.create_enclave("evil")
        install_provisioning_ecalls(evil)
        evil.add_data("config", {"arch": "agreed", "exfiltrate": True})
        evil.init()
        with pytest.raises(AttestationError):
            provision_key(participant, evil, attestation_service,
                          expected_mrenclave=honest.mrenclave)

    def test_transitions_charged(self, participant, training_enclave,
                                 attestation_service, platform):
        before = platform.clock.now
        provision_key(participant, training_enclave, attestation_service,
                      expected_mrenclave=training_enclave.mrenclave)
        assert platform.clock.now > before
        assert training_enclave.ecall_count == 3  # hello, finished, key
