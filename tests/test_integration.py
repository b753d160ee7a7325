"""Cross-module integration scenarios.

These tests exercise full multi-subsystem flows that no single module test
covers: the audited pipeline, a poisoned participant caught end-to-end,
and the sealed linkage store surviving an enclave restart.
"""

import numpy as np
import pytest

from repro.core.caltrain import CalTrain, CalTrainConfig
from repro.data.datasets import Dataset, synthetic_cifar
from repro.federation.participant import TrainingParticipant
from repro.nn.zoo import tiny_testnet
from repro.utils.rng import RngStream

from tests.governed import governed_pipeline


@pytest.fixture
def world():
    rng = RngStream(321, "integration")
    train, test = synthetic_cifar(rng.child("data"), num_train=240,
                                  num_test=60, num_classes=4, shape=(8, 8, 3))
    return rng, train, test


def _system(epochs=2, **kwargs):
    return CalTrain(CalTrainConfig(
        seed=7, epochs=epochs, batch_size=16, partition=1, augment=False,
        network_factory=lambda gen: tiny_testnet(gen, input_shape=(8, 8, 3),
                                                 num_classes=4),
        **kwargs,
    ))


class TestAuditedPipeline:
    def test_every_stage_recorded_and_chain_verifies(self, world):
        rng, train, test = world
        system = _system()
        for i, share in enumerate(train.split([0.5, 0.5],
                                              rng=rng.child("s").generator)):
            participant = TrainingParticipant(f"p{i}", share, rng.child(f"p{i}"))
            system.register_participant(participant)
            system.submit_data(participant)
        system.train()
        system.fingerprint_stage()

        kinds = [e.kind for e in system.audit_log.events()]
        assert kinds[0] == "setup"
        assert kinds.count("participant-registered") == 2
        assert kinds.count("data-submitted") == 2
        assert "decryption" in kinds
        assert "training-complete" in kinds
        assert kinds[-1] == "fingerprint-stage"
        assert system.audit_log.verify_chain()

    def test_audit_records_rejections(self, world):
        """An unregistered injector's records appear in the audit trail."""
        rng, train, _ = world
        system = _system()
        honest = TrainingParticipant("honest", train.subset(range(100)),
                                     rng.child("h"))
        system.register_participant(honest)
        system.submit_data(honest)
        # The intruder bypasses registration and submits directly.
        intruder = TrainingParticipant("intruder", train.subset(range(100, 140)),
                                       rng.child("i"))
        system.server.submit(intruder.encrypt_dataset())
        system.train()
        (event,) = system.audit_log.events("decryption")
        assert event.details["accepted"] == 100
        assert event.details["rejected_unregistered"] == 40

    def test_audit_log_sealable_in_training_enclave(self, world):
        from repro.core.audit import AuditLog
        from repro.enclave.sealing import seal, unseal

        rng, train, _ = world
        system = _system()
        participant = TrainingParticipant("p0", train, rng.child("p0"))
        system.register_participant(participant)
        blob = seal(system.training_enclave, system.audit_log.to_bytes())
        restored = AuditLog.from_bytes(unseal(system.training_enclave, blob))
        assert restored.verify_chain()
        assert restored.head == system.audit_log.head


class TestPoisonedParticipantEndToEnd:
    def test_badnets_participant_is_implicated(self, world, tmp_path):
        """The headline accountability flow against BadNets poisoning, on
        the governed pipeline: attack -> ledger -> training -> promoted
        store -> attribution -> verified disclosure of every hit."""
        from repro.attacks.badnets import BadNetsAttack

        rng, train, test = world
        attack = BadNetsAttack(target_label=0, patch=3)
        shares = train.split([0.5, 0.5], rng=rng.child("s").generator)
        shares[1] = attack.poison_dataset(shares[1], fraction=0.4,
                                          rng=rng.child("poison").generator)
        system = _system(epochs=6)
        kinds = {}
        for i, share in enumerate(shares):
            participant = TrainingParticipant(f"p{i}", share, rng.child(f"p{i}"))
            system.register_participant(participant)
            flags = share.flags.get("poisoned", np.zeros(len(share), bool))
            kinds[f"p{i}"] = np.where(flags, "poisoned", "normal")

        stamped = attack.stamp_test_set(test)
        with governed_pipeline(system, tmp_path, kinds) as world_:
            labels, _, fingerprints = \
                system.fingerprinter.predict_with_fingerprint(stamped.x[:6])
            hit_kinds = []
            for fingerprint, label in zip(fingerprints, labels):
                report = world_.attributor.attribute(fingerprint, int(label))
                assert "p1" in report.implicated
                verified = world_.attributor.disclose(report,
                                                      system.participants)
                assert verified == [h["store_index"] for h in report.hits]
                hit_kinds += [world_.store.record(i).kind for i in verified]
        assert len(world_.log.events("disclosure")) == 6
        # Most hits genuinely carry the trigger.
        assert hit_kinds.count("poisoned") > len(hit_kinds) / 2


class TestSealedLinkagePersistence:
    def test_linkage_db_survives_enclave_restart(self, world, tmp_path):
        """The fingerprinting enclave seals the store's manifest; an
        identically-built enclave on the same platform unseals it against
        the reopened store, whose one segment is the audit commitment."""
        from repro.core.query import exact_top_k
        from repro.enclave.sealing import seal, unseal
        from repro.serving import LinkageStore

        rng, train, test = world
        system = _system()
        participant = TrainingParticipant("p0", train, rng.child("p0"))
        system.register_participant(participant)
        system.submit_data(participant)
        system.train()
        store = LinkageStore.from_database(tmp_path / "store",
                                           system.fingerprint_stage())

        # Seal in one fingerprint enclave...
        enclave_a = system.platform.create_enclave("fp-store")
        enclave_a.init()
        blob = seal(enclave_a, store.manifest_digest())
        # ...restart: an identical enclave unseals.
        enclave_b = system.platform.create_enclave("fp-store")
        enclave_b.init()
        restored = LinkageStore.open(tmp_path / "store")
        assert unseal(enclave_b, blob) == restored.manifest_digest()
        (event,) = system.audit_log.events("fingerprint-stage")
        assert restored.segment_digests() == [event.details["commitment"]]
        labels, _, fps = system.fingerprinter.predict_with_fingerprint(
            test.x[:1]
        )
        matrix, _ = restored.by_label(int(labels[0]))
        positions, _ = exact_top_k(fps[:1], matrix, 3)
        assert positions.shape == (1, 3)
