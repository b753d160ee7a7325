"""CalTrain facade integration tests — the full Fig. 2 pipeline."""

import numpy as np
import pytest

from repro.core.caltrain import CalTrain, CalTrainConfig
from repro.core.fingerprint import Fingerprinter
from repro.data.datasets import synthetic_cifar
from repro.errors import ConfigurationError, TrainingError
from repro.federation.participant import TrainingParticipant
from repro.nn.zoo import tiny_testnet
from repro.utils.rng import RngStream


@pytest.fixture
def config():
    return CalTrainConfig(
        seed=7, epochs=2, batch_size=16, partition=1, augment=False,
        network_factory=lambda gen: tiny_testnet(
            gen, input_shape=(8, 8, 3), num_classes=4
        ),
    )


def _two_contributor_world(config):
    rng = RngStream(99, "world")
    train, test = synthetic_cifar(rng.child("data"), num_train=192, num_test=48,
                                  num_classes=4, shape=(8, 8, 3))
    system = CalTrain(config)
    participants = []
    for i, ds in enumerate(train.split([0.5, 0.5],
                                       rng=rng.child("split").generator)):
        participant = TrainingParticipant(f"p{i}", ds, rng.child(f"p{i}"))
        system.register_participant(participant)
        system.submit_data(participant)
        participants.append(participant)
    return system, participants, test


@pytest.fixture
def world(config):
    return _two_contributor_world(config)


class TestPipeline:
    def test_full_pipeline(self, world):
        system, participants, test = world
        reports = system.train(test_x=test.x, test_y=test.y)
        assert len(reports) == 2
        assert system.decryption_summary.accepted == 192

        db = system.fingerprint_stage()
        assert len(db) == 192
        service = system.query_service()
        labels, _, fps = system.fingerprinter.predict_with_fingerprint(test.x[:2])
        neighbors = service.query(fps[0], int(labels[0]), k=3)
        assert len(neighbors) == 3

        investigator = system.investigator()
        result = investigator.investigate(
            test.x[:2], participants=system.participants
        )
        assert all(result.verified_disclosures.values())

    def test_fingerprint_pass_reuses_the_training_scratch(self, config):
        """At the training batch size the pass finds every pooled buffer at
        the shape training left it; a larger fingerprint batch would
        reallocate the im2col/GEMM scratch (the lifecycle RSS peak)."""
        config.batch_size = 32
        config.backend = "optimized"  # the reference backend pools nothing
        system, _, _ = _two_contributor_world(config)
        system.train()

        def pooled():
            return sum(layer._pool.nbytes() for layer in system.model.layers)

        after_training = pooled()
        assert after_training > 0
        database = system.fingerprint_stage()
        assert len(database) == 192  # a multiple of the batch: no short tail
        assert pooled() <= after_training

        x = system.server.staged_training_data()[0]
        np.testing.assert_allclose(
            Fingerprinter(system.model, batch_size=32).fingerprint(x),
            Fingerprinter(system.model, batch_size=128).fingerprint(x),
            atol=1e-6,
        )

    def test_stage_ordering_enforced(self, config):
        system = CalTrain(config)
        with pytest.raises(TrainingError):
            system.train()  # nothing submitted
        with pytest.raises(TrainingError):
            system.fingerprint_stage()
        with pytest.raises(TrainingError):
            system.query_service()
        with pytest.raises(TrainingError):
            system.investigator()

    def test_unknown_architecture_rejected(self):
        with pytest.raises(ConfigurationError):
            CalTrain(CalTrainConfig(architecture="resnet-9000"))

    def test_named_architectures_resolve(self):
        system = CalTrain(CalTrainConfig(architecture="cifar10-10layer",
                                         width_scale=0.05, epochs=1))
        assert "conv" in system.network_config

    def test_expected_measurement_stable(self, config):
        a = CalTrain(config)
        b = CalTrain(config)
        assert a.expected_measurement == b.expected_measurement

    def test_kinds_recorded_in_linkage(self, world):
        system, participants, test = world
        system.train()
        kinds = {
            "p0": np.array(["poisoned"] * 3 + ["normal"] * 93),
            "p1": np.array(["normal"] * 96),
        }
        db = system.fingerprint_stage(kinds_by_source=kinds)
        poisoned = [r for r in db.records() if r.kind == "poisoned"]
        assert len(poisoned) == 3
        assert all(r.source == "p0" for r in poisoned)

    def test_reassessment_hook(self, config):
        """With an assessor installed and reassess on, training adjusts the
        partition to the participants' consensus vote."""
        rng = RngStream(5, "re")
        train, _ = synthetic_cifar(rng.child("d"), num_train=96, num_test=16,
                                   num_classes=4, shape=(8, 8, 3))
        config.reassess_every_epoch = True
        config.assess_samples = 1
        system = CalTrain(config)
        participant = TrainingParticipant("p0", train, rng.child("p0"))
        system.register_participant(participant)
        system.submit_data(participant)

        from repro.core.assessment import ExposureAssessor

        oracle = tiny_testnet(rng.child("oracle").generator,
                              input_shape=(8, 8, 3), num_classes=4)
        system.set_assessor(ExposureAssessor(oracle, max_channels_per_layer=2))
        reports = system.train()
        assert len(reports) == 2
        assert 1 <= system.partitioned.partition <= system.model.penultimate_index()
