"""CalTrain facade integration tests — the full Fig. 2 pipeline."""

import numpy as np
import pytest

from repro.core.assessment import AssessmentResult
from repro.core.caltrain import CalTrain, CalTrainConfig
from repro.core.fingerprint import Fingerprinter
from repro.data.datasets import synthetic_cifar
from repro.errors import ConfigurationError, TrainingError
from repro.federation.participant import TrainingParticipant
from repro.nn.zoo import tiny_testnet
from repro.serving import LinkageStore
from repro.utils.rng import RngStream

from tests.governed import governed_pipeline


@pytest.fixture
def config():
    return CalTrainConfig(
        seed=7, epochs=2, batch_size=16, partition=1, augment=False,
        network_factory=lambda gen: tiny_testnet(
            gen, input_shape=(8, 8, 3), num_classes=4
        ),
    )


def _two_contributor_world(config, submit=True):
    rng = RngStream(99, "world")
    train, test = synthetic_cifar(rng.child("data"), num_train=192, num_test=48,
                                  num_classes=4, shape=(8, 8, 3))
    system = CalTrain(config)
    participants = []
    for i, ds in enumerate(train.split([0.5, 0.5],
                                       rng=rng.child("split").generator)):
        participant = TrainingParticipant(f"p{i}", ds, rng.child(f"p{i}"))
        system.register_participant(participant)
        if submit:
            system.submit_data(participant)
        participants.append(participant)
    return system, participants, test


@pytest.fixture
def world(config):
    return _two_contributor_world(config)


class TestPipeline:
    def test_full_pipeline(self, config, tmp_path):
        system, _, test = _two_contributor_world(config, submit=False)
        with governed_pipeline(system, tmp_path, test_x=test.x,
                               test_y=test.y) as world:
            assert len(world.reports) == 2
            assert system.decryption_summary.accepted == 192
            assert len(world.store) == 192
            labels, _, fps = system.fingerprinter.predict_with_fingerprint(
                test.x[:2])
            report = world.attributor.attribute(fps[0], int(labels[0]), k=3)
            assert len(report.hits) == 3
            verified = world.attributor.disclose(report, system.participants)
        assert verified == [hit["store_index"] for hit in report.hits]
        (event,) = world.log.events("disclosure")
        assert event["details"]["verified"] == verified

    def test_store_segment_is_the_fingerprint_commitment(self, world,
                                                         tmp_path):
        system, _, _ = world
        system.train()
        table = system.fingerprint_stage()
        store = LinkageStore.from_database(tmp_path / "store", table)
        (event,) = system.audit_log.events("fingerprint-stage")
        assert store.segment_digests() == [event.details["commitment"]]

    def test_fingerprint_pass_reuses_the_training_scratch(self, config):
        """At the training batch size the pass finds every pooled slot big
        enough and allocates no scratch; a larger fingerprint batch would
        grow the im2col/GEMM scratch (the lifecycle RSS peak)."""
        config.batch_size = 32
        system, _, _ = _two_contributor_world(config)
        system.train()

        def pooled():
            return sum(layer._pool.nbytes() for layer in system.model.layers)

        after_training = pooled()
        assert after_training > 0
        database = system.fingerprint_stage()
        assert len(database) == 192  # a multiple of the batch: no short tail
        assert pooled() == after_training

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

    def test_unknown_architecture_rejected(self):
        with pytest.raises(ConfigurationError):
            CalTrain(CalTrainConfig(architecture="resnet-9000"))

    @pytest.mark.parametrize("backend", ["reference", None])
    def test_only_the_one_kernel_set_is_accepted(self, backend):
        with pytest.raises(ConfigurationError, match="optimized"):
            CalTrain(CalTrainConfig(backend=backend))

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
        table = system.fingerprint_stage(kinds_by_source=kinds)
        poisoned = [i for i, kind in enumerate(table.kinds)
                    if kind == "poisoned"]
        assert len(poisoned) == 3
        assert all(table.sources[i] == "p0" for i in poisoned)

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


class _FixedVote:
    """An assessor stub: every participant's assessment votes ``partition``."""

    def __init__(self, partition):
        self.partition = partition

    def assess(self, model, sample):
        return AssessmentResult(layers=[], uniform_baseline=0.0,
                                optimal_partition=self.partition)


class TestPartitionNeverShrinks:
    """The FrontNet's layers were trained in the enclave; a lower vote would
    move them into the BackNet that ``release_model`` ships in the clear."""

    def _train(self, config, vote):
        config.partition = 2
        config.reassess_every_epoch = True
        system, _, _ = _two_contributor_world(config)
        system.set_assessor(_FixedVote(vote))
        system.train()
        return system

    def test_lower_vote_is_logged_and_refused(self, config):
        system = self._train(config, vote=1)
        assert system.partitioned.partition == 2
        refused = system.audit_log.events("partition-vote-refused")
        assert [event.details for event in refused] == [
            {"epoch": epoch, "current": 2, "voted": 1}
            for epoch in range(config.epochs)
        ]
        assert system.audit_log.events("partition-changed") == []
        assert system.audit_log.verify_chain()

    def test_higher_vote_still_grows_the_partition(self, config):
        system = self._train(config, vote=3)
        assert system.partitioned.partition == 3
        (changed,) = system.audit_log.events("partition-changed")
        assert changed.details == {"epoch": 0, "old": 2, "new": 3}
        assert system.audit_log.events("partition-vote-refused") == []
